import random
import subprocess
import sys
import time

import pytest

from clibench import gen
from clibench.oracles import Tables, count_fes
from conftest import cli_env, fixture_doc, fixture_path, tables
from fuzz import drop_composites, rand_small_category
from oracles import fes_bruteforce, non_fes_members
from zsite.fincat import FinCat, ResourceBudgetError, partition_from_blocks, quotient_category
from zsite.jsonio import cat_from_doc, load_workspace
from zsite.modular import (
    ModelLabeledCat,
    class_types,
    compose_functors,
    enumerate_fes,
    model_axiom_check,
    precompose,
    quotient_model,
    validate_model,
)


@pytest.fixture(scope="module")
def ws():
    return load_workspace(fixture_path("modular.json"))


@pytest.fixture(scope="module")
def raw():
    """modular.json's category documents as the oracles' tables, each model
    category under its own name too."""
    doc = fixture_doc("modular.json")
    cats = {name: Tables(cat) for name, cat in doc["categories"].items()}
    return cats | {name: cats[model["category"]] for name, model in doc["model_cats"].items()}


def strays(family):
    """Names of the members of a parametrization family that the raw
    functor search does not find."""
    members = {fun.name: (fun.object_map, fun.morphism_map) for fun in family.members}
    return non_fes_members(tables(family.source), tables(family.model.base), members)


class TestAxioms:
    def test_fixture_models_pass(self, ws):
        for name in ("M2", "MC2", "Mone", "M3"):
            report = model_axiom_check(ws.model_cats[name])
            assert report.ok, (name, report.render())

    def test_lifting_holds_on_the_iso_pair(self, ws):
        assert model_axiom_check(ws.model_cats["M2"], lifting=True).ok

    def test_missing_identity_label_is_reported(self, ws):
        M = ws.model_cats["MC2"]
        broken = ModelLabeledCat(base=M.base, weq=M.weq - {"id_x"}, cof=M.cof, fib=M.fib)
        report = model_axiom_check(broken)
        assert any(f.rule == "identities_in_class" for f in report.failures())

    def test_unknown_class_member_is_structural(self, ws):
        M = ws.model_cats["MC2"]
        ghostly = ModelLabeledCat(base=M.base, weq=M.weq | {"ghost"}, cof=M.cof, fib=M.fib)
        report = validate_model(ghostly)
        assert [(f.kind, f.rule, f.witnesses, f.detail) for f in report.findings] == [
            ("structural", "class_member_known", ("weq", "ghost"), "unknown morphism")
        ]

    def test_fixture_models_pass_validation(self, ws):
        for name, M in ws.model_cats.items():
            assert validate_model(M).findings == (), name

    def test_two_of_three_violation(self, ws):
        # u and its composite with v are equivalences, v alone is not
        M = ws.model_cats["M2"]
        lop = ModelLabeledCat(base=M.base, weq=M.weq - {"v"}, cof=M.cof, fib=M.fib)
        report = model_axiom_check(lop)
        assert any(f.rule == "two_of_three" for f in report.failures())

    def test_cof_composition_closure(self, ws):
        M = ws.model_cats["MC2"]
        # u: x<y is cof; composing with id keeps it, so break closure on ids
        leaky = ModelLabeledCat(base=M.base, weq=M.weq, cof=M.cof - {"id_y"}, fib=M.fib)
        report = model_axiom_check(leaky)
        rules = {f.rule for f in report.failures()}
        assert "identities_in_class" in rules

    def test_lifting_failure_is_found(self, ws):
        # with x<y both an acyclic cofibration and a fibration, the square
        # it forms against itself needs a retraction y -> x, and the chain
        # has none
        M = ws.model_cats["MC2"]
        wild = ModelLabeledCat(
            base=M.base, weq=M.weq | {"x<y"}, cof=M.cof, fib=M.fib | {"x<y"}
        )
        report = model_axiom_check(wild, lifting=True)
        assert any(f.rule == "lifting_left" for f in report.failures())


class TestEnumeration:
    CASES = [
        ("one", "M2", 2),
        ("chain2", "MC2", 1),
        ("m2", "Mone", 1),
        ("one", "MC2", 0),
    ]

    @pytest.mark.parametrize("source,model,count", CASES)
    def test_hand_counts(self, ws, source, model, count):
        family = enumerate_fes(ws.categories[source], ws.model_cats[model])
        assert len(family.members) == count
        assert not strays(family)

    @pytest.mark.parametrize("source,model,_count", CASES)
    def test_counts_match_brute_force(self, ws, raw, source, model, _count):
        family = enumerate_fes(ws.categories[source], ws.model_cats[model])
        assert len(family.members) == count_fes(raw[source], raw[model])

    def test_self_parametrizations_of_the_iso_pair(self, ws, raw):
        family = enumerate_fes(ws.categories["m2"], ws.model_cats["M2"])
        assert len(family.members) == count_fes(raw["m2"], raw["m2"]) == 4

    def test_two_sources_onto_the_sink(self, ws, raw):
        family = enumerate_fes(ws.categories["m3"], ws.model_cats["M3"])
        assert len(family.members) == count_fes(raw["m3"], raw["m3"]) == 2

    def test_members_are_canonically_ordered_and_named(self, ws):
        family = enumerate_fes(ws.categories["one"], ws.model_cats["M2"])
        assert [f.name for f in family.members] == ["fes0", "fes1"]
        assert family.keys() == tuple(sorted(family.keys()))

    def test_budget_overrun_raises(self, ws):
        with pytest.raises(ResourceBudgetError):
            enumerate_fes(ws.categories["m2"], ws.model_cats["M2"], budget=1)

    def test_seeded_pairs_match_the_oracle_at_the_budget_boundary(self):
        # posets, preorders with isomorphic objects and cyclic groupoids, half
        # of them with composites dropped: the members are the oracle's, and
        # the budget passes at the oracle's raw work and raises one below it
        rng = random.Random(20_261_018)
        for _ in range(200):
            source = rand_small_category(rng, 3, "src", order=3)
            target = rand_small_category(rng, 3, "tgt", order=2)
            if rng.random() < 0.5:
                holes = rng.randrange(3)
                source = source if holes == 1 else drop_composites(rng, source)
                target = target if holes == 0 else drop_composites(rng, target)
            members, work = fes_bruteforce(tables(source), tables(target))
            model = ModelLabeledCat(base=target)
            assert set(enumerate_fes(source, model, budget=work).keys()) == members
            if work:
                with pytest.raises(ResourceBudgetError):
                    enumerate_fes(source, model, budget=work - 1)

    def test_groupoid_onto_its_quotient_group_is_quick(self):
        # 3^10 candidate morphism maps, six of them full and essentially
        # surjective; forward checking prunes nearly all of them early
        start = time.perf_counter()
        source, target = cat_from_doc("src", gen.groupoid(2, 3)), cat_from_doc("tgt", gen.groupoid(1, 3))
        family = enumerate_fes(source, ModelLabeledCat(base=target), budget=10**6)
        assert len(family.members) == 6
        assert time.perf_counter() - start < 2.0

    def test_hom_lookups_do_not_depend_on_the_hash_seed(self):
        # surjectivity tests the image objects in sorted order, so the search
        # makes the same hom lookups, and a traced run the same count, under
        # every hash seed
        script = (
            "from zsite.fincat import FinCat; from zsite.jsonio import load_workspace; "
            "from zsite.modular import enumerate_fes; "
            f"ws = load_workspace({fixture_path('modular.json')!r}); "
            "calls = []; hom = FinCat.hom; "
            "FinCat.hom = lambda self, a, b: calls.append(1) or hom(self, a, b); "
            "enumerate_fes(ws.categories['chain2'], ws.model_cats['MC2']); print(len(calls))"
        )
        counts = [
            subprocess.run(
                [sys.executable, "-c", script], env=cli_env(PYTHONHASHSEED=seed),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert counts[0] == counts[1]


class TestPrecomposition:
    def test_contravariance_against_direct_enumeration(self, ws):
        m2 = ws.categories["m2"]
        family = enumerate_fes(m2, ws.model_cats["M2"])
        swap = ws.functors["swap"]
        pulled = precompose(swap, family)
        # swapping the source permutes the family; the key set is unchanged
        assert set(pulled.keys()) == set(family.keys())
        assert not strays(pulled)

    def test_staged_equals_direct(self, ws):
        family = enumerate_fes(ws.categories["m2"], ws.model_cats["M2"])
        swap, ident = ws.functors["swap"], ws.functors["idm2"]
        staged = precompose(swap, precompose(ident, family))
        direct = precompose(compose_functors(ident, swap), family)
        assert staged.keys() == direct.keys()

    def test_point_into_the_iso_pair_is_accepted(self, ws):
        from zsite.fincat import Functor

        # both objects of the pair are isomorphic, so even a point hits
        # every iso class and fullness is vacuous on singleton homs
        point = Functor(
            name="pt", source=ws.categories["one"], target=ws.categories["m2"],
            object_map={"*": "a"}, morphism_map={"id_*": "id_a"},
        )
        family = enumerate_fes(ws.categories["m2"], ws.model_cats["M2"])
        pulled = precompose(point, family)
        assert not strays(pulled)
        assert len(pulled.members) == len(family.members)

    def test_non_fes_functor_is_refused(self, ws):
        from zsite.fincat import Functor, InputError

        # the chain has no isomorphism between its objects, so a point
        # misses an iso class and essential surjectivity fails; precompose
        # takes G as valid (the command line's gate judges it), and the
        # re-verification of each member still refuses the result
        point = Functor(
            name="pt", source=ws.categories["one"], target=ws.categories["chain2"],
            object_map={"*": "x"}, morphism_map={"id_*": "id_x"},
        )
        family = enumerate_fes(ws.categories["chain2"], ws.model_cats["MC2"])
        with pytest.raises(InputError, match="precomposed member fes0.pt lost fullness or surjectivity"):
            precompose(point, family)

    def test_functors_chain_only_through_the_same_category_object(self):
        from zsite.fincat import Functor, InputError

        # two decodings of one document are equal tables but two categories
        doc = fixture_doc("modular.json")["categories"]["m2"]
        first, second = cat_from_doc("m2", doc), cat_from_doc("m2", doc)
        objects, arrows = {"a": "a", "b": "b"}, {m: m for m in first.morphisms}
        inner = Functor(name="in", source=first, target=first, object_map=objects, morphism_map=arrows)
        outer = Functor(name="out", source=second, target=second, object_map=objects, morphism_map=arrows)
        with pytest.raises(InputError, match="^functors do not chain$"):
            compose_functors(outer, inner)


class TestQuotientLabels:
    def test_class_types_unions_representatives(self, ws):
        # f: A -> B is weq, g: A' -> B is cof; the glued block sees both
        types = class_types(
            ws.model_cats["M3"], ws.partitions["m3p"][1], "[A+A']", "[B]"
        )
        assert types == frozenset({"weq", "cof"})

    def test_class_types_can_be_empty(self, ws):
        types = class_types(
            ws.model_cats["M3"], ws.partitions["m3p"][1], "[B]", "[A+A']"
        )
        assert types == frozenset()

    def test_quotient_model_keeps_axioms_on_the_collapsed_pair(self, ws):
        labeled, report = quotient_model(ws.model_cats["M2"], ws.partitions["mab"][1])
        assert report.ok
        assert sorted(labeled.base.objects) == ["[a+b]"]
        assert labeled.weq == labeled.cof == labeled.fib == frozenset({"[a+b]->[a+b]"})

    def test_unsaturated_quotient_is_rejected_with_the_report(self):
        # two disjoint arrows; gluing the middle objects forges a composable
        # chain [x] -> [y+z] -> [w] whose composite class is uninhabited
        cat = FinCat(
            name="v",
            objects=frozenset({"x", "y", "z", "w"}),
            morphisms={
                "id_x": ("x", "x"), "id_y": ("y", "y"), "id_z": ("z", "z"), "id_w": ("w", "w"),
                "f": ("x", "y"), "g": ("z", "w"),
            },
            identities={"x": "id_x", "y": "id_y", "z": "id_z", "w": "id_w"},
            composition={
                ("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y",
                ("id_z", "id_z"): "id_z", ("id_w", "id_w"): "id_w",
                ("f", "id_x"): "f", ("id_y", "f"): "f",
                ("g", "id_z"): "g", ("id_w", "g"): "g",
            },
        )
        every = frozenset(cat.morphisms)
        M = ModelLabeledCat(base=cat, weq=every, cof=every, fib=every)
        assert model_axiom_check(M).ok
        rel = partition_from_blocks([["x"], ["y", "z"], ["w"]])
        labeled, report = quotient_model(M, rel)
        assert labeled is None
        assert report == quotient_category(cat, rel)[1]
        assert any(f.rule == "quotient_composability" for f in report.failures())

    def test_lawful_quotient_keeps_the_union_labels(self, ws):
        # gluing the weq f with the cof g stays lawful: the merged class
        # morphism simply carries both labels
        M3 = ws.model_cats["M3"]
        rel = partition_from_blocks([["A", "A'"], ["B"]])
        labeled, report = quotient_model(M3, rel)
        assert labeled.base.name == "m3/~"
        assert report.ok
        assert class_types(M3, rel, "[A+A']", "[A+A']") == frozenset({"weq", "fib", "cof"})

    def test_quotient_axiom_failures_are_reported_not_raised(self):
        # base passes two-of-three (each triple has at most one weq), but the
        # glued source block pools f with the weq g and hg with the weq hf,
        # leaving h as the odd leg out of a two-of-three violation
        cat = FinCat(
            name="fan",
            objects=frozenset({"A", "A'", "B", "C"}),
            morphisms={
                "id_A": ("A", "A"), "id_A'": ("A'", "A'"),
                "id_B": ("B", "B"), "id_C": ("C", "C"),
                "f": ("A", "B"), "g": ("A'", "B"), "h": ("B", "C"),
                "hf": ("A", "C"), "hg": ("A'", "C"),
            },
            identities={"A": "id_A", "A'": "id_A'", "B": "id_B", "C": "id_C"},
            composition={
                ("id_A", "id_A"): "id_A", ("id_A'", "id_A'"): "id_A'",
                ("id_B", "id_B"): "id_B", ("id_C", "id_C"): "id_C",
                ("f", "id_A"): "f", ("id_B", "f"): "f",
                ("g", "id_A'"): "g", ("id_B", "g"): "g",
                ("h", "id_B"): "h", ("id_C", "h"): "h",
                ("hf", "id_A"): "hf", ("id_C", "hf"): "hf",
                ("hg", "id_A'"): "hg", ("id_C", "hg"): "hg",
                ("h", "f"): "hf", ("h", "g"): "hg",
            },
        )
        ids = frozenset({"id_A", "id_A'", "id_B", "id_C"})
        M = ModelLabeledCat(base=cat, weq=ids | {"g", "hf"}, cof=ids, fib=ids)
        assert model_axiom_check(M).ok
        labeled, report = quotient_model(M, partition_from_blocks([["A", "A'"], ["B"], ["C"]]))
        assert "[A+A']->[B]" in labeled.weq and "[A+A']->[C]" in labeled.weq
        assert "[B]->[C]" not in labeled.weq
        assert not report.ok
        assert any(f.rule == "two_of_three" for f in report.failures())