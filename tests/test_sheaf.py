import random

import pytest

from clibench import gen
from clibench.oracles import Tables, sheaf_verdict
from conftest import assert_rule_fires, drop, fixture_doc, fixture_path, put, raw_presheaf, replace, tables
from fuzz import chain_presheaves, presheaf_on, rand_poset, rand_seeds
from oracles import matching_tuples_product
from zsite.fincat import FinCat
from zsite.jsonio import load_workspace
from zsite.sheaf import (
    Presheaf,
    additivity_check,
    cartesian_square_check,
    constant_z,
    matching_families,
    representable,
    representable_z,
    sheaf_check,
    squares_vs_sheaf_probe,
    validate_presheaf,
)
from zsite.site import CoveringAssignment


@pytest.fixture(scope="module")
def chain3_ws():
    return load_workspace(fixture_path("chain3.json"))


@pytest.fixture(scope="module")
def poset2_ws():
    return load_workspace(fixture_path("poset2.json"))


def collapsing(cat):
    # both sections of T restrict to the single section of B
    return Presheaf(
        name="collapsing",
        cat=cat,
        sections={"A": ("x",), "B": ("s",), "T": ("s", "t")},
        restriction={
            "id_A": {"x": "x"},
            "id_B": {"s": "s"},
            "id_T": {"s": "s", "t": "t"},
            "A<B": {"s": "x"},
            "B<T": {"s": "s", "t": "s"},
            "A<T": {"s": "x", "t": "x"},
        },
    )


class TestSheafCondition:
    def test_fixture_presheaves_validate(self, chain3_ws):
        for name in ("glues", "gapped"):
            assert validate_presheaf(chain3_ws.presheaves[name]).ok

    def test_glues_is_a_sheaf(self, chain3_ws):
        K = chain3_ws.coverings["K"][1]
        assert sheaf_check(chain3_ws.presheaves["glues"], K).ok

    def test_gapped_fails_gluing_with_the_witness_tuple(self, chain3_ws):
        K = chain3_ws.coverings["K"][1]
        report = sheaf_check(chain3_ws.presheaves["gapped"], K)
        gluing = [f for f in report.failures() if f.rule == "gluing"]
        assert gluing
        # the stranded matching family is the section t over B
        assert any("t" in f.witnesses for f in gluing)

    def test_collapsing_fails_separation(self, chain3_ws):
        K = chain3_ws.coverings["K"][1]
        cat = chain3_ws.categories["chain3"]
        report = sheaf_check(collapsing(cat), K)
        assert any(f.rule == "separated" for f in report.failures())

    def test_matching_families_enumeration_matches_the_oracle(self, chain3_ws):
        raw = fixture_doc("chain3.json")
        chain3 = Tables(raw["categories"]["chain3"])
        K = chain3_ws.coverings["K"][1]
        for name in ("glues", "gapped"):
            F = chain3_ws.presheaves[name]
            for obj in sorted(K.families):
                for fam in K.families_of(obj):
                    ours, missing = matching_families(F, fam)
                    assert not missing
                    assert sorted(ours) == sorted(matching_tuples_product(chain3, raw["presheaves"][name], fam))

    def test_representables_are_sheaves_for_meet_covers(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        K = poset2_ws.coverings["K"][1]
        for obj in sorted(cat.objects):
            report = sheaf_check(representable(cat, obj), K)
            assert report.ok, (obj, report.render())

    def test_the_chain_cover_is_finer_than_the_canonical_topology(self, chain3_ws):
        # {B<T} covers T, so a sheaf needs sections over T for every
        # matching family over B; hom(-, B) has none, and every other
        # representable still glues
        cat = chain3_ws.categories["chain3"]
        K = chain3_ws.coverings["K"][1]
        report = sheaf_check(representable(cat, "B"), K)
        assert any(f.rule == "gluing" for f in report.failures())
        for obj in ("A", "T"):
            assert sheaf_check(representable(cat, obj), K).ok

    def test_verdicts_match_brute_force_on_the_small_family(self, chain3_ws):
        raw = fixture_doc("chain3.json")
        chain3, families = Tables(raw["categories"]["chain3"]), raw["coverings"]["K"]["families"]
        K = chain3_ws.coverings["K"][1]
        family = chain_presheaves(chain3_ws.categories["chain3"])
        assert len(family) == 47
        sheaves = 0
        for F in family:
            ours = sheaf_check(F, K).ok
            assert ours == sheaf_verdict(chain3, raw_presheaf(F), families), F.restriction
            sheaves += ours
        assert sheaves == 16

    def test_families_with_an_undeclared_pullback_are_skipped_like_the_oracle(self):
        # random seed families on poset sites with one declared pullback
        # dropped: a family with an undeclared member pullback is
        # unverifiable, so both the checker and the oracle skip it
        rng = random.Random(20_261_024)
        skipped = 0
        for _ in range(300):
            cat = rand_poset(rng, n_objs=rng.randint(3, 5))
            gone = rng.choice(sorted(cat.pullbacks))
            cat = replace(cat, pullbacks={k: v for k, v in cat.pullbacks.items() if k != gone})
            K = rand_seeds(rng, cat, 3)
            objs = sorted(cat.objects)
            points = min(rng.randint(1, 3), len(objs))
            doc = gen.point_presheaf(rng, objs, lambda a, b: bool(cat.hom(a, b)), points, 2, 0.6)
            report = sheaf_check(presheaf_on(cat, doc), CoveringAssignment(K))
            assert report.ok == sheaf_verdict(tables(cat), doc, K), (gone, K)
            skipped += any(f.kind == "unverifiable" for f in report.findings)
        assert skipped == 104


class TestCartesianSquares:
    def test_glues_is_cartesian(self, chain3_ws):
        sq = chain3_ws.squares["sq"][1]
        assert cartesian_square_check(chain3_ws.presheaves["glues"], sq).ok

    def test_gapped_is_not_cartesian(self, chain3_ws):
        sq = chain3_ws.squares["sq"][1]
        report = cartesian_square_check(chain3_ws.presheaves["gapped"], sq)
        assert any(f.rule == "square_surjective" for f in report.failures())

    def test_collapsing_fails_square_injectivity(self, chain3_ws):
        sq = chain3_ws.squares["sq"][1]
        cat = chain3_ws.categories["chain3"]
        report = cartesian_square_check(collapsing(cat), sq)
        assert any(f.rule == "square_injective" for f in report.failures())

    def test_probe_agreement_on_the_exhaustive_family(self, chain3_ws):
        cat = chain3_ws.categories["chain3"]
        K = chain3_ws.coverings["K"][1]
        sq = chain3_ws.squares["sq"][1]
        for F in chain_presheaves(cat):
            report = squares_vs_sheaf_probe(F, K, [sq])
            assert not any(
                f.rule == "squares_sheaf_agreement" for f in report.findings
            ), F.restriction

    def test_probe_records_a_missing_generation_assertion(self, chain3_ws):
        K = chain3_ws.coverings["K"][1]
        sq = chain3_ws.squares["sq"][1]
        report = squares_vs_sheaf_probe(
            chain3_ws.presheaves["glues"], K, [sq], generation_asserted=False
        )
        note = next(f for f in report.findings if f.rule == "generation_assertion")
        assert "no generation assertion" in note.detail

    def test_probe_without_squares_gives_no_verdict(self, chain3_ws):
        # "every declared square is cartesian" holds vacuously on no square,
        # so comparing the sheaf verdict with it would draw a law finding
        # from nothing
        K = chain3_ws.coverings["K"][1]
        for name in ("glues", "gapped"):
            report = squares_vs_sheaf_probe(chain3_ws.presheaves[name], K, [])
            assert [(f.kind, f.rule) for f in report.findings] == [("structural", "squares_declared")]


class TestAdditivity:
    def test_tables_into_a_fixed_sum_are_additive(self, chain3_ws):
        cat = chain3_ws.categories["chain3"]
        zX = chain3_ws.zobjects["zX"]
        zT = chain3_ws.zobjects["zT"]
        report = additivity_check(representable_z(cat, zT), zX)
        assert report.ok, report.render()

    def test_constant_data_is_not_additive_on_a_two_component_sum(self, chain3_ws):
        zX = chain3_ws.zobjects["zX"]
        report = additivity_check(constant_z(["u", "v"]), zX)
        assert any(f.rule == "additivity_surjective" for f in report.failures())

    def test_constant_data_is_additive_on_a_single_component(self, chain3_ws):
        zT = chain3_ws.zobjects["zT"]
        assert additivity_check(constant_z(["u", "v"]), zT).ok

    def test_section_counts_are_reported(self, chain3_ws):
        zX = chain3_ws.zobjects["zX"]
        report = additivity_check(constant_z(["u", "v"]), zX)
        counts = next(f for f in report.findings if f.rule == "section_counts")
        assert counts.witnesses == ("2", "2", "2")


def constant(cat, labels):
    """The constant presheaf: every object carries ``labels``, every arrow acts as the identity."""
    return Presheaf(
        name="constant",
        cat=cat,
        sections={obj: tuple(labels) for obj in cat.objects},
        restriction={m: {s: s for s in labels} for m in cat.morphisms},
    )


def two_legged_cospan():
    """E has two arrows p1, p2 into P; the declared pullbacks of (f, g) and
    (g, f) project to P along different ones, so each ordered pair constrains
    a matching family differently."""
    arrows = {"p1": ("E", "P"), "p2": ("E", "P"), "q": ("E", "Q"), "f": ("P", "T"), "g": ("Q", "T"), "e": ("E", "T")}
    objects = ("E", "P", "Q", "T")
    identities = {o: f"id_{o}" for o in objects}
    morphisms = dict(arrows, **{i: (o, o) for o, i in identities.items()})
    composition = {("f", "p1"): "e", ("f", "p2"): "e", ("g", "q"): "e"}
    for m, (src, tgt) in morphisms.items():
        composition[(m, identities[src])] = m
        composition[(identities[tgt], m)] = m
    cat = FinCat(
        name="cospan2",
        objects=objects,
        morphisms=morphisms,
        identities=identities,
        composition=composition,
        pullbacks={
            ("f", "g"): ("E", "p1", "q"),
            ("g", "f"): ("E", "q", "p2"),
            ("f", "f"): ("P", "id_P", "id_P"),
            ("g", "g"): ("Q", "id_Q", "id_Q"),
        },
    )
    F = Presheaf(
        name="twisted",
        cat=cat,
        sections={"E": ("x", "y"), "P": ("a", "b"), "Q": ("c",), "T": ()},
        restriction={
            "id_E": {"x": "x", "y": "y"},
            "id_P": {"a": "a", "b": "b"},
            "id_Q": {"c": "c"},
            "id_T": {},
            "p1": {"a": "x", "b": "y"},
            "p2": {"a": "y", "b": "x"},
            "q": {"c": "x"},
            "f": {},
            "g": {},
            "e": {},
        },
    )
    return cat, F


class TestMatchingFamilyPruning:
    """Cases whose matching families are a strict subset of the product of
    section sets, so the enumerator has to discard candidates."""

    def test_constant_presheaf_over_a_family_with_a_meet(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        K = poset2_ws.coverings["K"][1]
        F = constant(cat, ("a", "b"))
        assert validate_presheaf(F).ok
        pruned = 0
        for obj in sorted(K.families):
            for fam in K.families_of(obj):
                ours, missing = matching_families(F, fam)
                assert not missing
                want = matching_tuples_product(tables(cat), raw_presheaf(F), fam)
                assert sorted(ours) == sorted(want)
                pruned += 2 ** len(fam) - len(want)
        # {P<T, Q<T} meet in E: only the two constant tuples match
        assert matching_families(F, frozenset({"P<T", "Q<T"}))[0] == (("a", "a"), ("b", "b"))
        assert pruned > 0
        assert sheaf_verdict(tables(cat), raw_presheaf(F), K.families)
        assert sheaf_check(F, K).ok

    def test_both_orders_of_a_pair_constrain_the_family(self):
        cat, F = two_legged_cospan()
        assert validate_presheaf(F).ok
        fam = frozenset({"f", "g"})
        # (f, g) forces the section a over P, (g, f) forces b: nothing matches
        assert matching_tuples_product(tables(cat), raw_presheaf(F), fam) == []
        assert matching_families(F, fam) == ((), [])
        K = CoveringAssignment(families={"T": frozenset({fam})})
        assert sheaf_verdict(tables(cat), raw_presheaf(F), K.families)
        assert sheaf_check(F, K).ok


def _glues(ws):
    return validate_presheaf(ws.presheaves["glues"]).findings


GLUES = ("presheaves", "glues")

# one mutation of the bundled chain3 presheaf per rule: (edits, the finding
# validate_presheaf must give on the loaded copy)
PRESHEAF_RULES = [
    pytest.param(
        [drop(*GLUES, "sections", "A")], ("structural", "sections_declared", ("A",)), id="sections_declared"
    ),
    pytest.param(
        [drop(*GLUES, "restrictions", "A<B")], ("structural", "restriction_declared", ("A<B",)),
        id="restriction_declared",
    ),
    pytest.param(
        [drop(*GLUES, "restrictions", "B<T", "t")], ("structural", "restriction_total", ("B<T", "t")),
        id="restriction_total",
    ),
    pytest.param(
        [put(*GLUES, "restrictions", "B<T", "t", value="ghost")], ("structural", "restriction_range", ("B<T", "t")),
        id="restriction_range",
    ),
    pytest.param(
        [put(*GLUES, "restrictions", "id_A", "y", value="x")], ("structural", "restriction_domain", ("id_A", "y")),
        id="restriction_domain",
    ),
    pytest.param(
        [put(*GLUES, "restrictions", "id_B", value={"s": "t", "t": "s"})],
        ("law", "identity_sections", ("id_B", "s")),
        id="identity_sections",
    ),
    pytest.param(
        # a second section over A that only A<T reaches: F(A<T) no longer
        # factors as F(A<B) after F(B<T)
        [
            put(*GLUES, "sections", "A", value=["x", "y"]),
            put(*GLUES, "restrictions", "id_A", value={"x": "x", "y": "y"}),
            put(*GLUES, "restrictions", "A<T", "s", value="y"),
        ],
        ("law", "contravariance", ("B<T", "A<B", "s")),
        id="contravariance",
    ),
]


@pytest.mark.parametrize("edits,finding", PRESHEAF_RULES)
def test_each_presheaf_rule_fires_on_a_mutated_fixture(tmp_path, edits, finding):
    assert_rule_fires(tmp_path, "chain3.json", edits, _glues, finding)
