import random

import pytest

from conftest import assert_rule_fires, drop, fixture_path, put, replace
from fuzz import rand_poset, rand_seeds
from oracles import refinements_product
from zsite.fincat import InputError, ResourceBudgetError, poset_category
from zsite.jsonio import load_workspace
from zsite.site import (
    CoveringAssignment,
    LadderMorphism,
    Square,
    compose_ladders,
    distinguished_square_check,
    generate_covering_assignment,
    grothendieck_axiom_check,
    nisnevich_component_lemma_check,
    nisnevich_cover_check,
    powered_cover_check,
    powered_stability_probe,
    refined_families,
    square_endpoint_findings,
    validate_covering,
    validate_ladder,
    validate_layered,
    validate_pointed_base,
)


@pytest.fixture(scope="module")
def poset2_ws():
    return load_workspace(fixture_path("poset2.json"))


@pytest.fixture(scope="module")
def etale2_ws():
    return load_workspace(fixture_path("etale2.json"))


@pytest.fixture(scope="module")
def layered_ws():
    return load_workspace(fixture_path("layered2.json"))


class TestClosure:
    def test_square_poset_closure_families(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        _catname, K = poset2_ws.coverings["K"]
        want = {
            "E": {frozenset({"id_E"})},
            "P": {frozenset({"E<P", "id_P"}), frozenset({"id_P"})},
            "Q": {frozenset({"E<Q", "id_Q"}), frozenset({"id_Q"})},
            "T": {
                frozenset({"P<T", "Q<T"}),
                frozenset({"E<T", "P<T", "Q<T"}),
                frozenset({"id_T"}),
            },
        }
        assert {obj: set(K.families_of(obj)) for obj in sorted(K.families)} == want
        assert validate_covering(cat, K).ok
        assert grothendieck_axiom_check(cat, K).ok

    def test_closure_is_a_fixpoint(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        _catname, K = poset2_ws.coverings["K"]
        again = generate_covering_assignment(cat, dict(K.families))
        assert again.families == K.families

    def test_removing_a_derived_family_breaks_an_axiom(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        _catname, K = poset2_ws.coverings["K"]
        # {E<P, id_P} is forced by base change of the seed along P<T
        mutated = K.without_family("P", frozenset({"E<P", "id_P"}))
        report = grothendieck_axiom_check(cat, mutated)
        assert any(f.rule == "pullbackStability" for f in report.failures())

    def test_removing_an_iso_singleton_breaks_the_iso_axiom(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        _catname, K = poset2_ws.coverings["K"]
        mutated = K.without_family("T", frozenset({"id_T"}))
        report = grothendieck_axiom_check(cat, mutated)
        assert any(f.rule == "isoAxiom" for f in report.failures())

    def test_removing_a_maximal_seed_can_leave_a_smaller_topology(self, poset2_ws):
        # the seed family is implied by nothing else, so dropping it leaves
        # every axiom intact; detection tests must not assume otherwise
        cat = poset2_ws.categories["poset2"]
        _catname, K = poset2_ws.coverings["K"]
        mutated = K.without_family("T", frozenset({"P<T", "Q<T"}))
        assert grothendieck_axiom_check(cat, mutated).ok
        assert generate_covering_assignment(cat, dict(mutated.families)).families == mutated.families

    def test_added_junk_family_is_detected(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        _catname, K = poset2_ws.coverings["K"]
        mutated = K.with_family("T", frozenset({"Q<T"}))
        report = grothendieck_axiom_check(cat, mutated)
        assert not report.ok

    def test_checker_agrees_with_fixpoint_oracle_under_mutation(self):
        # verdict of the axiom checker == "mutated assignment is already
        # closed", decided independently by re-running the closure
        rng = random.Random(2468)
        agreements = 0
        while agreements < 40:
            cat = rand_poset(rng, n_objs=rng.randint(3, 5))
            try:
                K = generate_covering_assignment(cat, rand_seeds(rng, cat))
            except Exception:
                continue
            assert grothendieck_axiom_check(cat, K).ok
            pool = [(o, fam) for o in sorted(K.families) for fam in K.families_of(o)]
            obj, fam = pool[rng.randrange(len(pool))]
            mutated = K.without_family(obj, fam)
            closed = (
                generate_covering_assignment(cat, dict(mutated.families)).families
                == mutated.families
            )
            assert grothendieck_axiom_check(cat, mutated).ok == closed
            agreements += 1

    def test_unknown_seed_morphism_is_rejected(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        from zsite.fincat import InputError

        with pytest.raises(InputError):
            generate_covering_assignment(cat, {"T": frozenset({frozenset({"nope"})})})


class TestPointLifting:
    def test_pointed_base_validates(self, etale2_ws):
        assert validate_pointed_base(etale2_ws.pointed_bases["base"]).ok

    def test_residue_miscomposition_is_reported(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        broken = replace(
            base,
            residue_preserving={**base.residue_preserving, "id_U1": frozenset({"p"})},
        )
        report = validate_pointed_base(broken)
        assert any(f.rule == "residue_composition" for f in report.failures())

    def _family(self, ws, *names):
        return [ws.zmorphisms[n][1] for n in names]

    def test_single_member_full_cover(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        assert nisnevich_cover_check(base, X, self._family(etale2_ws, "psi1")).ok

    def test_two_members_cover_jointly(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        assert nisnevich_cover_check(base, X, self._family(etale2_ws, "psi2", "psi3")).ok

    def test_uncovered_points_are_named(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        report = nisnevich_cover_check(base, X, self._family(etale2_ws, "psi2"))
        missed = {f.witnesses for f in report.failures() if f.rule == "point_covered"}
        assert ("1", "a") in missed

    def test_collapsing_member_covers_nothing_residually(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        report = nisnevich_cover_check(base, X, self._family(etale2_ws, "psi4"))
        missed = {f.witnesses for f in report.failures()}
        assert ("1", "a") in missed and ("2", "c") in missed

    def test_unmarked_arrow_is_structural(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        report = nisnevich_cover_check(base, X, self._family(etale2_ws, "psi5"))
        assert any(
            f.rule == "etale_marked" and f.kind == "structural" for f in report.findings
        )

    def test_component_lemma_agrees_on_every_small_family(self, etale2_ws):
        # the componentwise verdict must equal the whole-object verdict on
        # every subset of the pool with at most two members
        import itertools

        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        pool = self._family(etale2_ws, "psi1", "psi2", "psi3", "psi4", "psi5")
        checked = 0
        for size in (0, 1, 2):
            for family in itertools.combinations(pool, size):
                report = nisnevich_component_lemma_check(base, X, family)
                assert not any(
                    f.rule == "component_lemma_agreement" for f in report.findings
                )
                checked += 1
        assert checked == 1 + 5 + 10

    def test_lemma_report_shows_carriers(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        X = etale2_ws.zobjects["X"]
        report = nisnevich_component_lemma_check(
            base, X, self._family(etale2_ws, "psi2", "psi3")
        )
        infos = {f.rule: f for f in report.findings if f.kind == "info"}
        assert infos["whole_object"].detail == "covers: True"
        assert infos["componentwise"].detail == "covers: True"


@pytest.fixture(scope="module")
def chain3():
    ws = load_workspace(fixture_path("chain3.json"))
    return ws, ws.pointed_bases["base"], ws.squares["sq"][1]


class TestDistinguishedSquares:
    def test_fixture_square_passes(self, chain3):
        _ws, base, sq = chain3
        assert distinguished_square_check(base, sq).ok

    def test_unmarked_etale_leg_fails(self, chain3):
        _ws, base, sq = chain3
        weakened = replace(base, etale_marked=base.etale_marked - {"B<T"})
        report = distinguished_square_check(weakened, sq)
        assert any(f.rule == "etale_leg" for f in report.failures())

    def test_complement_must_be_hit_bijectively(self, chain3):
        _ws, base, sq = chain3
        folded = replace(
            base, point_map={**base.point_map, "B<T": {"1": "1", "2": "1"}}
        )
        report = distinguished_square_check(folded, sq)
        assert any(f.rule == "complement_surjective" for f in report.failures())

    def test_non_injective_open_leg_fails(self, etale2_ws):
        base = etale2_ws.pointed_bases["base"]
        sq = Square(w_to_v="id_U1", w_to_u="id_U1", u_to_x="h", v_to_x="h")
        report = distinguished_square_check(base, sq)
        assert any(f.rule == "open_leg" for f in report.failures())

    def test_non_commuting_square_is_structural(self, chain3):
        _ws, base, _sq = chain3
        bent = Square(w_to_v="id_B", w_to_u="B<T", u_to_x="id_T", v_to_x="id_B")
        report = distinguished_square_check(base, bent)
        assert not report.ok
        assert all(f.kind == "structural" for f in report.failures())


class TestLayered:
    def test_fixture_layers_and_ladders_validate(self, layered_ws):
        L = layered_ws.layered["L"]
        assert validate_layered(L).ok
        for name in ("lad", "lad2", "ladc", "lid"):
            assert validate_ladder(L, layered_ws.ladders[name][1]).ok

    def test_crossed_ladder_breaks_the_chain(self, layered_ws):
        L = layered_ws.layered["L"]
        report = validate_ladder(L, LadderMorphism(arrows=("P<T", "E'<P'")))
        rules = {f.rule for f in report.failures()}
        assert "ladder_source_chain" in rules or "ladder_target_chain" in rules

    def _assignments(self, ws):
        return [ws.coverings["K0"][1], ws.coverings["K1"][1]]

    def test_ladders_cover_levelwise(self, layered_ws):
        L = layered_ws.layered["L"]
        Ks = self._assignments(layered_ws)
        for name in ("lad", "lad2", "ladc", "lid"):
            assert powered_cover_check(L, layered_ws.ladders[name][1], Ks).ok

    def test_trivial_upper_assignment_stops_the_cover(self, layered_ws):
        L = layered_ws.layered["L"]
        upper = L.levels[1]
        iso_only = generate_covering_assignment(upper, {})
        Ks = [self._assignments(layered_ws)[0], iso_only]
        report = powered_cover_check(L, layered_ws.ladders["lad"][1], Ks)
        assert any(f.rule == "level_covering" for f in report.failures())

    def test_ladder_composition_is_levelwise(self, layered_ws):
        L = layered_ws.layered["L"]
        lad = layered_ws.ladders["lad"][1]
        lad2 = layered_ws.ladders["lad2"][1]
        assert compose_ladders(L, lad, lad2) == layered_ws.ladders["ladc"][1]

    def test_stability_along_identity_and_corner(self, layered_ws):
        L = layered_ws.layered["L"]
        Ks = self._assignments(layered_ws)
        fam = [layered_ws.ladders["lad"][1]]
        for test in ("lid", "ladc"):
            report = powered_stability_probe(L, fam, layered_ws.ladders[test][1], Ks)
            assert report.ok, report.render()

    def test_missing_pullback_is_unverifiable(self, layered_ws):
        L = layered_ws.layered["L"]
        Ks = self._assignments(layered_ws)
        fam = [layered_ws.ladders["lad"][1]]
        report = powered_stability_probe(L, fam, layered_ws.ladders["lad2"][1], Ks)
        assert report.ok
        assert any(f.rule == "stability_pullback" for f in report.unverifiable)

    def test_composite_of_covering_ladders_still_covers(self, layered_ws):
        L = layered_ws.layered["L"]
        Ks = self._assignments(layered_ws)
        composite = compose_ladders(
            L, layered_ws.ladders["lad"][1], layered_ws.ladders["lad2"][1]
        )
        assert powered_cover_check(L, composite, Ks).ok


def test_generated_assignment_passes_axioms_on_random_posets():
    rng = random.Random(1357)
    done = 0
    while done < 25:
        cat = rand_poset(rng, n_objs=rng.randint(3, 6))
        try:
            K = generate_covering_assignment(cat, rand_seeds(rng, cat))
        except Exception:
            continue
        report = grothendieck_axiom_check(cat, K)
        assert report.ok, report.render()
        done += 1


class TestRefinementKernel:
    """The member-by-member fold against the walk over every choice tuple."""

    @staticmethod
    def _families(K):
        return [fam for obj in sorted(K.families) for fam in K.families_of(obj)]

    def test_chain3_closure(self):
        ws = load_workspace(fixture_path("chain3.json"))
        cat, (_catname, K) = ws.categories["chain3"], ws.coverings["K"]
        for fam in self._families(K):
            assert refined_families(cat, K, fam) == refinements_product(cat, K, fam)

    def test_random_closures(self):
        rng = random.Random(8642)
        done = 0
        while done < 30:
            cat = rand_poset(rng, n_objs=rng.randint(3, 6), edge_p=0.6)
            try:
                K = generate_covering_assignment(cat, rand_seeds(rng, cat, max_seeds=3))
            except ResourceBudgetError:
                continue
            for fam in self._families(K):
                assert refined_families(cat, K, fam) == refinements_product(cat, K, fam)
            done += 1

    def test_undefined_composites_raise_what_the_product_walk_meets_first(self):
        rng = random.Random(9753)
        raised = 0
        for _ in range(60):
            cat = rand_poset(rng, n_objs=rng.randint(3, 6), edge_p=0.6)
            try:
                K = generate_covering_assignment(cat, rand_seeds(rng, cat, max_seeds=3))
            except ResourceBudgetError:
                continue
            pairs = sorted(cat.composition)
            holes = set(rng.sample(pairs, rng.randint(1, min(4, len(pairs)))))
            holed = replace(cat, composition={k: v for k, v in cat.composition.items() if k not in holes})
            for fam in self._families(K):
                try:
                    want = refinements_product(holed, K, fam)
                except InputError as exc:
                    with pytest.raises(InputError) as got:
                        refined_families(holed, K, fam)
                    assert str(got.value) == str(exc)
                    raised += 1
                else:
                    assert refined_families(holed, K, fam) == want
        assert raised >= 20

    def test_later_members_fail_first_when_every_first_choice_composes(self, poset2_ws):
        # P and Q each refine by {id} first and {E<., id} second; with both
        # second composites missing, the tuple walk fails on the last member
        cat, (_catname, K) = poset2_ws.categories["poset2"], poset2_ws.coverings["K"]
        holes = {("P<T", "E<P"), ("Q<T", "E<Q")}
        holed = replace(cat, composition={k: v for k, v in cat.composition.items() if k not in holes})
        family = frozenset({"P<T", "Q<T"})
        with pytest.raises(InputError, match=r"Q<T after E<Q"):
            refinements_product(holed, K, family)
        with pytest.raises(InputError, match=r"Q<T after E<Q"):
            refined_families(holed, K, family)

    def test_budget_caps_the_partial_unions(self):
        ws = load_workspace(fixture_path("chain3.json"))
        cat, (_catname, K) = ws.categories["chain3"], ws.coverings["K"]
        # id_T refines by either family of T: two partial unions
        assert len(refined_families(cat, K, frozenset({"id_T"}), budget=2)) == 2
        with pytest.raises(ResourceBudgetError, match=r"\{id_T\}"):
            refined_families(cat, K, frozenset({"id_T"}), budget=1)
        with pytest.raises(ResourceBudgetError):
            grothendieck_axiom_check(cat, K, budget=1)


def _pointed(ws):
    return validate_pointed_base(ws.pointed_bases["base"]).findings


def _covering(ws):
    return validate_covering(ws.categories["chain3"], ws.coverings["K"][1]).findings


def _square_sides(ws):
    return square_endpoint_findings(ws.categories["chain3"], ws.squares["sq"][1])


def _layered(ws):
    return validate_layered(ws.layered["L"]).findings


def _ladder(ws):
    return validate_ladder(ws.layered["L"], ws.ladders["lad"][1]).findings


BASE = ("pointed_bases", "base")
SQ = ("squares", "sq")
LAD = ("ladders", "lad", "arrows")

# one mutation of a bundled fixture per rule: (fixture, edits, findings of
# the checker on the loaded copy, the finding the edits must produce)
SITE_RULES = [
    pytest.param(
        "chain3.json", [drop(*BASE, "points", "T")], _pointed,
        ("structural", "points_declared", ("T",)), id="points_declared",
    ),
    pytest.param(
        "chain3.json", [drop(*BASE, "point_map", "A<B")], _pointed,
        ("structural", "point_map_declared", ("A<B",)), id="point_map_declared",
    ),
    pytest.param(
        "chain3.json", [drop(*BASE, "point_map", "B<T", "2")], _pointed,
        ("structural", "point_map_total", ("B<T", "2")), id="point_map_total",
    ),
    pytest.param(
        "chain3.json", [put(*BASE, "point_map", "B<T", "2", value="9")], _pointed,
        ("structural", "point_map_range", ("B<T", "2")), id="point_map_range",
    ),
    pytest.param(
        "chain3.json", [put(*BASE, "point_map", "A<B", "7", value="1")], _pointed,
        ("structural", "point_map_domain", ("A<B", "7")), id="point_map_domain",
    ),
    pytest.param(
        "chain3.json", [put(*BASE, "residue_preserving", "A<B", value=["1", "7"])], _pointed,
        ("structural", "residue_subset", ("A<B", "7")), id="residue_subset",
    ),
    pytest.param(
        "chain3.json", [put(*BASE, "point_map", "id_B", value={"1": "2", "2": "1"})], _pointed,
        ("law", "identity_points", ("id_B", "1")), id="identity_points",
    ),
    pytest.param(
        "chain3.json", [put(*BASE, "point_map", "B<T", value={"1": "2", "2": "1"})], _pointed,
        ("law", "point_functoriality", ("B<T", "A<B", "1")), id="point_functoriality",
    ),
    pytest.param(
        "chain3.json", [put("coverings", "K", "families", "ghost", value=[["id_A"]])], _covering,
        ("structural", "covering_object_known", ("ghost",)), id="covering_object_known",
    ),
    pytest.param(
        "chain3.json", [put("coverings", "K", "families", "T", value=[["A<B"]])], _covering,
        ("structural", "covering_member_target", ("T", "A<B")), id="covering_member_target",
    ),
    pytest.param(
        "chain3.json", [put(*SQ, "w_to_v", value="ghost")], _square_sides,
        ("structural", "square_side_known", ("ghost",)), id="square_side_known",
    ),
    pytest.param(
        "chain3.json", [put(*SQ, "w_to_u", value="id_B")], _square_sides,
        ("structural", "square_apex", ("A<B", "id_B")), id="square_apex",
    ),
    pytest.param(
        "chain3.json", [put(*SQ, "u_to_x", value="A<B")], _square_sides,
        ("structural", "square_base", ("A<B", "B<T")), id="square_base",
    ),
    pytest.param(
        "chain3.json", [put(*SQ, "w_to_v", value="A<T")], _square_sides,
        ("structural", "square_v_side", ("A<T", "B<T")), id="square_v_side",
    ),
    pytest.param(
        "chain3.json", [put(*SQ, "w_to_u", value="A<B")], _square_sides,
        ("structural", "square_u_side", ("A<B", "A<T")), id="square_u_side",
    ),
    pytest.param(
        "chain3.json", [drop("categories", "chain3", "composition", "B<T|A<B")], _square_sides,
        ("structural", "square_commutes", ("A<B", "id_A", "A<T", "B<T")), id="square_commutes",
    ),
    pytest.param(
        "layered2.json", [put("layered", "L", "membership", value=[])], _layered,
        ("structural", "membership_count", ("0",)), id="membership_count",
    ),
    pytest.param(
        "layered2.json", [drop("layered", "L", "membership", 0, "T'")], _layered,
        ("structural", "membership_total", ("1", "T'")), id="membership_total",
    ),
    pytest.param(
        "layered2.json", [put("layered", "L", "membership", 0, "T'", value="ghost")], _layered,
        ("structural", "membership_range", ("1", "T'")), id="membership_range",
    ),
    pytest.param(
        "layered2.json", [put(*LAD, value=["P<T"])], _ladder,
        ("structural", "ladder_length", ("1",)), id="ladder_length",
    ),
    pytest.param(
        "layered2.json", [put(*LAD, 1, value="ghost")], _ladder,
        ("structural", "ladder_arrow_known", ("1", "ghost")), id="ladder_arrow_known",
    ),
    pytest.param(
        "layered2.json", [put(*LAD, value=["E<T", "P'<T'"])], _ladder,
        ("structural", "ladder_source_chain", ("0", "E<T", "P'<T'")), id="ladder_source_chain",
    ),
    pytest.param(
        "layered2.json", [put(*LAD, value=["E<P", "E'<T'"])], _ladder,
        ("structural", "ladder_target_chain", ("0", "E<P", "E'<T'")), id="ladder_target_chain",
    ),
]


@pytest.mark.parametrize("fixture,edits,findings,finding", SITE_RULES)
def test_each_site_validator_rule_fires_on_a_mutated_fixture(tmp_path, fixture, edits, findings, finding):
    assert_rule_fires(tmp_path, fixture, edits, findings, finding)
