import pytest

from conftest import fixture_path, replace
from zsite.blur import (
    blurry_axiom_probe,
    blurry_topology,
    gamma_check,
    powered_blurry_check,
)
from zsite.fincat import FinCat, InputError, partition_from_blocks
from zsite.jsonio import load_workspace
from zsite.site import generate_covering_assignment


@pytest.fixture(scope="module")
def poset2_ws():
    return load_workspace(fixture_path("poset2.json"))


@pytest.fixture(scope="module")
def chain3_ws():
    return load_workspace(fixture_path("chain3.json"))


@pytest.fixture(scope="module")
def layered_ws():
    return load_workspace(fixture_path("layered2.json"))


class TestGamma:
    def test_block_partitions_of_the_square_poset(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        for name in ("triv", "ep", "eq", "epq", "all"):
            report = gamma_check(cat, poset2_ws.partitions[name][1])
            assert report.ok, (name, report.render())

    def test_glueing_the_two_middles_is_incompatible(self, poset2_ws):
        # P x P = P but Q x P = E, and P, E are in different blocks
        cat = poset2_ws.categories["poset2"]
        report = gamma_check(cat, poset2_ws.partitions["pq"][1])
        assert not report.ok
        assert all(f.rule == "product_compat" for f in report.failures())

    def test_missing_products_are_unverifiable_not_failing(self):
        pair = FinCat(
            name="m2",
            objects=frozenset({"a", "b"}),
            morphisms={"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b"), "v": ("b", "a")},
            identities={"a": "id_a", "b": "id_b"},
            composition={
                ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
                ("u", "id_a"): "u", ("id_b", "u"): "u",
                ("v", "id_b"): "v", ("id_a", "v"): "v",
                ("v", "u"): "id_a", ("u", "v"): "id_b",
            },
        )
        rel = partition_from_blocks([["a", "b"]])
        report = gamma_check(pair, rel)
        assert report.ok
        assert report.unverifiable
        assert all(f.rule == "product_compat" for f in report.unverifiable)


class TestBlurryTopology:
    def test_class_families_of_the_ep_quotient(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        K = poset2_ws.coverings["K"][1]
        site = blurry_topology(cat, K, poset2_ws.partitions["ep"][1])
        got = {b: set(site.quotient_assignment.families_of(b)) for b in sorted(site.quotient_assignment.families)}
        # Q's derived family {E<Q, id_Q} crosses blocks: E lands in [E+P]
        assert got == {
            "[E+P]": {frozenset({"[E+P]->[E+P]"})},
            "[Q]": {
                frozenset({"[Q]->[Q]"}),
                frozenset({"[E+P]->[Q]", "[Q]->[Q]"}),
            },
            "[T]": {
                frozenset({"[E+P]->[T]", "[Q]->[T]"}),
                frozenset({"[T]->[T]"}),
            },
        }


class TestBlurryProbe:
    def test_every_compatible_pair_passes(self, poset2_ws, chain3_ws):
        cases = [
            (poset2_ws, "K", ("triv", "ep", "eq", "epq", "all")),
            (chain3_ws, "K", ("triv", "ab")),
        ]
        for ws, kname, rels in cases:
            cat, K = ws.coverings[kname]
            for rel_name in rels:
                site = blurry_topology(cat, K, ws.partitions[rel_name][1])
                report = blurry_axiom_probe(site)
                assert report.ok, (rel_name, report.render())
                assert not any(f.kind == "skipped" for f in report.findings)

    def test_incompatible_partition_downgrades_to_skipped(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        K = poset2_ws.coverings["K"][1]
        site = blurry_topology(cat, K, poset2_ws.partitions["pq"][1])
        report = blurry_axiom_probe(site)
        assert report.ok  # skipped is not a failure
        assert any(f.rule == "gamma_precondition" and f.kind == "skipped" for f in report.findings)

    def test_unclosed_base_assignment_downgrades_to_skipped(self, poset2_ws):
        cat = poset2_ws.categories["poset2"]
        K = poset2_ws.coverings["K"][1]
        broken = K.without_family("P", frozenset({"E<P", "id_P"}))
        site = blurry_topology(cat, broken, poset2_ws.partitions["ep"][1])
        report = blurry_axiom_probe(site)
        assert any(f.rule == "base_axioms_precondition" and f.kind == "skipped" for f in report.findings)

    def _triv_without(self, poset2_ws, block, members):
        cat = poset2_ws.categories["poset2"]
        site = blurry_topology(cat, poset2_ws.coverings["K"][1], poset2_ws.partitions["triv"][1])
        lost = site.quotient_assignment.without_family(block, frozenset(members))
        return replace(site, quotient_assignment=lost)

    def test_lost_identity_class_family_breaks_iso_and_stability(self, poset2_ws):
        report = blurry_axiom_probe(self._triv_without(poset2_ws, "[E]", {"[E]->[E]"}))
        pulled = "pulled-back class family {[E]->[E]} not assigned to [E]"
        assert [(f.kind, f.rule, f.witnesses, f.detail) for f in report.failures()] == [
            ("law", "isoAxiom", ("[E]->[E]",), "class isomorphism's singleton family not assigned"),
            ("law", "pullbackStability", ("[P]", "{[E]->[P],[P]->[P]}", "[E]->[P]"), pulled),
            ("law", "pullbackStability", ("[P]", "{[P]->[P]}", "[E]->[P]"), pulled),
            ("law", "pullbackStability", ("[Q]", "{[E]->[Q],[Q]->[Q]}", "[E]->[Q]"), pulled),
            ("law", "pullbackStability", ("[Q]", "{[Q]->[Q]}", "[E]->[Q]"), pulled),
            ("law", "pullbackStability", ("[T]", "{[E]->[T],[P]->[T],[Q]->[T]}", "[E]->[T]"), pulled),
            ("law", "pullbackStability", ("[T]", "{[P]->[T],[Q]->[T]}", "[E]->[T]"), pulled),
            ("law", "pullbackStability", ("[T]", "{[T]->[T]}", "[E]->[T]"), pulled),
        ]

    def test_lost_refined_class_family_breaks_transitivity(self, poset2_ws):
        # refining {[P]->[T],[Q]->[T]} by the [P] and [Q] families gives the lost one
        site = self._triv_without(poset2_ws, "[T]", {"[E]->[T]", "[P]->[T]", "[Q]->[T]"})
        report = blurry_axiom_probe(site)
        assert [(f.kind, f.rule, f.witnesses, f.detail) for f in report.failures()] == [
            (
                "law",
                "transitivity",
                ("[T]", "{[P]->[T],[Q]->[T]}"),
                "refined class family {[E]->[T],[P]->[T],[Q]->[T]} not assigned",
            ),
        ]

    def test_unsaturated_quotient_downgrades_to_skipped(self):
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
        K = generate_covering_assignment(cat, {})
        rel = partition_from_blocks([["x"], ["y", "z"], ["w"]])
        report = blurry_axiom_probe(blurry_topology(cat, K, rel))
        assert any(f.rule == "quotient_saturation" and f.kind == "skipped" for f in report.findings)


class TestPoweredBlurry:
    def _sites(self, layered_ws):
        lower = layered_ws.categories["poset2"]
        upper = layered_ws.categories["inner3"]
        K0 = layered_ws.coverings["K0"][1]
        K1 = layered_ws.coverings["K1"][1]
        return (
            blurry_topology(lower, K0, layered_ws.partitions["ep0"][1]),
            blurry_topology(upper, K1, layered_ws.partitions["triv1"][1]),
        )

    ARROWS = ["[E+P]->[T]", "[P']->[T']"]

    def test_two_level_class_ladder_covers(self, layered_ws):
        report = powered_blurry_check(self._sites(layered_ws), self.ARROWS, layered=layered_ws.layered["L"])
        assert not any(f.rule in ("level_probe", "loose_level") for f in report.findings)
        assert report.ok, report.render()

    def test_unknown_class_arrow_is_structural(self, layered_ws):
        # block labels sort their members: [P+E] names no block
        report = powered_blurry_check(self._sites(layered_ws), ["[P+E]->[T]", "[P']->[T']"])
        assert any(f.rule == "class_arrow_known" and f.kind == "structural" for f in report.findings)

    def test_ladder_length_must_match_levels(self, layered_ws):
        report = powered_blurry_check(self._sites(layered_ws), ["[E+P]->[T]"])
        assert any(f.rule == "ladder_length" for f in report.failures())

    def test_level_count_must_match_the_layered_category(self, layered_ws):
        with pytest.raises(InputError):
            powered_blurry_check(self._sites(layered_ws)[:1], self.ARROWS[:1], layered=layered_ws.layered["L"])

    def test_loose_level_must_name_a_level(self, layered_ws):
        with pytest.raises(InputError, match=r"loose levels \[-1, 7\] name no level of 2 blurry sites"):
            powered_blurry_check(self._sites(layered_ws), self.ARROWS, loose_levels=[7, -1])

    def test_failing_level_must_be_declared_loose(self, poset2_ws, layered_ws):
        cat = poset2_ws.categories["poset2"]
        K = poset2_ws.coverings["K"][1]
        bad_site = blurry_topology(cat, K, poset2_ws.partitions["pq"][1])
        good_site = self._sites(layered_ws)[1]

        strict = powered_blurry_check([bad_site, good_site], self.ARROWS)
        assert any(f.rule == "level_probe" and f.kind == "skipped" for f in strict.findings)

        loose = powered_blurry_check([bad_site, good_site], self.ARROWS, loose_levels=[0])
        assert any(f.rule == "loose_level" and f.kind == "info" for f in loose.findings)
        assert not any(f.kind == "skipped" for f in loose.findings)
