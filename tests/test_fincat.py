import pytest

from conftest import FIXTURE_NAMES, assert_rule_fires, drop, fixture_path, put
from fuzz import thin
from zsite.fincat import (
    FinCat,
    Functor,
    InputError,
    block_label,
    check_functor,
    chosen_limit_check,
    discrete_partition,
    induced_functor,
    partition_from_blocks,
    push_forward_partition,
    quotient_category,
    validate_category,
    validate_partition,
)
from zsite.jsonio import load_workspace


def square_poset():
    return thin(
        "poset2", ["E", "P", "Q", "T"], [("E", "P"), ("E", "Q"), ("P", "T"), ("Q", "T")]
    )


def test_thin_category_passes_all_checks():
    cat = square_poset()
    assert validate_category(cat).ok
    assert chosen_limit_check(cat).ok


def test_thin_category_declares_meets_as_pullbacks():
    cat = square_poset()
    apex, to_p, to_q = cat.pullbacks[("P<T", "Q<T")]
    assert apex == "E"
    assert cat.source(to_p) == "E" and cat.target(to_p) == "P"
    assert cat.source(to_q) == "E" and cat.target(to_q) == "Q"
    # products mirror the meets
    assert cat.products[("P", "Q")][0] == "E"


def test_missing_composite_is_structural():
    cat = FinCat(
        name="gap",
        objects=frozenset({"x", "y", "z"}),
        morphisms={
            "id_x": ("x", "x"), "id_y": ("y", "y"), "id_z": ("z", "z"),
            "f": ("x", "y"), "g": ("y", "z"),
        },
        identities={"x": "id_x", "y": "id_y", "z": "id_z"},
        composition={
            ("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y", ("id_z", "id_z"): "id_z",
            ("f", "id_x"): "f", ("id_y", "f"): "f",
            ("g", "id_y"): "g", ("id_z", "g"): "g",
            # (g, f) deliberately missing
        },
    )
    report = validate_category(cat)
    assert not report.ok
    assert any(f.rule == "composition_total" for f in report.failures())


def test_wrong_identity_action_is_law_failure():
    cat = FinCat(
        name="twist",
        objects=frozenset({"x"}),
        morphisms={"id_x": ("x", "x"), "e": ("x", "x")},
        identities={"x": "id_x"},
        composition={
            ("id_x", "id_x"): "id_x",
            ("e", "id_x"): "id_x",  # should be e
            ("id_x", "e"): "e",
            ("e", "e"): "id_x",
        },
    )
    report = validate_category(cat)
    assert not report.ok
    assert any(f.rule in ("identity_left", "identity_right") for f in report.failures())


def test_associativity_violation_detected():
    # three parallel endomorphisms with a non-associative table
    comp = {}
    for a in ("id_x", "e", "f"):
        comp[(a, "id_x")] = a
        comp[("id_x", a)] = a
    comp[("e", "e")] = "f"
    comp[("e", "f")] = "id_x"
    comp[("f", "e")] = "e"
    comp[("f", "f")] = "e"
    cat = FinCat(
        name="skew",
        objects=frozenset({"x"}),
        morphisms={"id_x": ("x", "x"), "e": ("x", "x"), "f": ("x", "x")},
        identities={"x": "id_x"},
        composition=comp,
    )
    report = validate_category(cat)
    assert any(f.rule == "associativity" for f in report.failures())


def test_declared_pullback_with_failing_mediator_is_rejected():
    cat = square_poset()
    # claim T itself is the pullback of P<T and Q<T; the true apex E
    # admits no cone through T, so uniqueness-of-mediator fails
    bad = FinCat(
        name="badpb",
        objects=cat.objects,
        morphisms=dict(cat.morphisms),
        identities=dict(cat.identities),
        composition=dict(cat.composition),
        pullbacks={("P<T", "Q<T"): ("T", "id_T", "id_T")},
        products=dict(cat.products),
    )
    shape = validate_category(bad)
    limits = chosen_limit_check(bad)
    assert not (shape.ok and limits.ok)


class TestPartitions:
    def test_partition_must_cover_every_object(self):
        cat = square_poset()
        rel = partition_from_blocks([["P", "Q"], ["T"]])
        report = validate_partition(cat, rel)
        assert not report.ok

    def test_discrete_partition_blocks_are_singletons(self):
        cat = square_poset()
        rel = discrete_partition(cat)
        assert all(len(b) == 1 for b in rel.blocks)
        assert validate_partition(cat, rel).ok

    def test_block_labels_sort_members(self):
        rel = partition_from_blocks([["Q", "P"], ["E"], ["T"]])
        assert rel.block_id("P") == "[P+Q]"
        assert rel.block_id("Q") == "[P+Q]"
        assert block_label(frozenset({"B", "A"})) == "[A+B]"

    def test_same_is_blockwise(self):
        rel = partition_from_blocks([["P", "Q"], ["E"], ["T"]])
        assert rel.same("P", "Q")
        assert not rel.same("P", "E")


class TestQuotient:
    def test_quotient_of_square_poset_is_saturated(self):
        cat = square_poset()
        rel = partition_from_blocks([["P", "Q"], ["E"], ["T"]])
        q, report = quotient_category(cat, rel)
        assert report.ok
        assert q.name == "poset2/~"
        assert sorted(q.objects) == ["[E]", "[P+Q]", "[T]"]
        assert validate_category(q).ok

    def test_quotient_identities_and_arrow_names(self):
        cat = square_poset()
        rel = partition_from_blocks([["P", "Q"], ["E"], ["T"]])
        q, _ = quotient_category(cat, rel)
        assert q.identity("[P+Q]") == "[P+Q]->[P+Q]"
        assert "[E]->[P+Q]" in q.morphisms
        assert "[P+Q]->[T]" in q.morphisms

    def test_unsaturated_quotient_is_reported(self):
        # x -> y, and an unrelated z glued to y: no arrow x -> z exists,
        # so the class arrow [x] -> [y+z] has no composable closure with
        # arrows out of z
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
        rel = partition_from_blocks([["x"], ["y", "z"], ["w"]])
        _q, report = quotient_category(cat, rel)
        assert not report.ok
        assert any(f.rule == "quotient_composability" for f in report.failures())


def swap_functor(cat):
    return Functor(
        name="swap",
        source=cat,
        target=cat,
        object_map={"a": "b", "b": "a"},
        morphism_map={"id_a": "id_b", "id_b": "id_a", "u": "v", "v": "u"},
    )


def iso_pair():
    return FinCat(
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


class TestFunctors:
    def test_swap_is_full_and_es(self):
        cat = iso_pair()
        verdict = check_functor(swap_functor(cat))
        assert verdict.report.ok
        assert verdict.functorial and verdict.full and verdict.essentially_surjective

    def test_collapse_to_one_object_is_es_via_iso(self):
        cat = iso_pair()
        collapse = Functor(
            name="collapse",
            source=cat,
            target=cat,
            object_map={"a": "a", "b": "a"},
            morphism_map={"id_a": "id_a", "id_b": "id_a", "u": "id_a", "v": "id_a"},
        )
        verdict = check_functor(collapse)
        assert verdict.functorial
        # b is isomorphic to a, so the image is essentially everything
        assert verdict.essentially_surjective

    def test_non_functorial_map_flagged(self):
        cat = iso_pair()
        broken = Functor(
            name="broken",
            source=cat,
            target=cat,
            object_map={"a": "a", "b": "b"},
            morphism_map={"id_a": "id_a", "id_b": "id_b", "u": "u", "v": "v"},
        )
        broken.morphism_map["u"] = "u"
        broken.morphism_map["v"] = "u"  # v: b -> a cannot map to u: a -> b
        verdict = check_functor(broken)
        assert not verdict.report.ok

    def test_push_forward_partition_respects_object_map(self):
        cat = iso_pair()
        rel = discrete_partition(cat)
        pushed = push_forward_partition(swap_functor(cat), rel)
        assert pushed.same("a", "a")
        assert not pushed.same("a", "b")

    def test_induced_functor_on_compatible_partitions(self):
        cat = square_poset()
        rel = partition_from_blocks([["P", "Q"], ["E"], ["T"]])
        ident = Functor(
            name="id",
            source=cat,
            target=cat,
            object_map={o: o for o in cat.objects},
            morphism_map={m: m for m in cat.morphisms},
        )
        fun, report = induced_functor(ident, rel)
        assert report.ok
        # the induced map is between quotients, keyed by class labels
        assert fun.object_map["[P+Q]"] == "[P+Q]"
        assert check_functor(fun).functorial


def test_quotient_rejects_partition_of_wrong_objects():
    cat = square_poset()
    rel = partition_from_blocks([["P", "Q"], ["T"]])  # E missing
    with pytest.raises(InputError):
        quotient_category(cat, rel)


def _indexed_categories():
    for name in FIXTURE_NAMES:
        if name != "malformed.json":
            yield from load_workspace(fixture_path(name)).categories.values()
    yield square_poset()
    yield thin("diamond3", ["a", "b", "c", "d", "e"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "e")])


@pytest.mark.parametrize("cat", list(_indexed_categories()), ids=lambda cat: cat.name)
def test_hom_indexes_match_the_sorted_filter(cat):
    ends = set(cat.objects) | {e for pair in cat.morphisms.values() for e in pair} | {"nowhere"}
    for b in sorted(ends):
        assert cat.morphisms_into(b) == tuple(m for m in sorted(cat.morphisms) if cat.morphisms[m][1] == b)
        for a in sorted(ends):
            assert cat.hom(a, b) == tuple(m for m in sorted(cat.morphisms) if cat.morphisms[m] == (a, b))


def _category(ws):
    return validate_category(ws.categories["chain3"]).findings


def _limits(ws):
    return chosen_limit_check(ws.categories["chain3"]).findings


def _swap(ws):
    return check_functor(ws.functors["swap"]).report.findings


CAT = ("categories", "chain3")
SWAP = ("functors", "swap")

# one mutation of a bundled fixture per rule: (fixture, edits, findings of
# the checker on the loaded copy, the finding the edits must produce)
VALIDATOR_RULES = [
    pytest.param(
        "chain3.json", [put(*CAT, "objects", value=["A", "B", "T", "A"])], _category,
        ("structural", "object_ids_unique", ("A",)), id="object_ids_unique",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "morphisms", "A<B", value=["A", "ghost"])], _category,
        ("structural", "morphism_endpoints", ("A<B", "ghost")), id="morphism_endpoints",
    ),
    pytest.param(
        "chain3.json", [drop(*CAT, "identities", "B")], _category,
        ("structural", "identity_total", ("B",)), id="identity_total-missing",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "identities", "B", value="ghost")], _category,
        ("structural", "identity_total", ("B", "ghost")), id="identity_total-unknown",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "identities", "Z", value="id_A")], _category,
        ("structural", "identity_total", ("Z",)), id="identity_total-object",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "identities", "B", value="id_A")], _category,
        ("structural", "identity_endpoints", ("B", "id_A")), id="identity_endpoints",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "composition", "ghost|id_A", value="A<B")], _category,
        ("structural", "composition_refs", ("ghost", "id_A", "ghost")), id="composition_refs",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "composition", "A<B|B<T", value="A<T")], _category,
        ("law", "composition_domain", ("A<B", "B<T")), id="composition_domain",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "composition", "B<T|A<B", value="B<T")], _category,
        ("law", "composite_endpoints", ("B<T", "A<B", "B<T")), id="composite_endpoints",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "composition", "id_B|A<B", value="A<T")], _category,
        ("law", "identity_left", ("A<B",)), id="identity_left",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "products", "A|ghost", value=["A", "id_A", "id_A"])], _limits,
        ("structural", "product_refs", ("A", "ghost", "A")), id="product_refs-factor",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "products", "A|B", value=["A", "id_A", "ghost"])], _limits,
        ("structural", "product_refs", ("A", "B", "A")), id="product_refs-projection",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "products", "A|B", value=["A", "id_A", "id_A"])], _limits,
        ("structural", "product_projections", ("A", "B", "A")), id="product_projections",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "pullbacks", "ghost|B<T", value=["A", "id_A", "A<B"])], _limits,
        ("structural", "pullback_refs", ("ghost", "B<T", "A")), id="pullback_refs-leg",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "pullbacks", "A<T|B<T", value=["A", "id_A", "ghost"])], _limits,
        ("structural", "pullback_refs", ("A<T", "B<T", "A")), id="pullback_refs-projection",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "pullbacks", "A<B|B<T", value=["A", "id_A", "id_A"])], _limits,
        ("structural", "pullback_cospan", ("A<B", "B<T", "A")), id="pullback_cospan",
    ),
    pytest.param(
        "chain3.json", [put(*CAT, "pullbacks", "A<T|B<T", value=["A", "id_A", "id_A"])], _limits,
        ("structural", "pullback_projections", ("A<T", "B<T", "A")), id="pullback_projections",
    ),
    pytest.param(
        "modular.json", [drop(*SWAP, "objects", "a")], _swap,
        ("structural", "object_map_total", ("a",)), id="object_map_total",
    ),
    pytest.param(
        "modular.json", [put(*SWAP, "objects", "a", value="ghost")], _swap,
        ("structural", "object_map_range", ("a", "ghost")), id="object_map_range",
    ),
    pytest.param(
        "modular.json", [drop(*SWAP, "morphisms", "u")], _swap,
        ("structural", "morphism_map_total", ("u",)), id="morphism_map_total",
    ),
    pytest.param(
        "modular.json", [put(*SWAP, "morphisms", "u", value="ghost")], _swap,
        ("structural", "morphism_map_range", ("u", "ghost")), id="morphism_map_range",
    ),
    pytest.param(
        "modular.json", [put(*SWAP, "morphisms", "id_a", value="id_a")], _swap,
        ("law", "identity_preservation", ("a",)), id="identity_preservation",
    ),
]


@pytest.mark.parametrize("fixture,edits,findings,finding", VALIDATOR_RULES)
def test_each_validator_rule_fires_on_a_mutated_fixture(tmp_path, fixture, edits, findings, finding):
    assert_rule_fires(tmp_path, fixture, edits, findings, finding)
