"""Regenerate the bundled fixture workspaces under src/zsite/fixtures/.

Every fixture is constructed through the library itself (covering closure,
quotients), its poset categories drawn by ``clibench.gen.thin_category``
through the tests' ``fuzz.thin``, and serialized with sorted keys, so reruns are
byte-identical and the committed files double as golden outputs.  Run from
the repository root:

    python3 tools/build_fixtures.py [OUT_DIR]

OUT_DIR defaults to src/zsite/fixtures/; the test suite builds into a
temporary directory and byte-compares the result with the committed files.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from fuzz import thin
from zsite.fincat import FinCat
from zsite.jsonio import cat_to_doc, load_workspace, zmorphism_to_doc, zobject_to_doc
from zsite.site import CoveringAssignment, generate_covering_assignment
from zsite.zlin import z_morphism, z_object

OUT = ROOT / "src" / "zsite" / "fixtures"


def covering_doc(category: str, assignment: CoveringAssignment) -> dict:
    return {
        "category": category,
        "families": {
            obj: [sorted(f) for f in assignment.families_of(obj)]
            for obj in sorted(assignment.families)
        },
    }


def zmor_doc(category, source, target, terms) -> dict:
    # go through z_morphism so the committed term order is the canonical one
    phi = z_morphism(terms=terms, source=NAMED[source], target=NAMED[target])
    return {"category": category, "source": source, "target": target, "terms": zmorphism_to_doc(phi)["terms"]}


NAMED = {}


def zobj(name, parts):
    NAMED[name] = z_object(parts)
    return zobject_to_doc(NAMED[name])


# ---------------------------------------------------------------------
# poset2: the two-open-set square poset E < P,Q < T
# ---------------------------------------------------------------------


def poset2_cat() -> FinCat:
    return thin(
        "poset2", ["E", "P", "Q", "T"], [("E", "P"), ("E", "Q"), ("P", "T"), ("Q", "T")]
    )


def build_poset2() -> dict:
    cat = poset2_cat()
    K = generate_covering_assignment(cat, {"T": frozenset({frozenset({"P<T", "Q<T"})})})
    blocks = {
        "triv": [["E"], ["P"], ["Q"], ["T"]],
        "ep": [["E", "P"], ["Q"], ["T"]],
        "eq": [["E", "Q"], ["P"], ["T"]],
        "epq": [["E", "P", "Q"], ["T"]],
        "all": [["E", "P", "Q", "T"]],
        "pq": [["P", "Q"], ["E"], ["T"]],
    }
    checks = [
        {"kind": "validate_category", "label": "cat", "category": "poset2"},
        {"kind": "validate_covering", "label": "covering-shape", "covering": "K"},
        {"kind": "grothendieck", "label": "axioms", "covering": "K"},
        {"kind": "validate_partition", "label": "partition-pq", "partition": "pq"},
        {"kind": "quotient", "label": "quotient-pq", "partition": "pq"},
    ]
    for name in ("triv", "ep", "eq", "epq", "all"):
        checks.append({"kind": "gamma", "label": f"gamma-{name}", "partition": name})
        checks.append(
            {"kind": "blurry_probe", "label": f"blurry-{name}", "covering": "K", "partition": name}
        )
    # meets of P and Q fall out of their common block: not product-compatible
    checks.append({"kind": "gamma", "label": "gamma-pq", "partition": "pq", "expect": False})
    return {
        "categories": {"poset2": cat_to_doc(cat)},
        "partitions": {n: {"category": "poset2", "blocks": b} for n, b in blocks.items()},
        "coverings": {"K": covering_doc("poset2", K)},
        "checks": checks,
    }


# ---------------------------------------------------------------------
# etale2: two-component pointed base for point-lifting covers
# ---------------------------------------------------------------------


def etale2_cat() -> FinCat:
    # e1 is a two-point iso onto X1, e2 hits only b, g covers X2,
    # h collapses U1 with no residue-preserving points, m mirrors e1 unmarked
    objs = ["U1", "U2", "X1", "X2"]
    arrows = {"e1": ("U1", "X1"), "e2": ("U2", "X1"), "g": ("U2", "X2"), "h": ("U1", "X2"), "m": ("U1", "X1")}
    morphisms = {f"id_{o}": (o, o) for o in objs} | arrows
    composition = {}
    for o in objs:
        composition[(f"id_{o}", f"id_{o}")] = f"id_{o}"
    for a, (s, t) in arrows.items():
        composition[(a, f"id_{s}")] = a
        composition[(f"id_{t}", a)] = a
    return FinCat(
        name="etale2",
        objects=frozenset(objs),
        morphisms=morphisms,
        identities={o: f"id_{o}" for o in objs},
        composition=composition,
    )


def build_etale2() -> dict:
    cat = etale2_cat()
    base = {
        "category": "etale2",
        "points": {"U1": ["p", "q"], "U2": ["r"], "X1": ["a", "b"], "X2": ["c"]},
        "point_map": {
            "id_U1": {"p": "p", "q": "q"},
            "id_U2": {"r": "r"},
            "id_X1": {"a": "a", "b": "b"},
            "id_X2": {"c": "c"},
            "e1": {"p": "a", "q": "b"},
            "e2": {"r": "b"},
            "g": {"r": "c"},
            "h": {"p": "c", "q": "c"},
            "m": {"p": "a", "q": "b"},
        },
        "residue_preserving": {
            "id_U1": ["p", "q"],
            "id_U2": ["r"],
            "id_X1": ["a", "b"],
            "id_X2": ["c"],
            "e1": ["p", "q"],
            "e2": ["r"],
            "g": ["r"],
            "h": [],
            "m": ["p", "q"],
        },
        "etale": ["id_U1", "id_U2", "id_X1", "id_X2", "e1", "e2", "g", "h"],
    }
    zobjects = {
        "X": zobj("X", [(1, "X1", 2), (2, "X2", 1)]),
        "A12": zobj("A12", [(1, "U1", 2), (2, "U2", 1)]),
        "A22": zobj("A22", [(1, "U2", 2), (2, "U2", 1)]),
        "A11": zobj("A11", [(1, "U1", 2), (2, "U1", 1)]),
        "A21": zobj("A21", [(1, "U2", 2), (2, "U1", 1)]),
    }
    zmorphisms = {
        "psi1": zmor_doc("etale2", "A12", "X", [(1, 1, 2, "e1"), (2, 2, 1, "g")]),
        "psi2": zmor_doc("etale2", "A22", "X", [(1, 1, 2, "e2"), (2, 2, 1, "g")]),
        "psi3": zmor_doc("etale2", "A11", "X", [(1, 1, 2, "e1"), (2, 2, 1, "h")]),
        "psi4": zmor_doc("etale2", "A21", "X", [(1, 1, 2, "e2"), (2, 2, 1, "h")]),
        "psi5": zmor_doc("etale2", "A12", "X", [(1, 1, 2, "m"), (2, 2, 1, "g")]),
    }
    checks = [
        {"kind": "validate_category", "label": "cat", "category": "etale2"},
        {"kind": "validate_pointed_base", "label": "base", "pointed_base": "base"},
    ]
    for n in range(1, 5):
        checks.append({"kind": "z_validate", "label": f"psi{n}-shape", "zmorphism": f"psi{n}"})
    checks += [
        {"kind": "nisnevich", "label": "full-cover", "pointed_base": "base",
         "target": "X", "family": ["psi1"]},
        {"kind": "nisnevich", "label": "joint-cover", "pointed_base": "base",
         "target": "X", "family": ["psi2", "psi3"]},
        {"kind": "nisnevich", "label": "misses-a", "pointed_base": "base",
         "target": "X", "family": ["psi2"], "expect": False},
        {"kind": "nisnevich", "label": "misses-both", "pointed_base": "base",
         "target": "X", "family": ["psi4"], "expect": False},
        {"kind": "component_lemma", "label": "lemma-joint", "pointed_base": "base",
         "target": "X", "family": ["psi2", "psi3"]},
        {"kind": "component_lemma", "label": "lemma-partial", "pointed_base": "base",
         "target": "X", "family": ["psi2"]},
    ]
    return {
        "categories": {"etale2": cat_to_doc(cat)},
        "pointed_bases": {"base": base},
        "zobjects": zobjects,
        "zmorphisms": zmorphisms,
        "checks": checks,
    }


# ---------------------------------------------------------------------
# chain3: A < B < T with the B-cover topology and its distinguished square
# ---------------------------------------------------------------------


def chain3_cat() -> FinCat:
    return thin("chain3", ["A", "B", "T"], [("A", "B"), ("B", "T")])


def build_chain3() -> dict:
    cat = chain3_cat()
    K = generate_covering_assignment(cat, {"T": frozenset({frozenset({"B<T"})})})
    base = {
        "category": "chain3",
        "points": {"A": ["1"], "B": ["1", "2"], "T": ["1", "2"]},
        "point_map": {
            "id_A": {"1": "1"},
            "id_B": {"1": "1", "2": "2"},
            "id_T": {"1": "1", "2": "2"},
            "A<B": {"1": "1"},
            "B<T": {"1": "1", "2": "2"},
            "A<T": {"1": "1"},
        },
        "residue_preserving": {
            "id_A": ["1"],
            "id_B": ["1", "2"],
            "id_T": ["1", "2"],
            "A<B": ["1"],
            "B<T": ["1", "2"],
            "A<T": ["1"],
        },
        "etale": ["id_A", "id_B", "id_T", "A<B", "B<T", "A<T"],
    }
    square = {"category": "chain3", "w_to_v": "A<B", "w_to_u": "id_A", "u_to_x": "A<T", "v_to_x": "B<T"}
    presheaves = {
        # restriction along B<T is a bijection: sheaf, and cartesian on the square
        "glues": {
            "category": "chain3",
            "sections": {"A": ["x"], "B": ["s", "t"], "T": ["s", "t"]},
            "restrictions": {
                "id_A": {"x": "x"},
                "id_B": {"s": "s", "t": "t"},
                "id_T": {"s": "s", "t": "t"},
                "A<B": {"s": "x", "t": "x"},
                "B<T": {"s": "s", "t": "t"},
                "A<T": {"s": "x", "t": "x"},
            },
        },
        # the section t of B is not in the image from T: gluing fails
        "gapped": {
            "category": "chain3",
            "sections": {"A": ["x"], "B": ["s", "t"], "T": ["s"]},
            "restrictions": {
                "id_A": {"x": "x"},
                "id_B": {"s": "s", "t": "t"},
                "id_T": {"s": "s"},
                "A<B": {"s": "x", "t": "x"},
                "B<T": {"s": "s"},
                "A<T": {"s": "x"},
            },
        },
    }
    zobjects = {"zX": zobj("zX", [(1, "B", 2), (2, "A", 1)]), "zT": zobj("zT", [(1, "T", 1)])}
    checks = [
        {"kind": "validate_category", "label": "cat", "category": "chain3"},
        {"kind": "validate_covering", "label": "covering-shape", "covering": "K"},
        {"kind": "grothendieck", "label": "axioms", "covering": "K"},
        {"kind": "validate_pointed_base", "label": "base", "pointed_base": "base"},
        {"kind": "validate_presheaf", "label": "glues-shape", "presheaf": "glues"},
        {"kind": "validate_presheaf", "label": "gapped-shape", "presheaf": "gapped"},
        {"kind": "square", "label": "distinguished", "pointed_base": "base", "square": "sq"},
        {"kind": "sheaf", "label": "glues-sheaf", "presheaf": "glues", "covering": "K"},
        {"kind": "sheaf", "label": "gapped-sheaf", "presheaf": "gapped", "covering": "K",
         "expect": False},
        {"kind": "cartesian", "label": "glues-cartesian", "presheaf": "glues", "square": "sq"},
        {"kind": "cartesian", "label": "gapped-cartesian", "presheaf": "gapped", "square": "sq",
         "expect": False},
        {"kind": "squares_probe", "label": "glues-probe", "presheaf": "glues", "covering": "K",
         "squares": ["sq"]},
        {"kind": "squares_probe", "label": "gapped-probe", "presheaf": "gapped", "covering": "K",
         "squares": ["sq"]},
        {"kind": "additivity", "label": "representable-additive", "category": "chain3",
         "flavor": "tables", "target": "zT", "zobject": "zX"},
        {"kind": "additivity", "label": "constant-not-additive", "category": "chain3",
         "flavor": "constant", "labels": ["u", "v"], "zobject": "zX", "expect": False},
        {"kind": "gamma", "label": "gamma-triv", "partition": "triv"},
        {"kind": "gamma", "label": "gamma-ab", "partition": "ab"},
        {"kind": "blurry_probe", "label": "blurry-triv", "covering": "K", "partition": "triv"},
        {"kind": "blurry_probe", "label": "blurry-ab", "covering": "K", "partition": "ab"},
    ]
    return {
        "categories": {"chain3": cat_to_doc(cat)},
        "coverings": {"K": covering_doc("chain3", K)},
        "pointed_bases": {"base": base},
        "squares": {"sq": square},
        "presheaves": presheaves,
        "partitions": {
            "triv": {"category": "chain3", "blocks": [["A"], ["B"], ["T"]]},
            "ab": {"category": "chain3", "blocks": [["A", "B"], ["T"]]},
        },
        "zobjects": zobjects,
        "checks": checks,
    }


# ---------------------------------------------------------------------
# layered2: poset2 under a chain, with per-level coverings and ladders
# ---------------------------------------------------------------------


def build_layered2() -> dict:
    lower = poset2_cat()
    upper = thin("inner3", ["E'", "P'", "T'"], [("E'", "P'"), ("P'", "T'")])
    K0 = generate_covering_assignment(lower, {"T": frozenset({frozenset({"P<T", "Q<T"})})})
    K1 = generate_covering_assignment(
        upper,
        {"T'": frozenset({frozenset({"P'<T'"})}), "P'": frozenset({frozenset({"E'<P'"})})},
    )
    checks = [
        {"kind": "powered_cover", "label": "top-cover", "layered": "L",
         "ladder": "lad", "coverings": ["K0", "K1"]},
        {"kind": "powered_cover", "label": "mid-cover", "layered": "L",
         "ladder": "lad2", "coverings": ["K0", "K1"]},
        {"kind": "powered_cover", "label": "composite-cover", "layered": "L",
         "ladder": "ladc", "coverings": ["K0", "K1"]},
        {"kind": "powered_stability", "label": "stable-identity", "layered": "L",
         "family": ["lad"], "test": "lid", "coverings": ["K0", "K1"]},
        {"kind": "powered_stability", "label": "stable-corner", "layered": "L",
         "family": ["lad"], "test": "ladc", "coverings": ["K0", "K1"]},
        {"kind": "powered_blurry", "label": "two-level-blurry",
         "layered": "L",
         "levels": [{"covering": "K0", "partition": "ep0"},
                    {"covering": "K1", "partition": "triv1"}],
         "arrows": ["[E+P]->[T]", "[P']->[T']"]},
    ]
    return {
        "categories": {"poset2": cat_to_doc(lower), "inner3": cat_to_doc(upper)},
        "layered": {"L": {"levels": ["poset2", "inner3"],
                          "membership": [{"E'": "E", "P'": "P", "T'": "T"}]}},
        "coverings": {"K0": covering_doc("poset2", K0), "K1": covering_doc("inner3", K1)},
        "ladders": {
            "lad": {"layered": "L", "arrows": ["P<T", "P'<T'"]},
            "lad2": {"layered": "L", "arrows": ["E<P", "E'<P'"]},
            "ladc": {"layered": "L", "arrows": ["E<T", "E'<T'"]},
            "lid": {"layered": "L", "arrows": ["id_T", "id_T'"]},
        },
        "partitions": {
            "ep0": {"category": "poset2", "blocks": [["E", "P"], ["Q"], ["T"]]},
            "triv1": {"category": "inner3", "blocks": [["E'"], ["P'"], ["T'"]]},
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------
# modular: parametrization micro-fixtures with hand-counted enumerations
# ---------------------------------------------------------------------


def one_cat() -> FinCat:
    return FinCat(
        name="one",
        objects=frozenset({"*"}),
        morphisms={"id_*": ("*", "*")},
        identities={"*": "id_*"},
        composition={("id_*", "id_*"): "id_*"},
    )


def m2_cat() -> FinCat:
    # a pair of inverse isomorphisms
    return FinCat(
        name="m2",
        objects=frozenset({"a", "b"}),
        morphisms={"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b"), "v": ("b", "a")},
        identities={"a": "id_a", "b": "id_b"},
        composition={
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("u", "id_a"): "u",
            ("id_b", "u"): "u",
            ("v", "id_b"): "v",
            ("id_a", "v"): "v",
            ("v", "u"): "id_a",
            ("u", "v"): "id_b",
        },
    )


def m3_cat() -> FinCat:
    # two sources mapping into one sink by differently labeled arrows
    objs = ["A", "A'", "B"]
    morphisms = {f"id_{o}": (o, o) for o in objs} | {"f": ("A", "B"), "g": ("A'", "B")}
    composition = {(f"id_{o}", f"id_{o}"): f"id_{o}" for o in objs}
    composition |= {
        ("f", "id_A"): "f",
        ("id_B", "f"): "f",
        ("g", "id_A'"): "g",
        ("id_B", "g"): "g",
    }
    return FinCat(
        name="m3",
        objects=frozenset(objs),
        morphisms=morphisms,
        identities={o: f"id_{o}" for o in objs},
        composition=composition,
    )


def build_modular() -> dict:
    chain2 = thin("chain2", ["x", "y"], [("x", "y")], with_meets=False)
    cats = {"one": one_cat(), "m2": m2_cat(), "chain2": chain2, "m3": m3_cat()}
    model_cats = {
        "M2": {"category": "m2", "weq": ["id_a", "id_b", "u", "v"],
               "cof": ["id_a", "id_b", "u", "v"], "fib": ["id_a", "id_b", "u", "v"]},
        "MC2": {"category": "chain2", "weq": ["id_x", "id_y"],
                "cof": ["id_x", "id_y", "x<y"], "fib": ["id_x", "id_y"]},
        "Mone": {"category": "one", "weq": ["id_*"], "cof": ["id_*"], "fib": ["id_*"]},
        "M3": {"category": "m3", "weq": ["id_A", "id_A'", "id_B", "f"],
               "cof": ["id_A", "id_A'", "id_B", "g"], "fib": ["id_A", "id_A'", "id_B"]},
    }
    functors = {
        "swap": {"source": "m2", "target": "m2",
                 "objects": {"a": "b", "b": "a"},
                 "morphisms": {"id_a": "id_b", "id_b": "id_a", "u": "v", "v": "u"}},
        "idm2": {"source": "m2", "target": "m2",
                 "objects": {"a": "a", "b": "b"},
                 "morphisms": {"id_a": "id_a", "id_b": "id_b", "u": "u", "v": "v"}},
    }
    checks = [
        {"kind": "validate_functor", "label": "swap-functor", "functor": "swap"},
        {"kind": "model_axioms", "label": "axioms-M2", "model": "M2", "lifting": True},
        {"kind": "model_axioms", "label": "axioms-MC2", "model": "MC2"},
        {"kind": "model_axioms", "label": "axioms-M3", "model": "M3"},
        {"kind": "enumerate_fes", "label": "point-into-pair", "source": "one", "model": "M2",
         "expect_count": 2},
        {"kind": "enumerate_fes", "label": "chain-into-chain", "source": "chain2", "model": "MC2",
         "expect_count": 1},
        {"kind": "enumerate_fes", "label": "pair-onto-point", "source": "m2", "model": "Mone",
         "expect_count": 1},
        {"kind": "enumerate_fes", "label": "point-into-chain", "source": "one", "model": "MC2",
         "expect_count": 0},
        {"kind": "precompose", "label": "pullback-chain", "outer": "idm2", "inner": "swap",
         "model": "M2"},
        {"kind": "class_types", "label": "mixed-types", "model": "M3", "partition": "m3p",
         "from_object": "A", "to_object": "B", "expect_types": ["cof", "weq"]},
        {"kind": "quotient_model", "label": "collapse-pair", "model": "M2", "partition": "mab"},
    ]
    return {
        "categories": {n: cat_to_doc(c) for n, c in cats.items()},
        "model_cats": model_cats,
        "functors": functors,
        "partitions": {
            "mab": {"category": "m2", "blocks": [["a", "b"]]},
            "m3p": {"category": "m3", "blocks": [["A", "A'"], ["B"]]},
        },
        "checks": checks,
    }


# ---------------------------------------------------------------------
# fingerprint: graded dimension tables and equivalence verdicts
# ---------------------------------------------------------------------


def build_fingerprint() -> dict:
    return {
        "fingerprints": {
            "tab": {"a": [1, 1], "b": [2], "c": [1, 1], "unit": [1]},
        },
        "zobjects": {
            "fX": zobj("fX", [(1, "a", 2), (2, "b", 1)]),
            "fX2": zobj("fX2", [(1, "c", 2), (2, "b", 1)]),
            "fY": zobj("fY", [(1, "b", -1), (2, "a", 2)]),
        },
        "checks": [
            {"kind": "invariant", "label": "parts", "zobject": "fX", "table": "tab"},
            {"kind": "z_equiv", "label": "same-dims", "left": "fX", "right": "fX2",
             "table": "tab", "expect": True},
            {"kind": "z_equiv", "label": "different-parts", "left": "fX", "right": "fY",
             "table": "tab", "expect": False},
        ],
    }


# ---------------------------------------------------------------------
# zlin: the (2,1)/(2,1) split composition on an explicit five-object base
# ---------------------------------------------------------------------


def zbase_cat() -> FinCat:
    objs = ["X1", "X2", "Y", "Z1", "Z2"]
    arrows = {
        "f1": ("X1", "Y"), "f2": ("X2", "Y"),
        "g1": ("Y", "Z1"), "g2": ("Y", "Z2"),
        "g1f1": ("X1", "Z1"), "g2f1": ("X1", "Z2"),
        "g1f2": ("X2", "Z1"), "g2f2": ("X2", "Z2"),
    }
    morphisms = {f"id_{o}": (o, o) for o in objs} | arrows
    composition = {(f"id_{o}", f"id_{o}"): f"id_{o}" for o in objs}
    for a, (s, t) in arrows.items():
        composition[(a, f"id_{s}")] = a
        composition[(f"id_{t}", a)] = a
    composition |= {
        ("g1", "f1"): "g1f1", ("g2", "f1"): "g2f1",
        ("g1", "f2"): "g1f2", ("g2", "f2"): "g2f2",
    }
    return FinCat(
        name="zbase",
        objects=frozenset(objs),
        morphisms=morphisms,
        identities={o: f"id_{o}" for o in objs},
        composition=composition,
    )


def build_zlin() -> dict:
    cat = zbase_cat()
    zobjects = {
        "src": zobj("src", [(1, "X1", 2), (2, "X2", 1)]),
        "mid": zobj("mid", [(1, "Y", 3)]),
        "tgt": zobj("tgt", [(1, "Z1", 2), (2, "Z2", 1)]),
    }
    zmorphisms = {
        "phi": zmor_doc("zbase", "src", "mid", [(1, 1, 2, "f1"), (2, 1, 1, "f2")]),
        "psi": zmor_doc("zbase", "mid", "tgt", [(1, 1, 2, "g1"), (1, 2, 1, "g2")]),
    }
    checks = [
        {"kind": "validate_category", "label": "cat", "category": "zbase"},
        {"kind": "z_validate", "label": "phi-shape", "zmorphism": "phi"},
        {"kind": "z_validate", "label": "psi-shape", "zmorphism": "psi"},
        {"kind": "z_compose", "label": "split-composite", "outer": "psi", "inner": "phi",
         "expect_terms": [[1, 1, 2, "g1f1"], [2, 2, 1, "g2f2"]]},
    ]
    return {
        "categories": {"zbase": cat_to_doc(cat)},
        "zobjects": zobjects,
        "zmorphisms": zmorphisms,
        "checks": checks,
    }


# ---------------------------------------------------------------------
# failing / malformed: exit-code demonstrations
# ---------------------------------------------------------------------


def build_failing() -> dict:
    chain2 = thin("chain2", ["x", "y"], [("x", "y")], with_meets=False)
    zobjects = {"two": zobj("two", [(1, "x", 2)]), "one": zobj("one", [(1, "y", 1)])}
    return {
        "categories": {"chain2": cat_to_doc(chain2)},
        "zobjects": zobjects,
        # one unit term cannot carry a row of weight two
        "zmorphisms": {"short": {"category": "chain2", "source": "two", "target": "one",
                                 "terms": [[1, 1, 1, "x<y"]]}},
        "checks": [{"kind": "z_validate", "label": "short-shape", "zmorphism": "short"}],
    }


MALFORMED = {
    "categories": {
        "broken": {
            "objects": ["x"],
            "morphisms": {"id_x": ["x"]},
            "identities": {"x": "id_x"},
            "composition": {"id_x|id_x": "id_x"},
        }
    }
}


BUILDERS = {
    "poset2.json": build_poset2,
    "etale2.json": build_etale2,
    "chain3.json": build_chain3,
    "layered2.json": build_layered2,
    "modular.json": build_modular,
    "fingerprint.json": build_fingerprint,
    "zlin.json": build_zlin,
    "failing.json": build_failing,
}


def main() -> int:
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    out.mkdir(parents=True, exist_ok=True)
    for fname, builder in BUILDERS.items():
        doc = builder()
        path = out / fname
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        load_workspace(str(path))  # schema + cross-reference sanity
        print(f"wrote {path}")
    path = out / "malformed.json"
    path.write_text(json.dumps(MALFORMED, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path} (schema-invalid on purpose)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
