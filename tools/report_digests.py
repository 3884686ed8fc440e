"""Digest the CLI's output on the bundled fixtures and a seeded checker sweep.

Runs ``zsite.cli.main`` in-process on each bundled fixture under each
command, once per ``--format``, and writes a JSON object that maps
``"FIXTURE COMMAND FORMAT"`` to the sha256 of the run's exit code, stdout
and stderr.  It adds one ``"sweep CHECKER"`` entry per checker of a seeded
in-process sweep over random poset sites (see ``sweep_outputs``): the
sha256 of every report, result and exception text that checker gave.  The
``"layouts"`` entry is the sha256 of the term layouts of seeded z-composites
(see ``layout_outputs``), and the ``"wide z-compose"`` entry that of the exit
code, stdout and stderr of ``z-compose``, in both formats, on a seeded
workspace of wide sums (see ``wide_workspace``).  Each ``"holed
FIXTURE-CATEGORY COMMAND"`` entry is the sha256 of the exit code, stdout and
stderr of COMMAND, in both formats, on a copy of the fixture whose category
lacks one composite (see ``holed_fixtures``).  Run from the repository
root:

    python3 tools/report_digests.py [OUT]

OUT defaults to tests/report_digests.json.  The test suite recomputes the
digests and compares them with that file, so a byte change in any bundled
report, error line or exit code, in any swept checker's output, or in the
order a composite lays out its terms, fails a test.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import replace  # noqa: E402
from fuzz import (  # noqa: E402
    atom_coupling,
    cyclic_groupoid,
    layered_base,
    narrow_zobj,
    rand_chain,
    rand_poset,
    rand_seeds,
    wide_zobj,
)
from oracles import compose_by_atoms  # noqa: E402
from zsite.blur import blurry_axiom_probe, blurry_topology  # noqa: E402
from zsite.cli import COMMAND_KINDS, main  # noqa: E402
from zsite.fincat import (  # noqa: E402
    Functor,
    InputError,
    ResourceBudgetError,
    block_label,
    chosen_limit_check,
    induced_functor,
    partition_from_blocks,
    quotient_category,
)
from zsite.jsonio import cat_to_doc, zmorphism_to_doc, zobject_to_doc  # noqa: E402
from zsite.modular import ModelLabeledCat, class_types, quotient_model  # noqa: E402
from zsite.site import generate_covering_assignment, grothendieck_axiom_check  # noqa: E402
from zsite.zlin import z_compose, z_morphism  # noqa: E402

FIXTURES = ROOT / "src" / "zsite" / "fixtures"
OUT = ROOT / "tests" / "report_digests.json"

SWEEP_SEED = 20_240_611
SWEEP_CASES = 300
SWEPT = (
    "grothendieck_axiom_check",
    "blurry_axiom_probe",
    "chosen_limit_check",
    "quotient_category",
    "class_types",
    "quotient_model",
    "induced_functor",
)

LAYOUT_SEED = 20_261_018
LAYOUT_CASES = 300
LAYOUT_SHAPES = ((1, 2, 2, 1), (2, 2, 1, 1), (1, 1, 2, 2), (2, 1, 2, 1), (3, 1, 1, 1))

WIDE_SEED = 20_261_019
WIDE_ENDOS = 10


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, ensure_ascii=False).encode("utf-8")).hexdigest()


def digests() -> dict[str, str]:
    result = {}
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command in COMMAND_KINDS:
            for fmt in ("json", "text"):
                result[f"{fixture.name} {command} {fmt}"] = _sha(
                    run([command, str(fixture), "--format", fmt])
                )
    for checker, outputs in sweep_outputs().items():
        result[f"sweep {checker}"] = _sha(outputs)
    result["layouts"] = _sha(layout_outputs())
    result["wide z-compose"] = _sha(wide_outputs())
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in holed_fixtures():
            path = pathlib.Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            for command in COMMAND_KINDS:
                result[f"holed {name} {command}"] = _sha(
                    [run([command, str(path), "--format", fmt]) for fmt in ("json", "text")]
                )
    return result


# =====================================================================
# holed fixtures
# =====================================================================


def holed_fixtures():
    """``("FIXTURE-CATEGORY", workspace)`` per bundled fixture and category.

    The workspace is the fixture with one composite of that category
    deleted: the first in sorted key order whose factors are not both
    identities, so the category fails ``validate_category``.  The malformed
    fixture and categories with no such composite are skipped.
    """
    for fixture in sorted(FIXTURES.glob("*.json")):
        if fixture.name == "malformed.json":
            continue
        doc = json.loads(fixture.read_text(encoding="utf-8"))
        for catname in sorted(doc.get("categories", {})):
            cat = doc["categories"][catname]
            ids = set(cat["identities"].values())
            holes = [k for k in sorted(cat["composition"]) if not set(k.split("|")) <= ids]
            if not holes:
                continue
            holed = json.loads(json.dumps(doc))
            del holed["categories"][catname]["composition"][holes[0]]
            yield f"{fixture.stem}-{catname}", holed


# =====================================================================
# seeded checker sweep
# =====================================================================
#
# Every random choice is drawn from a sorted view: poset_category's dict
# order follows set iteration, so drawing from it directly would make the
# digests depend on PYTHONHASHSEED.


def _outcome(call):
    """Result of ``call()`` or the text of the input error it raised."""
    try:
        return call()
    except (InputError, ResourceBudgetError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _render(value):
    return value.render() if hasattr(value, "render") else value


def _drop(rng: random.Random, table: dict, keep) -> dict:
    """``table`` without one to six random keys among those ``keep`` rejects."""
    candidates = [k for k in sorted(table) if not keep(k)]
    gone = set(rng.sample(candidates, min(len(candidates), rng.randint(1, 6))))
    return {k: v for k, v in table.items() if k not in gone}


def _mutated_covering(rng: random.Random, cat, assignment):
    """The assignment with one random family removed or one random family added."""
    pool = [(obj, fam) for obj in sorted(assignment.families) for fam in assignment.families_of(obj)]
    if pool and rng.random() < 0.5:
        return assignment.without_family(*pool[rng.randrange(len(pool))])
    obj = rng.choice(sorted(cat.objects))
    incoming = list(cat.morphisms_into(obj))
    return assignment.with_family(obj, frozenset(rng.sample(incoming, rng.randint(1, len(incoming)))))


def _partition(rng: random.Random, cat):
    """Random blocks over the sorted objects.

    One in four is the discrete partition; of the rest, one in eight is not a
    partition (an object left out, or in two blocks).
    """
    objs = sorted(cat.objects)
    if rng.random() < 0.25:
        return partition_from_blocks([o] for o in objs)
    k = rng.randint(1, len(objs))
    blocks = [[] for _ in range(k)]
    for obj in objs:
        blocks[rng.randrange(k)].append(obj)
    blocks = [b for b in blocks if b]
    if rng.random() < 0.125:
        if rng.random() < 0.5:
            blocks[0] = blocks[0][1:]
        else:
            blocks.append([rng.choice(objs)])
    return partition_from_blocks(blocks)


def _monotone_map(rng: random.Random, cat) -> dict[str, str]:
    """A random order-preserving object map of a poset category into itself."""
    objs = sorted(cat.objects)
    for _ in range(6):
        omap = {o: rng.choice(objs) for o in objs}
        if all(cat.hom(omap[a], omap[b]) for a, b in (cat.morphisms[m] for m in sorted(cat.morphisms))):
            return omap
    return {o: objs[0] for o in objs} if rng.random() < 0.5 else {o: o for o in objs}


def _poset_functor(cat, omap) -> Functor:
    mmap = {m: cat.hom(omap[a], omap[b])[0] for m, (a, b) in sorted(cat.morphisms.items())}
    return Functor(name="f", source=cat, target=cat, object_map=omap, morphism_map=mmap)


def _labels(rng: random.Random, cat) -> ModelLabeledCat:
    arrows = sorted(cat.morphisms)
    weq, cof, fib = (frozenset(m for m in arrows if rng.random() < 0.5) for _ in range(3))
    return ModelLabeledCat(base=cat, weq=weq, cof=cof, fib=fib)


def _dump_quotient(pair):
    quotient, saturation = pair
    return [
        list(quotient.objects),
        list(quotient.morphisms.items()),
        list(quotient.identities.items()),
        list(quotient.composition.items()),
        saturation.render(),
    ]


def _dump_induced(pair):
    induced, report = pair
    return [list(induced.object_map.items()), list(induced.morphism_map.items()), report.render()]


def _dump_model(pair):
    labeled, report = pair
    return [sorted(labeled.weq), sorted(labeled.cof), sorted(labeled.fib), report.render()]


def sweep_outputs(cases: int = SWEEP_CASES, seed: int = SWEEP_SEED) -> dict[str, list]:
    """Outputs of each swept checker on seeded random poset sites.

    Each case draws a random poset (3-5 objects) and a copy with one to six
    declared pullbacks dropped, and in half the cases one to six
    non-identity composites dropped too.  The covering closure of random seeds on the
    pullback-holed copy, with one family added or removed, is checked on the
    holed copy, sometimes under a budget of 2.  A random partition (one in
    eight invalid) drives the quotient, class-label and induced-functor
    checks, and the blurry probe runs on the unmutated closure, then once per
    class family with that family removed from the quotient assignment.
    """
    rng = random.Random(seed)
    out: dict[str, list] = {name: [] for name in SWEPT}
    for _ in range(cases):
        cat = rand_poset(rng, n_objs=rng.randint(3, 5))
        pulled = replace(cat, pullbacks=_drop(rng, cat.pullbacks, lambda k: False))
        holed = pulled
        if rng.random() < 0.5:
            ids = set(cat.identities.values())
            composition = _drop(rng, cat.composition, lambda k: k[0] in ids or k[1] in ids)
            holed = replace(pulled, composition=composition)
        try:
            closure = generate_covering_assignment(pulled, rand_seeds(rng, cat, 3), budget=400)
        except (InputError, ResourceBudgetError):
            continue
        mutated = _mutated_covering(rng, cat, closure)
        budget = 2 if rng.random() < 0.2 else None
        rel = _partition(rng, cat)
        model = _labels(rng, holed)
        fun = _poset_functor(cat, _monotone_map(rng, cat))

        out["grothendieck_axiom_check"].append(
            _render(_outcome(lambda: grothendieck_axiom_check(holed, mutated, budget)))
        )
        out["chosen_limit_check"].append(_render(chosen_limit_check(holed)))
        out["quotient_category"].append(_outcome(lambda: _dump_quotient(quotient_category(holed, rel))))
        out["quotient_model"].append(_outcome(lambda: _dump_model(quotient_model(model, rel))))
        out["induced_functor"].append(_outcome(lambda: _dump_induced(induced_functor(fun, rel))))
        labels = sorted({block_label(b) for b in rel.blocks}) + ["[ghost]"]
        out["class_types"].append(
            [_outcome(lambda: sorted(class_types(model, rel, a, b))) for a in labels for b in labels]
        )

        site = _outcome(lambda: blurry_topology(pulled, closure, rel))
        if isinstance(site, str):
            out["blurry_axiom_probe"].append(site)
            continue
        out["blurry_axiom_probe"].append(_render(_outcome(lambda: blurry_axiom_probe(site))))
        K = site.quotient_assignment
        for block in sorted(K.families):
            for fam in K.families_of(block):
                broken = replace(site, quotient_assignment=K.without_family(block, fam))
                out["blurry_axiom_probe"].append(_render(_outcome(lambda: blurry_axiom_probe(broken, budget))))
    return out


# =====================================================================
# seeded composite layouts
# =====================================================================


def _layout(phi) -> list:
    """Normal form, then each target component's and source component's terms.

    Terms are (row, col, coefficient, arrow) in the order ``terms_into`` and
    ``terms_out_of`` give them, with no rank numbers, so the entry pins the
    layouts whatever the terms store to keep them.
    """
    def cells(terms):
        return [(t.row, t.col, t.coefficient, t.arrow) for t in terms]

    return [
        list(phi.normal_form()),
        [cells(phi.terms_into(c)) for c in phi.target.indices()],
        [cells(phi.terms_out_of(r)) for r in phi.source.indices()],
    ]


def layout_outputs(cases: int = LAYOUT_CASES, seed: int = LAYOUT_SEED) -> list:
    """Layouts of every composite of seeded composable triples.

    Each case draws a layered thin base and a chain phi, psi, chi from
    ``rand_chain`` (half the cases carry a negative sector), and lays out
    psi.phi, chi.psi and both bracketings of chi.psi.phi.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        base, levels = layered_base(rng.choice(LAYOUT_SHAPES), name="layouts")
        phi, psi, chi = rand_chain(rng, base, levels, length=3)
        inner, outer = z_compose(base, psi, phi), z_compose(base, chi, psi)
        for composite in (
            inner,
            outer,
            z_compose(base, outer, phi),
            z_compose(base, chi, inner),
        ):
            out.append(_layout(composite))
    return out


# =====================================================================
# seeded wide-sum compositions
# =====================================================================


def _wide_cells(phi) -> list:
    return [(r, c, v, a) for r, c, a, v in phi.normal_form()]


def wide_workspace(seed: int = WIDE_SEED) -> dict:
    """A z-compose workspace of wide sums over a cyclic groupoid (3 objects, Z/3).

    W has 16 positive and 16 negative components of mass 8-14; e0..e9 are
    random atom couplings W -> W (about 300 terms each) and p one onto a
    narrower sum V.  Every pair ei.ej and every p.ej is composed with its
    atom-pairing normal form as ``expect_terms`` (one pair, e3.e7, expects
    one term too few).  x is e0 with one atom pair sent across a sign
    boundary, so its marginals hold but a middle mixes signs, and b is e0
    with one coefficient raised, so it fails validation; x.e1, e1.x and
    b.e2 are composed too.
    """
    rng = random.Random(seed)
    base = cyclic_groupoid(3, 3, name="G")
    pool = sorted(base.objects)
    wide = wide_zobj(rng, pool, 16, 16)
    narrow = narrow_zobj(rng, pool, wide, 4)
    maps = {f"e{i}": atom_coupling(rng, base, wide, wide) for i in range(WIDE_ENDOS)}
    maps["p"] = atom_coupling(rng, base, wide, narrow)
    e0 = _wide_cells(maps["e0"])
    pos = [i for i, _o, c in wide.components if c > 0]
    neg = [i for i, _o, c in wide.components if c < 0]
    (r1, r2), c1, c2 = rng.sample(pos, 2), rng.choice(pos), rng.choice(neg)
    obj = {i: o for i, o, _c in wide.components}
    swap = [
        (row, col, v, rng.choice(base.hom(obj[row], obj[col])))
        for row, col, v in ((r1, c2, 1), (r1, c1, -1), (r2, c2, -1), (r2, c1, 1))
    ]
    maps["x"] = z_morphism(wide, wide, e0 + swap)
    row, col, _v, arrow = e0[0]
    maps["b"] = z_morphism(wide, wide, e0 + [(row, col, 1, arrow)])
    pairs = [(f"e{i}", f"e{j}") for i in range(WIDE_ENDOS) for j in range(WIDE_ENDOS)]
    pairs += [("p", f"e{j}") for j in range(WIDE_ENDOS)]
    checks = []
    for outer, inner in pairs:
        expected = [[r, c, v, a] for r, c, a, v in compose_by_atoms(base, maps[outer], maps[inner])]
        if (outer, inner) == ("e3", "e7"):
            expected.pop()
        checks.append({"kind": "z_compose", "label": f"{outer}.{inner}", "outer": outer, "inner": inner,
                       "expect_terms": expected})
    checks += [
        {"kind": "z_compose", "label": f"{outer}.{inner}", "outer": outer, "inner": inner}
        for outer, inner in (("x", "e1"), ("e1", "x"), ("b", "e2"))
    ]
    return {
        "categories": {"G": cat_to_doc(base)},
        "zobjects": {"W": zobject_to_doc(wide), "V": zobject_to_doc(narrow)},
        "zmorphisms": {
            name: {"category": "G", "source": "W", "target": "V" if name == "p" else "W",
                   "terms": zmorphism_to_doc(phi)["terms"]}
            for name, phi in maps.items()
        },
        "checks": checks,
    }


def wide_outputs(seed: int = WIDE_SEED) -> list:
    """Exit code, stdout and stderr of ``z-compose`` on ``wide_workspace``, per format."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "wide.json"
        path.write_text(json.dumps(wide_workspace(seed)), encoding="utf-8")
        return [run(["z-compose", str(path), "--format", fmt]) for fmt in ("json", "text")]


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    out.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
