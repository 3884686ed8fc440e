"""Digest the CLI's output on the bundled fixtures and a seeded checker sweep.

Runs ``zsite.cli.main`` in-process on each bundled fixture under each
command, once per ``--format``, and writes a JSON object that maps
``"FIXTURE COMMAND FORMAT"`` to the sha256 of the run's exit code, stdout
and stderr.  It adds one ``"sweep CHECKER"`` entry per checker of a seeded
in-process sweep over random poset sites (see ``sweep_outputs``): the
sha256 of every report, result and exception text that checker gave; the
``"sweep enumerate_fes"`` and ``"sweep sheaf_check"`` entries pin the
functor enumeration on seeded category pairs (see ``fes_outputs``) and the
sheaf check on seeded point presheaves (see ``sheaf_outputs``), the
``"closure"`` entry the covering closures of seeded poset sites (see
``closure_outputs``), and the ``"powered"`` entry the powered cover and
stability checks on seeded towers of poset sites (see ``powered_outputs``).
The
``"layouts"`` entry is the sha256 of the term layouts of seeded z-composites
(see ``layout_outputs``), and the ``"wide z-compose"`` entry that of the exit
code, stdout and stderr of ``z-compose``, in both formats, on a seeded
workspace of wide sums (see ``wide_workspace``).  Each ``"holed
FIXTURE-CATEGORY COMMAND"`` entry is the sha256 of the exit code, stdout and
stderr of COMMAND, in both formats, on a copy of the fixture whose category
lacks one composite (see ``holed_fixtures``).  The ``"decode errors"`` entry
is the sha256 of the exit code, stdout and stderr of ``validate`` on a copy
of each bundled fixture with one reference field of one document naming
nothing (see ``dangling_fixtures``).  The ``"invalid inputs"`` entry is the
sha256 of the exit code, stdout and stderr of every command, in both
formats, on eleven schema-valid edits of bundled fixtures whose edited
document fails its own validator (see ``invalid_fixtures``).  Like the
command line, the sweeps call a checker only on documents that pass their
validators: an invalid partition, presheaf or ladder is recorded by its
validator's report instead.  Run from the repository root:

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
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from clibench import gen  # noqa: E402
from clibench.oracles import Tables, compose_by_atoms  # noqa: E402
from conftest import drop, put, replace  # noqa: E402
from fuzz import (  # noqa: E402
    drop_composites,
    layered_base,
    presheaf_on,
    rand_chain,
    rand_poset,
    rand_seeds,
    rand_small_category,
    thin,
    wide_sums,
)
from zsite.blur import blurry_axiom_probe, blurry_topology  # noqa: E402
from zsite.cli import COMMAND_KINDS, main  # noqa: E402
from zsite.fincat import (  # noqa: E402
    DEFAULT_BUDGET,
    Functor,
    InputError,
    ResourceBudgetError,
    block_label,
    chosen_limit_check,
    induced_functor,
    partition_from_blocks,
    quotient_category,
    validate_partition,
)
from zsite.jsonio import _decode, zmorphism_to_doc  # noqa: E402
from zsite.modular import ModelLabeledCat, class_types, enumerate_fes, quotient_model  # noqa: E402
from zsite.sheaf import matching_families, sheaf_check, validate_presheaf  # noqa: E402
from zsite.site import (  # noqa: E402
    CoveringAssignment,
    LadderMorphism,
    LayeredCategory,
    generate_covering_assignment,
    grothendieck_axiom_check,
    powered_cover_check,
    powered_stability_probe,
    validate_ladder,
)
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

FES_SEED = 20_261_020
FES_CASES = 600

SHEAF_SEED = 20_261_021
SHEAF_CASES = 300

LAYOUT_SEED = 20_261_018
LAYOUT_CASES = 300
LAYOUT_SHAPES = ((1, 2, 2, 1), (2, 2, 1, 1), (1, 1, 2, 2), (2, 1, 2, 1), (3, 1, 1, 1))

WIDE_SEED = 20_261_019
WIDE_ENDOS = 10

CLOSURE_SEED = 20_261_022
CLOSURE_CASES = 600
CLOSURE_BUDGETS = (3, 10, 40, 400, 10_000)

POWERED_SEED = 20_261_023
POWERED_CASES = 300

# workspace table -> the fields of its documents that name another document;
# a list field names one per item
REFERENCES = {
    "functors": ("source", "target"),
    "partitions": ("category",),
    "zmorphisms": ("category", "source", "target"),
    "pointed_bases": ("category",),
    "coverings": ("category",),
    "presheaves": ("category",),
    "model_cats": ("category",),
    "squares": ("category",),
    "layered": ("levels",),
    "ladders": ("layered",),
}
DANGLING = "ghost"


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
    result["sweep enumerate_fes"] = _sha(fes_outputs())
    result["sweep sheaf_check"] = _sha(sheaf_outputs())
    result["closure"] = _sha(closure_outputs())
    result["powered"] = _sha(powered_outputs())
    result["layouts"] = _sha(layout_outputs())
    result["wide z-compose"] = _sha(wide_outputs())
    result["decode errors"] = _sha(decode_error_outputs())
    result["invalid inputs"] = _sha(invalid_outputs())
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


def dangling_fixtures():
    """``("FIXTURE TABLE.NAME.FIELD", workspace)`` per reference field of every
    document of every bundled fixture.

    The workspace is the fixture with that field naming ``DANGLING``, which
    no fixture declares; a list field has its first item replaced.
    """
    for fixture in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(fixture.read_text(encoding="utf-8"))
        for table, fields in REFERENCES.items():
            for name in sorted(doc.get(table, {})):
                for field in fields:
                    broken = json.loads(json.dumps(doc))
                    entry = broken[table][name]
                    if isinstance(entry[field], list):
                        entry[field][0] = DANGLING
                    else:
                        entry[field] = DANGLING
                    yield f"{fixture.name} {table}.{name}.{field}", broken


def decode_error_outputs() -> list:
    """Exit code, stdout and stderr of ``validate`` on each ``dangling_fixtures`` workspace."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "dangling.json"
        for label, doc in dangling_fixtures():
            path.write_text(json.dumps(doc), encoding="utf-8")
            out.append([label, *run(["validate", str(path)])])
    return out


# (fixture, label, edit): each edit keeps the workspace schema-valid and makes
# one document fail its validator
INVALID_EDITS = (
    ("zlin.json", "composite", put("categories", "zbase", "composition", "g1|f1", value="g2f1")),
    ("chain3.json", "covering", put("coverings", "K", "families", "T", 0, value=["B<T", "A<B"])),
    ("chain3.json", "square", put("squares", "sq", "w_to_u", value="id_T")),
    ("chain3.json", "presheaf", put("presheaves", "glues", "restrictions", "id_B", "s", value="t")),
    ("layered2.json", "layered", drop("layered", "L", "membership", 0, "E'")),
    ("chain3.json", "partition", put("partitions", "ab", "blocks", value=[["A", "B"]])),
    ("layered2.json", "ladder", put("ladders", "lad", "arrows", value=["E<T", "P'<T'"])),
    ("chain3.json", "identity", drop("categories", "chain3", "identities", "A")),
    ("chain3.json", "right unit", put("categories", "chain3", "composition", "A<B|id_A", value="id_A")),
    ("modular.json", "functor end", drop("categories", "m2", "identities", "a")),
    ("modular.json", "model", put("model_cats", "M2", "weq", value=["id_a", "id_b", "u", "v", "ghost"])),
)


def invalid_fixtures():
    """``("FIXTURE LABEL", workspace)`` per edit of ``INVALID_EDITS``.

    The edited document fails its validator: composite ``g1|f1`` of zbase
    has other endpoints than its factors, covering K gives T a member into
    B, square sq's W-legs ``id_T`` and ``A<B`` start at different objects,
    presheaf glues' identity on B moves a section, layered category L
    maps level 1's object E' to no object of level 0, partition ab leaves
    T in no block, ladder lad's arrows E<T and P'<T' cross L's
    membership map, chain3 gives A no identity, chain3's composite
    ``A<B|id_A`` is ``id_A`` rather than ``A<B``, m2, the target of
    functor swap, gives a no identity, and model category M2 labels the
    unknown morphism ``ghost`` a weak equivalence.
    """
    for fixture, label, edit in INVALID_EDITS:
        doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
        edit(doc)
        yield f"{fixture} {label}", doc


def invalid_outputs() -> list:
    """Exit code, stdout and stderr of every command, per format, on each ``invalid_fixtures`` workspace."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "invalid.json"
        for label, doc in invalid_fixtures():
            path.write_text(json.dumps(doc), encoding="utf-8")
            for command in COMMAND_KINDS:
                runs = [run([command, str(path), "--format", fmt]) for fmt in ("json", "text")]
                out.append([label, command, *runs])
    return out


# =====================================================================
# seeded checker sweep
# =====================================================================
#
# Every random choice is drawn from a sorted view, never from a table's own
# order: a category's tables keep the order its document lists them in,
# which differs between builders, and covering families are frozensets,
# whose order follows PYTHONHASHSEED.


def _outcome(call):
    """Result of ``call()`` or the text of the input error it raised."""
    try:
        return call()
    except (InputError, ResourceBudgetError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _render(value):
    return value.render() if hasattr(value, "render") else value


def _drop(rng: random.Random, table: dict, keep, most: int = 6) -> dict:
    """``table`` without one to ``most`` random keys among those ``keep`` rejects."""
    candidates = [k for k in sorted(table) if not keep(k)]
    gone = set(rng.sample(candidates, min(len(candidates), rng.randint(1, most))))
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
    if labeled is None:
        return report.render()
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
    class family with that family removed from the quotient assignment.  An
    invalid partition is recorded, for each of these checkers, as the
    ``InputError`` text those checkers raised on it when they validated it
    themselves.
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
        budget = 2 if rng.random() < 0.2 else DEFAULT_BUDGET
        rel = _partition(rng, cat)
        model = _labels(rng, holed)
        fun = _poset_functor(cat, _monotone_map(rng, cat))

        out["grothendieck_axiom_check"].append(
            _render(_outcome(lambda: grothendieck_axiom_check(holed, mutated, budget)))
        )
        out["chosen_limit_check"].append(_render(chosen_limit_check(holed)))
        labels = sorted({block_label(b) for b in rel.blocks}) + ["[ghost]"]
        partition = validate_partition(cat, rel)
        if not partition.ok:
            invalid = f"InputError: invalid partition: {partition.render()}"
            for name in ("quotient_category", "quotient_model", "induced_functor", "blurry_axiom_probe"):
                out[name].append(invalid)
            out["class_types"].append([invalid] * len(labels) ** 2)
            continue
        out["quotient_category"].append(_outcome(lambda: _dump_quotient(quotient_category(holed, rel))))
        out["quotient_model"].append(_outcome(lambda: _dump_model(quotient_model(model, rel))))
        out["induced_functor"].append(_outcome(lambda: _dump_induced(induced_functor(fun, rel))))
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
# seeded functor enumeration and sheaf checks
# =====================================================================


def fes_outputs(cases: int = FES_CASES, seed: int = FES_SEED) -> list:
    """Member keys of ``enumerate_fes``, or its error text, on seeded pairs.

    Each case draws a source (up to 4 objects) and a target (up to 3) from
    ``rand_small_category``; in half the cases the source, the target or both
    lose composites.  The budget is drawn from 0 to 60.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        source, target = rand_small_category(rng, 4, "src"), rand_small_category(rng, 3, "tgt")
        if rng.random() < 0.5:
            holes = rng.randrange(3)
            source = source if holes == 1 else drop_composites(rng, source)
            target = target if holes == 0 else drop_composites(rng, target)
        budget = rng.randint(0, 60)
        model = ModelLabeledCat(base=target)
        out.append(_outcome(lambda: list(enumerate_fes(source, model, budget).keys())))
    return out


def _damaged(rng: random.Random, F):
    """``F`` with one restriction entry deleted or sent to another section."""
    entries = [(m, s) for m in sorted(F.restriction) for s in sorted(F.restriction[m])]
    m, s = rng.choice(entries)
    table = dict(F.restriction[m])
    others = [t for t in F.sections_of(F.cat.source(m)) if t != table[s]]
    if others and rng.random() < 0.5:
        table[s] = rng.choice(others)
    else:
        del table[s]
    return replace(F, restriction={**F.restriction, m: table})


def sheaf_outputs(cases: int = SHEAF_CASES, seed: int = SHEAF_SEED) -> list:
    """``sheaf_check`` reports and matching families of seeded point presheaves.

    Each case draws a random poset (3-5 objects) and the covering closure of
    random seeds; in half the cases one to six declared pullbacks are then
    dropped.  A random point presheaf, one in four with one restriction
    entry damaged, is checked against the closure (a presheaf that fails
    ``validate_presheaf`` is recorded by that report instead), and every
    family's matching families and missing pullbacks are recorded.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        cat = rand_poset(rng, n_objs=rng.randint(3, 5))
        try:
            closure = generate_covering_assignment(cat, rand_seeds(rng, cat, 3), budget=400)
        except (InputError, ResourceBudgetError):
            continue
        if rng.random() < 0.5:
            cat = replace(cat, pullbacks=_drop(rng, cat.pullbacks, lambda k: False))
        objs = sorted(cat.objects)
        points = min(rng.randint(1, 3), len(objs))
        doc = gen.point_presheaf(rng, objs, lambda a, b: bool(cat.hom(a, b)), points, 2, 0.6)
        F = presheaf_on(cat, doc)
        if rng.random() < 0.25:
            F = _damaged(rng, F)
        families = [fam for obj in sorted(closure.families) for fam in closure.families_of(obj)]
        shape = validate_presheaf(F)
        out.append([
            _render(_outcome(lambda: sheaf_check(F, closure)) if shape.ok else shape),
            [_outcome(lambda: matching_families(F, fam)) for fam in families],
        ])
    return out


def closure_outputs(cases: int = CLOSURE_CASES, seed: int = CLOSURE_SEED) -> list:
    """Families of ``generate_covering_assignment`` on seeded poset sites, or "raised".

    Each case draws a random poset (3-6 objects) and random seeds; half the
    cases drop one to six declared pullbacks, about a third one to three
    non-identity composites, and the budget is drawn from
    ``CLOSURE_BUDGETS``.  A closure is recorded as its objects' families in
    canonical order; a case that raises InputError or ResourceBudgetError
    is recorded as "raised", whichever of the two it was.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        cat = rand_poset(rng, n_objs=rng.randint(3, 6))
        seeds = rand_seeds(rng, cat, 3)
        if rng.random() < 0.5:
            cat = replace(cat, pullbacks=_drop(rng, cat.pullbacks, lambda k: False))
        if rng.random() < 1 / 3:
            ids = set(cat.identities.values())
            cat = replace(cat, composition=_drop(rng, cat.composition, lambda k: k[0] in ids or k[1] in ids, 3))
        budget = rng.choice(CLOSURE_BUDGETS)
        try:
            closure = generate_covering_assignment(cat, seeds, budget=budget)
        except (InputError, ResourceBudgetError):
            out.append("raised")
            continue
        out.append([
            [obj, [sorted(fam) for fam in closure.families_of(obj)]]
            for obj in sorted(closure.families)
            if closure.families[obj]
        ])
    return out


# =====================================================================
# seeded towers of poset sites
# =====================================================================


def _upper_level(rng: random.Random, lower, name: str):
    """A random poset over ``lower`` and its membership map into ``lower``.

    Each object of ``lower`` gets one or two copies (two only while the
    level stays under six objects), copies of related objects are related
    with probability 0.85 and the two copies of one object with 0.5, so the
    map is order-preserving; in one case of four two copies of unrelated
    objects are related anyway, and in one of eight one copy maps to a
    random object, so some maps are not.
    """
    over = {}
    for obj in sorted(lower.objects):
        for copy in "ab"[: 2 if len(over) < 5 and rng.random() < 0.4 else 1]:
            over[obj + copy] = obj
    objs = sorted(over)
    rels = [(a, b) for a in objs for b in objs if a < b and lower.hom(over[a], over[b]) and rng.random() < 0.85]
    rels += [(obj + "a", obj + "b") for obj in sorted(lower.objects) if obj + "b" in over and rng.random() < 0.5]
    loose = [(a, b) for a in objs for b in objs if a < b and not lower.hom(over[a], over[b])]
    if loose and rng.random() < 0.25:
        rels.append(rng.choice(loose))
    if rng.random() < 1 / 8:
        over[rng.choice(objs)] = rng.choice(sorted(lower.objects))
    return thin(name, objs, rels), over


def _tower_ladder(rng: random.Random, levels, membership, tops) -> LadderMorphism:
    """A random ladder whose top-level arrow is drawn from ``tops``, going
    down the membership maps.

    Each lower level takes the arrow between the images of the level
    above's endpoints when there is one, else a random arrow; one ladder in
    eight has one level replaced by a random arrow, so some ladders cross
    membership.
    """
    arrows = [rng.choice(tops)]
    for n in range(len(levels) - 2, -1, -1):
        upper, lower, mapping = levels[n + 1], levels[n], membership[n]
        hi = arrows[0]
        candidates = sorted(lower.hom(mapping[upper.source(hi)], mapping[upper.target(hi)]))
        arrows.insert(0, rng.choice(candidates) if candidates else rng.choice(sorted(lower.morphisms)))
    if rng.random() < 1 / 8:
        n = rng.randrange(len(levels))
        arrows[n] = rng.choice(sorted(levels[n].morphisms))
    return LadderMorphism(arrows=tuple(arrows))


def _proper_into(cat, obj) -> list:
    """The non-identity arrows into ``obj``, or its identity when there are none."""
    into = sorted(cat.morphisms_into(obj))
    return [m for m in into if m != cat.identities[obj]] or into


def _tower_ladders(rng: random.Random, levels, membership):
    """A family of one to three ladders and a test ladder (see ``_tower_ladder``).

    The family runs into a top-level object with the most non-identity
    arrows into it, and so does the test ladder in four cases of five, three
    times in four from a source unrelated to the first member's.
    """
    top_cat = levels[-1]
    width = {obj: len(_proper_into(top_cat, obj)) for obj in sorted(top_cat.objects)}
    top = rng.choice([obj for obj in width if width[obj] == max(width.values())])
    family = [_tower_ladder(rng, levels, membership, _proper_into(top_cat, top)) for _ in range(rng.randint(1, 3))]
    into = sorted(top_cat.morphisms_into(top if rng.random() < 0.8 else rng.choice(sorted(top_cat.objects))))
    src = top_cat.source(family[0].arrows[-1])
    apart = [m for m in into if not top_cat.hom(src, top_cat.source(m)) and not top_cat.hom(top_cat.source(m), src)]
    return family, _tower_ladder(rng, levels, membership, apart if apart and rng.random() < 0.75 else into)


def _remap_an_apex(rng: random.Random, levels, membership: list, family, test) -> None:
    """In three cases of four, send one declared apex of a member and the test
    ladder above level 0, which is no ladder's source there, to a random
    object of the level below, so that the apex chain may break."""
    apexes = [
        (n, chosen[0])
        for n in range(len(membership))
        for ladder in family
        for chosen in [levels[n + 1].pullbacks.get((ladder.arrows[n + 1], test.arrows[n + 1]))]
        if chosen is not None and chosen[0] not in {levels[n + 1].source(lad.arrows[n + 1]) for lad in family + [test]}
    ]
    if apexes and rng.random() < 0.75:
        n, apex = rng.choice(apexes)
        membership[n] = {**membership[n], apex: rng.choice(sorted(levels[n].objects))}


def _tower_coverings(rng: random.Random, levels, family, test) -> list:
    """Each level's covering closure of random seeds, in nine cases of ten
    with the family's arrows into its first member's target as one more
    seed (the seeds alone when the closure raises); in one case of four one
    family of one level is removed, half the time one of the test ladder's
    source there."""
    assignments = []
    for n, cat in enumerate(levels):
        seeds = rand_seeds(rng, cat, 2)
        if rng.random() < 0.9:
            obj = cat.target(family[0].arrows[n])
            seeds[obj] = seeds.get(obj, frozenset()) | {
                frozenset(m.arrows[n] for m in family if cat.target(m.arrows[n]) == obj)
            }
        try:
            assignments.append(generate_covering_assignment(cat, seeds, budget=400))
        except (InputError, ResourceBudgetError):
            assignments.append(CoveringAssignment(families=seeds))
    if rng.random() < 0.25:
        n = rng.randrange(len(levels))
        K = assignments[n]
        objs = [levels[n].source(test.arrows[n])] if rng.random() < 0.5 else sorted(K.families)
        pool = [(obj, fam) for obj in objs for fam in K.families_of(obj)]
        if pool:
            assignments[n] = K.without_family(*rng.choice(pool))
    return assignments


def powered_outputs(cases: int = POWERED_CASES, seed: int = POWERED_SEED) -> list:
    """``powered_cover_check`` and ``powered_stability_probe`` on seeded towers.

    Each case draws a random poset (3-5 objects) and one or two levels over
    it (see ``_upper_level``), ladders (``_tower_ladders``), possibly a
    broken apex chain (``_remap_an_apex``) and coverings
    (``_tower_coverings``).  Then declared pullbacks are dropped: in about a
    third of the cases the cospan of one member and the test ladder at one
    level, and in a fifth one to six random ones of one level; one test
    ladder in twenty loses its last arrow or has one replaced by an unknown
    id, and one case in ten passes one assignment too few.  Each case
    records the rendered cover report of every ladder and the stability
    report, or the type and text of what either raised; a case with a
    ladder that fails ``validate_ladder`` records the rendered report of
    each such ladder instead.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(cases):
        levels, membership = [rand_poset(rng, n_objs=rng.randint(3, 5), edge_p=0.6, name="L0")], []
        for n in range(1, rng.randint(2, 3)):
            level, over = _upper_level(rng, levels[-1], f"L{n}")
            levels.append(level)
            membership.append(over)
        family, test = _tower_ladders(rng, levels, membership)
        _remap_an_apex(rng, levels, membership, family, test)
        assignments = _tower_coverings(rng, levels, family, test)

        if rng.random() < 1 / 3:
            n = rng.randrange(len(levels))
            cospan = (rng.choice(family).arrows[n], test.arrows[n])
            levels[n] = replace(levels[n], pullbacks={k: v for k, v in levels[n].pullbacks.items() if k != cospan})
        if rng.random() < 0.2:
            n = rng.randrange(len(levels))
            levels[n] = replace(levels[n], pullbacks=_drop(rng, levels[n].pullbacks, lambda k: False))
        if rng.random() < 0.05:
            arrows = list(test.arrows)
            if rng.random() < 0.5:
                arrows.pop()
            else:
                arrows[rng.randrange(len(arrows))] = DANGLING
            test = LadderMorphism(arrows=tuple(arrows))
        if rng.random() < 0.1:
            assignments.pop()

        layered = LayeredCategory(name="L", levels=tuple(levels), membership=tuple(membership))
        invalid = [report for report in (validate_ladder(layered, lad) for lad in family + [test]) if not report.ok]
        if invalid:
            out.append([report.render() for report in invalid])
            continue
        out.append([
            [_render(_outcome(lambda: powered_cover_check(layered, lad, assignments))) for lad in family + [test]],
            _render(_outcome(lambda: powered_stability_probe(layered, family, test, assignments))),
        ])
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


def wide_workspace(seed: int = WIDE_SEED) -> dict:
    """A z-compose workspace of wide sums (``fuzz.wide_sums``).

    W has 16 positive and 16 negative components of mass 8-14; e0..e9 are
    random atom couplings W -> W (about 300 terms each) and p one onto a
    narrower sum V of 4 components per sign.  Every pair ei.ej and every
    p.ej is composed with its atom-pairing normal form as ``expect_terms``
    (one pair, e3.e7, expects one term too few).  x is e0 with one atom pair sent across a sign
    boundary, so its marginals hold but a middle mixes signs, and b is e0
    with one coefficient raised, so it fails validation; x.e1, e1.x and
    b.e2 are composed too.
    """
    rng = random.Random(seed)
    raw = wide_sums(rng, 16, 16, WIDE_ENDOS, 4)
    ws = _decode(raw)
    base, W, wide = ws.categories["G"], ws.zobjects["W"], raw["zobjects"]["W"]["components"]
    terms = {name: doc["terms"] for name, doc in raw["zmorphisms"].items()}
    pos = [i for i, _o, c in wide if c > 0]
    neg = [i for i, _o, c in wide if c < 0]
    (r1, r2), c1, c2 = rng.sample(pos, 2), rng.choice(pos), rng.choice(neg)
    obj = {i: o for i, o, _c in wide}
    swap = [
        (row, col, v, rng.choice(base.hom(obj[row], obj[col])))
        for row, col, v in ((r1, c2, 1), (r1, c1, -1), (r2, c2, -1), (r2, c1, 1))
    ]
    e0 = terms["e0"]
    row, col, _v, arrow = e0[0]
    for name, cells in (("x", e0 + swap), ("b", e0 + [(row, col, 1, arrow)])):
        raw["zmorphisms"][name] = {"category": "G", "source": "W", "target": "W",
                                   "terms": zmorphism_to_doc(z_morphism(W, W, cells))["terms"]}
    comp = Tables(raw["categories"]["G"]).comp
    pairs = [(f"e{i}", f"e{j}") for i in range(WIDE_ENDOS) for j in range(WIDE_ENDOS)]
    pairs += [("p", f"e{j}") for j in range(WIDE_ENDOS)]
    checks = []
    for outer, inner in pairs:
        expected = compose_by_atoms(comp, terms[outer], terms[inner])
        if (outer, inner) == ("e3", "e7"):
            expected.pop()
        checks.append({"kind": "z_compose", "label": f"{outer}.{inner}", "outer": outer, "inner": inner,
                       "expect_terms": expected})
    checks += [
        {"kind": "z_compose", "label": f"{outer}.{inner}", "outer": outer, "inner": inner}
        for outer, inner in (("x", "e1"), ("e1", "x"), ("b", "e2"))
    ]
    return {**raw, "checks": checks}


def wide_outputs(seed: int = WIDE_SEED) -> list:
    """Exit code, stdout and stderr of ``z-compose`` on ``wide_workspace``, per format."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "wide.json"
        path.write_text(json.dumps(wide_workspace(seed)), encoding="utf-8")
        return [run(["z-compose", str(path), "--format", fmt]) for fmt in ("json", "text")]


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    out.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
