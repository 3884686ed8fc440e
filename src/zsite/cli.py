"""Batch command line: load a workspace, run its checks, emit a report.

Subcommands partition the check kinds: validate covers structural checks of
every document, z-compose prints composites, site-check / blur-check /
sheaf-check / parametrize / model-check / fingerprint run their modules'
checks.  One table, ``KINDS``, maps each kind to its command, to the
function that runs it and to whether that function reads ``expect``
itself; ``COMMAND_KINDS`` is derived from it.  Each run function reads its
spec through a ``_Resolver``, which resolves ids in the workspace table of
their role (a row of ``jsonio.DOCUMENTS``), records the documents it read
and the categories they live on and turns a missing or mistyped field into
a WorkspaceError.  Every kind but validate's eleven validator kinds runs its
checker through ``_Resolver.check``, the one gate, which validates the
categories the check read before any other document: a check that read
a category failing its ``_VALIDATORS`` row gets a ``precondition``
finding per such category, else one per other document that fails its
row, instead of the checker's report.  Validate's kinds judge a document
only on categories that pass, so no validator or checker meets a broken
category and none validates its input again.
Each check's entry is encoded as the check ends, and its report dropped;
nothing is written before every check has run, so a WorkspaceError prints
only its ``error:`` line.  Reports are byte-deterministic for identical
inputs (canonical finding order, sorted JSON keys).  Exit status: 0 all
checks pass, 1 some check failed a law, 2 structural trouble (schema
violation, unresolved reference, mistyped spec field, malformed document,
blown enumeration budget).
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring

from . import reports
from .blur import (
    blurry_axiom_probe,
    blurry_topology,
    gamma_check,
    powered_blurry_check,
)
from .fincat import (
    DEFAULT_BUDGET,
    InputError,
    ResourceBudgetError,
    check_functor,
    quotient_category,
    validate_category,
    validate_partition,
)
from .fingerprint import invariant_of, z_equiv
from .jsonio import DOCUMENTS, Workspace, WorkspaceError, load_workspace, zmorphism_to_doc
from .modular import (
    class_types,
    enumerate_fes,
    model_axiom_check,
    precompose,
    quotient_model,
    validate_model,
)
from .reports import Report
from .sheaf import (
    additivity_check,
    cartesian_square_check,
    constant_z,
    representable_z,
    sheaf_check,
    squares_vs_sheaf_probe,
    validate_presheaf,
)
from .site import (
    distinguished_square_check,
    grothendieck_axiom_check,
    nisnevich_component_lemma_check,
    nisnevich_cover_check,
    powered_cover_check,
    powered_stability_probe,
    validate_covering,
    validate_ladder,
    validate_layered,
    validate_pointed_base,
    validate_square,
)
from .zlin import MarginalMismatch, SignIncoherent, z_compose, z_validate

_REQUIRED = object()

# JSON type of a plain field or list item; an untyped list item is an id
_TYPE_NAMES = {object: "id", dict: "object", str: "string", int: "integer", bool: "boolean", list: "list"}


def _is(item, of) -> bool:
    """Whether ``item`` has the JSON type ``of``; a JSON boolean is no integer."""
    return isinstance(item, of) and not (of is int and isinstance(item, bool))


class _Resolver:
    """One check spec, read against the workspace for the check at ``path``.

    Every field is read through a typed accessor: ``id`` resolves an id in
    the table of its role (a row of ``jsonio.DOCUMENTS``), ``value`` and
    ``values`` read plain data and lists of it (of ids by default),
    ``objects`` reads a list of nested specs and ``zobject`` resolves a
    zobject whose components must be objects of a given category.  A
    missing or mistyped field, an unknown id, or inputs on different
    categories raise a WorkspaceError naming the check, which aborts the
    run; what a checker raises on resolved inputs is a finding on that
    check alone.  ``read`` maps "category" to the name and category of
    every category a resolved document lives on, and every other role to
    the names and documents resolved in it; nested resolvers share it.
    ``check`` runs a checker once every category in ``read`` is valid and
    then every other document in it.
    ``verdicts`` is shared by every check of one run and holds the
    validation verdict of each document validated in it.
    """

    def __init__(self, ws: Workspace, spec: dict, path: str, budget: int, verdicts: dict, read: dict):
        self.ws, self.spec, self.path, self.budget = ws, spec, path, budget
        self.verdicts, self.read = verdicts, read

    def error(self, message: str) -> WorkspaceError:
        return WorkspaceError(f"{self.path}: {message}")

    def value(self, field: str, of=object, default=_REQUIRED):
        if field not in self.spec:
            if default is _REQUIRED:
                raise self.error(f"missing field {field!r}")
            return default
        if not _is(self.spec[field], of):
            raise self.error(f"field {field!r} must be of type {_TYPE_NAMES[of]}")
        return self.spec[field]

    def values(self, field: str, of=object, default=_REQUIRED):
        items = self.value(field, default=default)
        if field in self.spec and not (isinstance(items, list) and all(_is(i, of) for i in items)):
            raise self.error(f"field {field!r} must be a list of {_TYPE_NAMES[of]}s")
        return items

    def objects(self, field: str) -> list:
        """The nested specs listed in ``field``, each read like the check's own."""
        return [
            _Resolver(self.ws, item, self.path, self.budget, self.verdicts, self.read)
            for item in self.values(field, dict)
        ]

    def lookup(self, role: str, name):
        entry = self.ws.lookup(role, name, self.path)
        if role != "category":
            self.read.setdefault(role, {})[name] = entry
        for cat in DOCUMENTS[role][3](entry):
            self.read.setdefault("category", {})[cat.name] = cat
        return entry

    def id(self, field: str, role: str | None = None):
        return self.lookup(role or field, self.value(field))

    def report(self, role: str, name: str, entry) -> Report:
        """The ``role`` document ``name``'s validator report; the run keeps
        its verdict.  A document other than a category is judged only once
        every category read so far passes; else _Precondition is raised."""
        if role != "category":
            self.gate("category")
        report = _VALIDATORS[role](entry)
        self.verdicts[role, name] = report.ok
        return report

    def valid(self, role: str, name: str, entry) -> bool:
        """Whether the document passes its role's validator, run at most once per document and run."""
        return self.verdicts[role, name] if (role, name) in self.verdicts else self.report(role, name, entry).ok

    def gate(self, *roles: str) -> None:
        """Raise _Precondition with a finding per document of ``roles`` in ``read`` that fails validation."""
        failing = [
            reports.structural("precondition", (name,), f"{DOCUMENTS[role][1]} fails validation")
            for role in roles
            if role in _VALIDATORS
            for name, entry in self.read.get(role, {}).items()
            if not self.valid(role, name, entry)
        ]
        if failing:
            raise _Precondition(failing)

    def check(self, checker, *args, **kwargs):
        """``checker(*args, **kwargs)`` once every category read so far is
        valid, and then every other document; else raise _Precondition with
        a finding per category that is not, or failing none, per document."""
        self.gate("category")
        self.gate(*self.read)
        return checker(*args, **kwargs)

    def zobject(self, field: str, cat):
        """The zobject named in ``field``, each of whose components must be an object of ``cat``."""
        obj = self.id(field, "zobject")
        for _idx, name, _coeff in obj.components:
            if name not in cat.objects:
                raise self.error(
                    f"zobject {self.value(field)!r} names {name!r}, which is not an object of {cat.name}"
                )
        return obj

    def lives_on(self, a: str, x, b: str, y) -> None:
        """Raise unless ``a``, which lives on the category ``x``, and ``b``, on ``y``, share one."""
        if x is not y:
            raise self.error(f"{a} lives on {x.name}, {b} on {y.name}")


class _Precondition(Exception):
    """A check ends before its checker runs, mostly on invalid documents: its findings."""


def _with_expectation(report: Report, expect) -> Report:
    """Replace a check's pass/fail with 'matched the expected verdict'.

    Law findings of the inner report become informational (they are the
    observed behavior, possibly expected).  A report with a structural
    finding never ran its law, so it is returned unchanged.
    """
    if expect is None or any(f.kind == reports.STRUCTURAL for f in report.findings):
        return report
    observed = report.ok
    rows = [
        reports.info(f"observed.{f.rule}", f.witnesses, f.detail) if f.kind == reports.LAW else f
        for f in report.findings
    ]
    if observed == expect:
        rows.append(reports.info("expected_outcome", (), f"check passed: {observed}, as expected"))
    else:
        rows.append(reports.law("expected_outcome", (), f"expected pass={expect}, observed pass={observed}"))
    return Report.collect(report.subject, rows)


# =====================================================================
# checks that do more than call one checker on resolved inputs
# =====================================================================


def _z_compose(r: _Resolver):
    """The composite's report and, when it is defined, its document."""
    base, outer = r.id("outer", "zmorphism")
    inner_base, inner = r.id("inner", "zmorphism")
    r.lives_on("outer", base, "inner", inner_base)
    names = (r.value("outer"), r.value("inner"))
    try:
        composite = r.check(z_compose, base, outer, inner)
    except (SignIncoherent, MarginalMismatch) as exc:
        return Report.collect("z_compose", [reports.law("compose_defined", names, str(exc))])
    except InputError as exc:
        return Report.collect("z_compose", [reports.structural("compose_inputs", names, str(exc))])
    rows = [reports.info("composite", (), composite.render())]
    doc = zmorphism_to_doc(composite)
    expected = r.values("expect_terms", list, None)
    if expected is not None and expected != doc["terms"]:
        expected, got = [tuple(t) for t in expected], [tuple(t) for t in doc["terms"]]
        rows.append(reports.law("expected_terms", (), f"expected {expected}, got {got}"))
    return Report.collect("z_compose", rows), doc


def _nisnevich_inputs(r: _Resolver):
    base = r.id("pointed_base")
    target = r.zobject("target", base.cat)
    pairs = [r.lookup("zmorphism", name) for name in r.values("family")]
    for pos, (cat, _m) in enumerate(pairs):
        r.lives_on(f"family[{pos}]", cat, "base", base.cat)
    return base, target, [m for _c, m in pairs]


def _square(r: _Resolver):
    base = r.id("pointed_base")
    cat, square = r.id("square")
    r.lives_on("square", cat, "base", base.cat)
    return r.check(distinguished_square_check, base, square)


def _ladder(r: _Resolver, name):
    layered, ladder = r.lookup("ladder", name)
    if layered.name != r.value("layered"):
        raise r.error(f"ladder {name!r} belongs to layered category {layered.name!r}")
    return ladder


def _on_levels(r: _Resolver, field: str, cats, layered) -> None:
    """Raise unless the n-th entry of ``field`` lives on level n, for each n
    below both lengths."""
    for n, (cat, level) in enumerate(zip(cats, layered.levels)):
        r.lives_on(f"{field}[{n}]", cat, f"level {n}", level)


def _coverings(r: _Resolver, layered) -> list:
    entries = [r.lookup("covering", name) for name in r.values("coverings")]
    _on_levels(r, "coverings", [cat for cat, _k in entries], layered)
    return [assignment for _c, assignment in entries]


def _powered_cover(r: _Resolver):
    layered = r.id("layered")
    return r.check(powered_cover_check, layered, _ladder(r, r.value("ladder")), _coverings(r, layered))


def _powered_stability(r: _Resolver):
    layered = r.id("layered")
    family = [_ladder(r, name) for name in r.values("family")]
    test = _ladder(r, r.value("test"))
    return r.check(powered_stability_probe, layered, family, test, _coverings(r, layered))


def _blurry_site(r: _Resolver):
    """The category, covering and partition of a blurry site; ``blurry_topology`` builds it."""
    cat, assignment = r.id("covering")
    rel_cat, rel = r.id("partition")
    r.lives_on("covering", cat, "partition", rel_cat)
    return cat, assignment, rel


def _blurry_probe(r: _Resolver):
    site = _blurry_site(r)
    return r.check(lambda: blurry_axiom_probe(blurry_topology(*site), r.budget))


def _powered_blurry(r: _Resolver):
    levels = [_blurry_site(level) for level in r.objects("levels")]
    layered = r.id("layered") if "layered" in r.spec else None
    if layered is not None:
        _on_levels(r, "levels", [cat for cat, _k, _rel in levels], layered)
    arrows, loose = r.values("arrows", str), r.values("loose", int, ())
    return r.check(
        lambda: powered_blurry_check([blurry_topology(*level) for level in levels], arrows, layered, loose, r.budget)
    )


def _presheaf_and(r: _Resolver, field: str):
    """The presheaf and the ``field`` document, which must live on its category."""
    F = r.id("presheaf")
    cat, doc = r.id(field)
    r.lives_on("presheaf", F.cat, field, cat)
    return F, doc


def _additivity(r: _Resolver):
    base = r.id("category")
    obj = r.zobject("zobject", base)
    flavor = r.value("flavor", default="tables")
    if flavor == "tables":
        zp = representable_z(base, r.zobject("target", base))
    elif flavor == "constant":
        zp = constant_z(r.values("labels", str, ()))
    else:
        raise r.error(f"unknown additivity flavor {flavor!r}")
    return r.check(additivity_check, zp, obj)


def _squares_probe(r: _Resolver):
    F, assignment = _presheaf_and(r, "covering")
    squares = []
    for name in r.values("squares"):
        cat, square = r.lookup("square", name)
        r.lives_on(f"square {name!r}", cat, "presheaf", F.cat)
        squares.append(square)
    asserted = r.value("asserted", bool, True)
    return r.check(squares_vs_sheaf_probe, F, assignment, squares, asserted, r.budget)


def _enumerate_fes(r: _Resolver):
    family = r.check(enumerate_fes, r.id("source", "category"), r.id("model"), budget=r.budget)
    count = len(family.members)
    rows = [reports.info("member_count", (str(count),), "full, essentially surjective functors")]
    for fun in family.members:
        image = ",".join(f"{k}>{v}" for k, v in sorted(fun.object_map.items()))
        rows.append(reports.info("member", (fun.name,), image))
    expected = r.value("expect_count", int, None)
    if expected is not None and count != expected:
        detail = "member count differs from the expected count"
        rows.append(reports.law("expected_count", (str(expected), str(count)), detail))
    return Report.collect("enumerate_fes", rows)


def _precompose(r: _Resolver):
    inner = r.id("inner", "functor")
    outer = r.id("outer", "functor")
    model = r.id("model")
    if outer.target is not model.base:
        raise r.error("outer functor must land in the model's base")
    if inner.target is not outer.source:
        raise r.error("inner functor must land in the outer functor's source")
    family = r.check(enumerate_fes, outer.target, model, budget=r.budget)
    pulled = precompose(inner, precompose(outer, family))
    rows = [
        reports.info("family_size", (str(len(family.members)),), "parametrizations of the model"),
        reports.info("pulled_size", (str(len(pulled.members)),), "after precomposition"),
    ]
    return Report.collect("precompose", rows)


def _model_and_partition(r: _Resolver):
    model = r.id("model")
    cat, rel = r.id("partition")
    r.lives_on("partition", cat, "model", model.base)
    return model, rel


def _class_types(r: _Resolver):
    model, rel = _model_and_partition(r)
    source, target = r.value("from_object", str), r.value("to_object", str)
    types = r.check(lambda: class_types(model, rel, rel.block_id(source), rel.block_id(target)))
    rows = [reports.info("types", tuple(sorted(types)), "labels carried by representatives")]
    expected = r.values("expect_types", str, None)
    if expected is not None and frozenset(expected) != types:
        rows.append(reports.law("expected_types", tuple(sorted(expected)), f"observed {sorted(types)}"))
    return Report.collect("class_types", rows)


def _fingerprinted(r: _Resolver, *fields) -> tuple:
    """The zobjects named in ``fields`` and the spec's fingerprint table.
    Raise _Precondition with a ``fingerprint_known`` finding on the first
    base object without a fingerprint, field by field in component order."""
    objs, table = [r.id(field, "zobject") for field in fields], r.id("table")
    missing = next((name for obj in objs for _idx, name, _coeff in obj.components if name not in table), None)
    if missing is not None:
        detail = f"no fingerprint for base object {missing}"
        raise _Precondition([reports.structural("fingerprint_known", (missing,), detail)])
    return (*objs, table)


def _invariant(r: _Resolver):
    inv = r.check(invariant_of, *_fingerprinted(r, "zobject"))
    rows = [
        reports.info("part", (str(idx), str(coeff)), f"dims {list(dims.dims)}")
        for idx, coeff, dims in inv.parts
    ]
    return Report.collect("invariant", rows)


def _z_equiv(r: _Resolver):
    verdict = r.check(z_equiv, *_fingerprinted(r, "left", "right"))
    rows = [reports.info("equivalent", (), str(verdict))]
    if r.value("expect", bool, verdict) != verdict:
        rows.append(reports.law("expected_outcome", (), f"expected {not verdict}, observed {verdict}"))
    return Report.collect("z_equiv", rows)


# =====================================================================
# the kind table
# =====================================================================

# role -> the one definition of a valid document of that role, read by
# ``_Resolver.check`` and by validate's kinds: called with the document's
# entry, it returns its validator's Report, calling the validator by its
# global name like the kinds do.  Every row but the category's runs only
# once the categories its document lives on pass theirs.
_VALIDATORS = {
    "category": lambda cat: validate_category(cat),
    "functor": lambda fun: check_functor(fun),
    "partition": lambda entry: validate_partition(*entry),
    "zmorphism": lambda entry: z_validate(*entry),
    "pointed_base": lambda base: validate_pointed_base(base),
    "covering": lambda entry: validate_covering(*entry),
    "presheaf": lambda F: validate_presheaf(F),
    "model": lambda model: validate_model(model),
    "square": lambda entry: validate_square(*entry),
    "layered": lambda layered: validate_layered(layered),
    "ladder": lambda entry: validate_ladder(*entry),
}

# kind -> (command, run, owns_expectation).  run(r) reads the spec through
# the resolver r and returns the check's Report (z_compose: the Report and
# its payload); every kind but validate's eleven validator kinds calls its
# checker through r.check.  Checkers are called by their global name at
# call time, so a wrapper installed on this module sees every call.  Only
# z_equiv owns its expectation and reads ``expect`` itself; for the rest it
# is applied after.
KINDS = {
    **{  # validate's kind of each role: that role's row on the document its field names
        "z_validate" if role == "zmorphism" else f"validate_{role}": (
            "validate", lambda r, role=role: r.report(role, r.value(role), r.id(role)), False
        )
        for role in _VALIDATORS
    },
    "quotient": ("validate", lambda r: r.check(quotient_category, *r.id("partition"))[1], False),
    "z_compose": ("z-compose", _z_compose, False),
    "grothendieck": ("site-check", lambda r: r.check(grothendieck_axiom_check, *r.id("covering"), r.budget), False),
    "nisnevich": ("site-check", lambda r: r.check(nisnevich_cover_check, *_nisnevich_inputs(r)), False),
    "component_lemma": ("site-check", lambda r: r.check(nisnevich_component_lemma_check, *_nisnevich_inputs(r)), False),
    "square": ("site-check", _square, False),
    "powered_cover": ("site-check", _powered_cover, False),
    "powered_stability": ("site-check", _powered_stability, False),
    "gamma": ("blur-check", lambda r: r.check(gamma_check, *r.id("partition")), False),
    "blurry_probe": ("blur-check", _blurry_probe, False),
    "powered_blurry": ("blur-check", _powered_blurry, False),
    "sheaf": ("sheaf-check", lambda r: r.check(sheaf_check, *_presheaf_and(r, "covering"), r.budget), False),
    "additivity": ("sheaf-check", _additivity, False),
    "cartesian": ("sheaf-check", lambda r: r.check(cartesian_square_check, *_presheaf_and(r, "square")), False),
    "squares_probe": ("sheaf-check", _squares_probe, False),
    "enumerate_fes": ("parametrize", _enumerate_fes, False),
    "precompose": ("parametrize", _precompose, False),
    "model_axioms": (
        "model-check",
        lambda r: r.check(model_axiom_check, r.id("model"), lifting=r.value("lifting", bool, False)),
        False,
    ),
    "class_types": ("model-check", _class_types, False),
    "quotient_model": ("model-check", lambda r: r.check(quotient_model, *_model_and_partition(r))[1], False),
    "invariant": ("fingerprint", _invariant, False),
    "z_equiv": ("fingerprint", _z_equiv, True),
}

# command -> the kinds it runs, in table order
COMMAND_KINDS = {
    command: tuple(kind for kind, row in KINDS.items() if row[0] == command)
    for command in dict.fromkeys(row[0] for row in KINDS.values())
}


def _run_check(ws: Workspace, spec: dict, path: str, budget: int, verdicts: dict):
    """The check's report and payload.  A check that read a document which
    fails validation gets one ``precondition`` finding per such document and
    no payload; what its checker raises (an unknown id, a blown budget) is
    the check's structural finding."""
    kind = spec["kind"]
    _command, run, owns_expectation = KINDS[kind]
    r = _Resolver(ws, spec, path, budget, verdicts, {})
    payload = None
    try:
        report = run(r)
        if isinstance(report, tuple):
            report, payload = report
    except _Precondition as exc:
        report = Report.collect(kind, exc.args[0])
    except KeyError as exc:
        missing = exc.args[0] if exc.args else ""
        report = Report.collect(kind, [reports.structural("inputs", (missing,), f"unknown id {missing!r}")])
    except ResourceBudgetError as exc:
        report = Report.collect(kind, [reports.structural("budget", (), str(exc))])
    except InputError as exc:
        report = Report.collect(kind, [reports.structural("inputs", (), str(exc))])
    if not owns_expectation:
        report = _with_expectation(report, r.value("expect", bool, None))
    return report, payload


# =====================================================================
# output
# =====================================================================


def dumps_indented(value, indent: str = "") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``.

    With ``indent`` set the stdlib encoder runs in pure Python, one
    generator per nesting level; joining each level's items with
    ``",\n" + indent`` and encoding strings with the C
    ``encode_basestring`` gives the same text in about half the time.
    Dict keys must be strings, as every key of a report is; any other key
    raises TypeError, like a value ``json.dumps`` cannot encode.
    """
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # plain strings and ints, most of a report, are encoded in place
        items = [
            encode_basestring(v) if type(v) is str
            else int.__repr__(v) if type(v) is int
            else dumps_indented(v, inner)
            for v in value
        ]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring(k) + ": " + dumps_indented(v, inner) for k, v in sorted(value.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, str):
        return encode_basestring(value)
    return json.dumps(value, ensure_ascii=False)


def _emit_json(label: str, kind: str, report: Report, payload) -> str:
    """The check's entry, indented to its place in the document's ``checks`` list."""
    entry = {"label": label, "kind": kind, "ok": report.ok, "findings": [f.to_json_dict() for f in report.findings]}
    if payload is not None:
        entry["result"] = payload
    return dumps_indented(entry, "    ")


def _emit_text(label: str, kind: str, report: Report, payload) -> str:
    lines = [f"[{'PASS' if report.ok else 'FAIL'}] {label} ({kind})"]
    lines += ["  " + f.render() for f in report.findings]
    if payload is not None:
        lines.append("  result: " + json.dumps(payload, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


# =====================================================================
# entry point
# =====================================================================


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsite",
        description="verification engine for linearized finite categories and their covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_KINDS:
        p = sub.add_parser(command, help=f"run {command} checks from a workspace")
        p.add_argument("workspace", help="path to a workspace JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help="enumeration guard")
        p.add_argument("--only", default=None, help="run only the check with this label")
        if command == "z-compose":
            p.add_argument("--outer", default=None, help="zmorphism applied second")
            p.add_argument("--inner", default=None, help="zmorphism applied first")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        ws = load_workspace(args.workspace)
        specs = [
            (f"checks[{pos}]", spec)
            for pos, spec in enumerate(ws.checks)
            if spec["kind"] in COMMAND_KINDS[args.command]
        ]
        if args.command == "z-compose" and (args.outer or args.inner):
            if not (args.outer and args.inner):
                raise WorkspaceError("z-compose needs both --outer and --inner")
            spec = {"kind": "z_compose", "label": "cli", "outer": args.outer, "inner": args.inner}
            specs = [("--outer/--inner", spec)]
        if args.only is not None:
            specs = [(path, spec) for path, spec in specs if spec.get("label") == args.only]
        emit = _emit_json if args.format == "json" else _emit_text
        entries, passed, code, verdicts = [], 0, 0, {}
        for path, spec in specs:
            report, payload = _run_check(ws, spec, path, args.budget, verdicts)
            entries.append(emit(spec["label"], spec["kind"], report, payload))
            passed += report.ok
            structural = any(f.kind == reports.STRUCTURAL for f in report.findings)
            code = max(code, 2 if structural else int(not report.ok))
    except WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # one write per entry: joining them would hold the whole document again
    write, failed = sys.stdout.write, len(entries) - passed
    if args.format == "json":
        write('{\n  "checks": [')
        for pos, entry in enumerate(entries):
            write(",\n    " if pos else "\n    ")
            write(entry)
        write("\n  ]" if entries else "]")
        write(f',\n  "command": {encode_basestring(args.command)},\n  "ok": {json.dumps(not failed)}\n}}\n')
    else:
        for entry in entries:
            write(entry)
        write(f"{args.command}: {len(entries)} checks, {passed} passed, {failed} failed\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
