"""Batch command line: load a workspace, run its checks, emit a report.

Subcommands partition the check kinds: validate covers structural checks of
every document, z-compose prints composites, site-check / blur-check /
sheaf-check / parametrize / model-check / fingerprint run their modules'
checks.  Reports are byte-deterministic for identical inputs (canonical
finding order, sorted JSON keys).  Exit status: 0 all checks pass, 1 some
check failed a law, 2 structural trouble (schema violation, unresolved
reference, malformed document, blown enumeration budget).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import reports
from .blur import (
    blurry_axiom_probe,
    blurry_topology,
    gamma_check,
    powered_blurry_check,
    powered_blurry_compose,
)
from .fincat import (
    InputError,
    ResourceBudgetError,
    check_functor,
    quotient_category,
    validate_category,
    validate_partition,
)
from .fingerprint import invariant_of, z_equiv
from .jsonio import Workspace, WorkspaceError, load_workspace, zmorphism_to_doc
from .modular import (
    QuotientRejected,
    class_types,
    compose_functors,
    enumerate_fes,
    model_axiom_check,
    precompose,
    quotient_model,
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
    validate_layered,
    validate_pointed_base,
)
from .zlin import MarginalMismatch, SignIncoherent, z_compose, z_validate

COMMAND_KINDS = {
    "validate": (
        "validate_category",
        "validate_functor",
        "validate_partition",
        "validate_pointed_base",
        "validate_presheaf",
        "validate_covering",
        "quotient",
        "z_validate",
    ),
    "z-compose": ("z_compose",),
    "site-check": (
        "grothendieck",
        "nisnevich",
        "component_lemma",
        "square",
        "powered_cover",
        "powered_stability",
    ),
    "blur-check": ("gamma", "blurry_probe", "powered_blurry"),
    "sheaf-check": ("sheaf", "additivity", "cartesian", "squares_probe"),
    "parametrize": ("enumerate_fes", "precompose"),
    "model-check": ("model_axioms", "class_types", "quotient_model"),
    "fingerprint": ("invariant", "z_equiv"),
}


def _with_expectation(report: Report, expect) -> Report:
    """Replace a check's pass/fail with 'matched the expected verdict'.

    Law findings of the inner report become informational (they are the
    observed behavior, possibly expected); structural findings stay fatal.
    """
    if expect is None:
        return report
    observed = report.ok
    rows = []
    for f in report.findings:
        if f.kind == reports.LAW:
            rows.append(reports.info(f"observed.{f.rule}", f.witnesses, f.detail))
        else:
            rows.append(f)
    if observed == bool(expect):
        rows.append(reports.info("expected_outcome", (), f"check passed: {observed}, as expected"))
    else:
        rows.append(
            reports.law("expected_outcome", (), f"expected pass={bool(expect)}, observed pass={observed}")
        )
    return Report.collect(report.subject, rows)


# =====================================================================
# check handlers
# =====================================================================


def _zmorphisms_on_one_base(ws: Workspace, names, path: str):
    pairs = [ws.lookup(ws.zmorphisms, n, path, "zmorphism") for n in names]
    cats = {c for c, _m in pairs}
    if len(cats) > 1:
        raise WorkspaceError(f"{path}: zmorphisms live on different categories {sorted(cats)}")
    return pairs


def _check_validate_category(ws, spec, path, budget):
    return validate_category(ws.category(spec["category"], path)), None


def _check_validate_functor(ws, spec, path, budget):
    fun = ws.lookup(ws.functors, spec["functor"], path, "functor")
    return check_functor(fun).report, None


def _check_validate_partition(ws, spec, path, budget):
    catname, rel = ws.lookup(ws.partitions, spec["partition"], path, "partition")
    return validate_partition(ws.categories[catname], rel), None


def _check_validate_pointed_base(ws, spec, path, budget):
    return validate_pointed_base(ws.lookup(ws.pointed_bases, spec["pointed_base"], path, "pointed base")), None


def _check_validate_presheaf(ws, spec, path, budget):
    return validate_presheaf(ws.lookup(ws.presheaves, spec["presheaf"], path, "presheaf")), None


def _check_validate_covering(ws, spec, path, budget):
    catname, assignment = ws.lookup(ws.coverings, spec["covering"], path, "covering")
    return validate_covering(ws.categories[catname], assignment), None


def _check_quotient(ws, spec, path, budget):
    catname, rel = ws.lookup(ws.partitions, spec["partition"], path, "partition")
    _quotient, report = quotient_category(ws.categories[catname], rel)
    return report, None


def _check_z_validate(ws, spec, path, budget):
    catname, phi = ws.lookup(ws.zmorphisms, spec["zmorphism"], path, "zmorphism")
    return z_validate(ws.categories[catname], phi, subject=spec["zmorphism"]), None


def _check_z_compose(ws, spec, path, budget):
    (cat_outer, outer) = ws.lookup(ws.zmorphisms, spec["outer"], path, "zmorphism")
    (cat_inner, inner) = ws.lookup(ws.zmorphisms, spec["inner"], path, "zmorphism")
    rows = []
    payload = None
    if cat_outer != cat_inner:
        rows.append(
            reports.structural(
                "compose_inputs", (spec["outer"], spec["inner"]), "factors live on different categories"
            )
        )
        return Report.collect("z_compose", rows), None
    base = ws.categories[cat_outer]
    for label, phi in ((spec["outer"], outer), (spec["inner"], inner)):
        sub = z_validate(base, phi, subject=label)
        if not sub.ok:
            rows.append(reports.structural("compose_inputs", (label,), "factor fails validation"))
    if rows:
        return Report.collect("z_compose", rows), None
    try:
        composite = z_compose(base, outer, inner)
    except (SignIncoherent, MarginalMismatch) as exc:
        rows.append(reports.law("compose_defined", (spec["outer"], spec["inner"]), str(exc)))
        return Report.collect("z_compose", rows), None
    except InputError as exc:
        rows.append(reports.structural("compose_inputs", (spec["outer"], spec["inner"]), str(exc)))
        return Report.collect("z_compose", rows), None
    payload = zmorphism_to_doc(composite)
    rows.append(reports.info("composite", (), composite.render()))
    if "expect_terms" in spec:
        expected = [tuple(t) for t in spec["expect_terms"]]
        got = [(r, c, v, a) for r, c, a, v in composite.normal_form()]
        if expected != got:
            rows.append(
                reports.law("expected_terms", (), f"expected {expected}, got {got}")
            )
    return Report.collect("z_compose", rows), payload


def _check_grothendieck(ws, spec, path, budget):
    catname, assignment = ws.lookup(ws.coverings, spec["covering"], path, "covering")
    return grothendieck_axiom_check(ws.categories[catname], assignment, budget), None


def _nisnevich_inputs(ws, spec, path):
    base = ws.lookup(ws.pointed_bases, spec["pointed_base"], path, "pointed base")
    target = ws.lookup(ws.zobjects, spec["target"], path, "zobject")
    pairs = _zmorphisms_on_one_base(ws, spec["family"], path)
    if pairs and pairs[0][0] != base.cat.name:
        raise WorkspaceError(f"{path}: family lives on {pairs[0][0]}, base on {base.cat.name}")
    return base, target, [m for _c, m in pairs]


def _check_nisnevich(ws, spec, path, budget):
    base, target, family = _nisnevich_inputs(ws, spec, path)
    return nisnevich_cover_check(base, target, family), None


def _check_component_lemma(ws, spec, path, budget):
    base, target, family = _nisnevich_inputs(ws, spec, path)
    return nisnevich_component_lemma_check(base, target, family), None


def _check_square(ws, spec, path, budget):
    base = ws.lookup(ws.pointed_bases, spec["pointed_base"], path, "pointed base")
    catname, square = ws.lookup(ws.squares, spec["square"], path, "square")
    if catname != base.cat.name:
        raise WorkspaceError(f"{path}: square lives on {catname}, base on {base.cat.name}")
    return distinguished_square_check(base, square), None


def _ladder(ws, name, layered_name, path):
    lname, ladder = ws.lookup(ws.ladders, name, path, "ladder")
    if lname != layered_name:
        raise WorkspaceError(f"{path}: ladder {name!r} belongs to layered category {lname!r}")
    return ladder


def _coverings(ws, names, path):
    return [ws.lookup(ws.coverings, n, path, "covering")[1] for n in names]


def _check_powered_cover(ws, spec, path, budget):
    layered = ws.lookup(ws.layered, spec["layered"], path, "layered category")
    shape = validate_layered(layered)
    if not shape.ok:
        return shape, None
    ladder = _ladder(ws, spec["ladder"], spec["layered"], path)
    return powered_cover_check(layered, ladder, _coverings(ws, spec["coverings"], path)), None


def _check_powered_stability(ws, spec, path, budget):
    layered = ws.lookup(ws.layered, spec["layered"], path, "layered category")
    shape = validate_layered(layered)
    if not shape.ok:
        return shape, None
    family = [_ladder(ws, n, spec["layered"], path) for n in spec["family"]]
    test = _ladder(ws, spec["test"], spec["layered"], path)
    ks = _coverings(ws, spec["coverings"], path)
    return powered_stability_probe(layered, family, test, ks), None


def _check_gamma(ws, spec, path, budget):
    catname, rel = ws.lookup(ws.partitions, spec["partition"], path, "partition")
    return gamma_check(ws.categories[catname], rel), None


def _blurry_site(ws, spec_level, path):
    catname, assignment = ws.lookup(ws.coverings, spec_level["covering"], path, "covering")
    relname, rel = ws.lookup(ws.partitions, spec_level["partition"], path, "partition")
    if relname != catname:
        raise WorkspaceError(
            f"{path}: covering lives on {catname!r}, partition on {relname!r}"
        )
    return blurry_topology(ws.categories[catname], assignment, rel)


def _check_blurry_probe(ws, spec, path, budget):
    return blurry_axiom_probe(_blurry_site(ws, spec, path), budget), None


def _check_powered_blurry(ws, spec, path, budget):
    sites = [_blurry_site(ws, level, path) for level in spec["levels"]]
    layered = (
        ws.lookup(ws.layered, spec["layered"], path, "layered category")
        if "layered" in spec
        else None
    )
    powered = powered_blurry_compose(
        sites, layered=layered, loose_levels=spec.get("loose", ()), budget=budget
    )
    return powered_blurry_check(powered, spec["arrows"]), None


def _check_sheaf(ws, spec, path, budget):
    F = ws.lookup(ws.presheaves, spec["presheaf"], path, "presheaf")
    catname, assignment = ws.lookup(ws.coverings, spec["covering"], path, "covering")
    if catname != F.cat.name:
        raise WorkspaceError(f"{path}: presheaf lives on {F.cat.name}, covering on {catname}")
    return sheaf_check(F, assignment), None


def _check_additivity(ws, spec, path, budget):
    base = ws.category(spec["category"], path)
    obj = ws.lookup(ws.zobjects, spec["zobject"], path, "zobject")
    flavor = spec.get("flavor", "tables")
    if flavor == "tables":
        target = ws.lookup(ws.zobjects, spec["target"], path, "zobject")
        zp = representable_z(base, target)
    elif flavor == "constant":
        zp = constant_z(base, spec.get("labels", ()))
    else:
        raise WorkspaceError(f"{path}: unknown additivity flavor {flavor!r}")
    return additivity_check(zp, obj), None


def _check_cartesian(ws, spec, path, budget):
    F = ws.lookup(ws.presheaves, spec["presheaf"], path, "presheaf")
    catname, square = ws.lookup(ws.squares, spec["square"], path, "square")
    if catname != F.cat.name:
        raise WorkspaceError(f"{path}: presheaf lives on {F.cat.name}, square on {catname}")
    return cartesian_square_check(F, square), None


def _check_squares_probe(ws, spec, path, budget):
    F = ws.lookup(ws.presheaves, spec["presheaf"], path, "presheaf")
    catname, assignment = ws.lookup(ws.coverings, spec["covering"], path, "covering")
    if catname != F.cat.name:
        raise WorkspaceError(f"{path}: presheaf lives on {F.cat.name}, covering on {catname}")
    squares = []
    for name in spec["squares"]:
        sq_cat, square = ws.lookup(ws.squares, name, path, "square")
        if sq_cat != F.cat.name:
            raise WorkspaceError(f"{path}: square {name!r} lives on {sq_cat}")
        squares.append(square)
    return squares_vs_sheaf_probe(F, assignment, squares, spec.get("asserted", True)), None


def _check_enumerate_fes(ws, spec, path, budget):
    source = ws.category(spec["source"], path)
    model = ws.lookup(ws.model_cats, spec["model"], path, "model category")
    family = enumerate_fes(source, model, budget=budget)
    rows = [reports.info("member_count", (str(len(family.members)),), "full, essentially surjective functors")]
    for fun in family.members:
        image = ",".join(f"{k}>{v}" for k, v in sorted(fun.object_map.items()))
        rows.append(reports.info("member", (fun.name,), image))
    if "expect_count" in spec and len(family.members) != spec["expect_count"]:
        rows.append(
            reports.law(
                "expected_count",
                (str(spec["expect_count"]), str(len(family.members))),
                "member count differs from the expected count",
            )
        )
    return Report.collect("enumerate_fes", rows), None


def _check_precompose(ws, spec, path, budget):
    inner = ws.lookup(ws.functors, spec["inner"], path, "functor")
    outer = ws.lookup(ws.functors, spec["outer"], path, "functor")
    model = ws.lookup(ws.model_cats, spec["model"], path, "model category")
    if outer.target.name != model.base.name:
        raise WorkspaceError(f"{path}: outer functor must land in the model's base")
    family = enumerate_fes(outer.target, model, budget=budget)
    direct = precompose(compose_functors(outer, inner), family)
    staged = precompose(inner, precompose(outer, family))
    rows = [
        reports.info("family_size", (str(len(family.members)),), "parametrizations of the model"),
        reports.info("pulled_size", (str(len(direct.members)),), "after precomposition"),
    ]
    if direct.keys() != staged.keys():
        rows.append(
            reports.law(
                "contravariance",
                (spec["outer"], spec["inner"]),
                "composite pullback differs from staged pullbacks",
            )
        )
    return Report.collect("precompose", rows), None


def _check_model_axioms(ws, spec, path, budget):
    model = ws.lookup(ws.model_cats, spec["model"], path, "model category")
    return model_axiom_check(model, lifting=spec.get("lifting", False)), None


def _check_class_types(ws, spec, path, budget):
    model = ws.lookup(ws.model_cats, spec["model"], path, "model category")
    relname, rel = ws.lookup(ws.partitions, spec["partition"], path, "partition")
    if relname != model.base.name:
        raise WorkspaceError(f"{path}: partition lives on {relname!r}")
    types = class_types(model, rel, rel.block_id(spec["from_object"]), rel.block_id(spec["to_object"]))
    rows = [reports.info("types", tuple(sorted(types)), "labels carried by representatives")]
    if "expect_types" in spec and frozenset(spec["expect_types"]) != types:
        rows.append(
            reports.law(
                "expected_types",
                tuple(sorted(spec["expect_types"])),
                f"observed {sorted(types)}",
            )
        )
    return Report.collect("class_types", rows), None


def _check_quotient_model(ws, spec, path, budget):
    model = ws.lookup(ws.model_cats, spec["model"], path, "model category")
    relname, rel = ws.lookup(ws.partitions, spec["partition"], path, "partition")
    if relname != model.base.name:
        raise WorkspaceError(f"{path}: partition lives on {relname!r}")
    try:
        _labeled, report = quotient_model(model, rel)
    except QuotientRejected as exc:
        return exc.report, None
    return report, None


def _check_invariant(ws, spec, path, budget):
    obj = ws.lookup(ws.zobjects, spec["zobject"], path, "zobject")
    table = ws.lookup(ws.fingerprints, spec["table"], path, "fingerprint table")
    try:
        inv = invariant_of(obj, table)
    except InputError as exc:
        return Report.collect("invariant", [reports.structural("fingerprint_known", (), str(exc))]), None
    rows = [
        reports.info("part", (str(idx), str(coeff)), f"dims {list(dims.dims)}")
        for idx, coeff, dims in inv.parts
    ]
    return Report.collect("invariant", rows), None


def _check_z_equiv(ws, spec, path, budget):
    left = ws.lookup(ws.zobjects, spec["left"], path, "zobject")
    right = ws.lookup(ws.zobjects, spec["right"], path, "zobject")
    table = ws.lookup(ws.fingerprints, spec["table"], path, "fingerprint table")
    try:
        verdict = z_equiv(left, right, table)
    except InputError as exc:
        return Report.collect("z_equiv", [reports.structural("fingerprint_known", (), str(exc))]), None
    rows = [reports.info("equivalent", (), str(verdict))]
    if "expect" in spec and bool(spec["expect"]) != verdict:
        rows.append(
            reports.law("expected_outcome", (), f"expected {bool(spec['expect'])}, observed {verdict}")
        )
    return Report.collect("z_equiv", rows), None


HANDLERS = {
    "validate_category": _check_validate_category,
    "validate_functor": _check_validate_functor,
    "validate_partition": _check_validate_partition,
    "validate_pointed_base": _check_validate_pointed_base,
    "validate_presheaf": _check_validate_presheaf,
    "validate_covering": _check_validate_covering,
    "quotient": _check_quotient,
    "z_validate": _check_z_validate,
    "z_compose": _check_z_compose,
    "grothendieck": _check_grothendieck,
    "nisnevich": _check_nisnevich,
    "component_lemma": _check_component_lemma,
    "square": _check_square,
    "powered_cover": _check_powered_cover,
    "powered_stability": _check_powered_stability,
    "gamma": _check_gamma,
    "blurry_probe": _check_blurry_probe,
    "powered_blurry": _check_powered_blurry,
    "sheaf": _check_sheaf,
    "additivity": _check_additivity,
    "cartesian": _check_cartesian,
    "squares_probe": _check_squares_probe,
    "enumerate_fes": _check_enumerate_fes,
    "precompose": _check_precompose,
    "model_axioms": _check_model_axioms,
    "class_types": _check_class_types,
    "quotient_model": _check_quotient_model,
    "invariant": _check_invariant,
    "z_equiv": _check_z_equiv,
}

# kinds whose handler applies the expectation itself
_OWN_EXPECTATION = {"z_compose", "enumerate_fes", "class_types", "z_equiv", "invariant"}


class _Spec(dict):
    """A check spec, or a dict inside one, whose missing fields are workspace errors.

    Only a missing field of the spec itself aborts the run; a KeyError from
    inside a checker is a dangling table id and fails that check alone.
    """

    path = ""

    def __missing__(self, key):
        raise WorkspaceError(f"{self.path}: missing field {key!r}")


def _spec(value, path: str):
    if isinstance(value, dict):
        spec = _Spec({key: _spec(item, path) for key, item in value.items()})
        spec.path = path
        return spec
    if isinstance(value, list):
        return [_spec(item, path) for item in value]
    return value


def _run_check(ws: Workspace, spec: dict, pos: int, budget: int):
    path = f"checks[{pos}]"
    kind = spec["kind"]
    handler = HANDLERS[kind]
    try:
        report, payload = handler(ws, _spec(spec, path), path, budget)
    except KeyError as exc:
        missing = exc.args[0] if exc.args else ""
        report, payload = (
            Report.collect(kind, [reports.structural("inputs", (missing,), f"unknown id {missing!r}")]),
            None,
        )
    except ResourceBudgetError as exc:
        report, payload = (
            Report.collect(kind, [reports.structural("budget", (), str(exc))]),
            None,
        )
    except InputError as exc:
        report, payload = (
            Report.collect(kind, [reports.structural("inputs", (), str(exc))]),
            None,
        )
    if kind not in _OWN_EXPECTATION:
        report = _with_expectation(report, spec.get("expect"))
    return report, payload


# =====================================================================
# output
# =====================================================================


def _exit_code(report_rows) -> int:
    worst = 0
    for _label, _kind, report, _payload in report_rows:
        kinds = {f.kind for f in report.findings}
        if reports.STRUCTURAL in kinds:
            return 2
        if not report.ok:
            worst = max(worst, 1)
    return worst


def _emit_json(command: str, rows) -> str:
    doc = {
        "command": command,
        "ok": all(r.ok for _l, _k, r, _p in rows),
        "checks": [],
    }
    for label, kind, report, payload in rows:
        entry = {
            "label": label,
            "kind": kind,
            "ok": report.ok,
            "findings": [f.to_json_dict() for f in report.findings],
        }
        if payload is not None:
            entry["result"] = payload
        doc["checks"].append(entry)
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _emit_text(command: str, rows) -> str:
    lines = []
    passed = 0
    for label, kind, report, payload in rows:
        mark = "PASS" if report.ok else "FAIL"
        passed += report.ok
        lines.append(f"[{mark}] {label} ({kind})")
        for f in report.findings:
            lines.append("  " + f.render())
        if payload is not None:
            lines.append("  result: " + json.dumps(payload, sort_keys=True, ensure_ascii=False))
    lines.append(f"{command}: {len(rows)} checks, {passed} passed, {len(rows) - passed} failed")
    return "\n".join(lines) + "\n"


# =====================================================================
# entry point
# =====================================================================


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
        p.add_argument("--budget", type=int, default=50_000, help="enumeration guard")
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
            (pos, spec)
            for pos, spec in enumerate(ws.checks)
            if spec["kind"] in COMMAND_KINDS[args.command]
        ]
        if args.command == "z-compose" and (args.outer or args.inner):
            if not (args.outer and args.inner):
                raise WorkspaceError("z-compose needs both --outer and --inner")
            specs = [
                (0, {"kind": "z_compose", "label": "cli", "outer": args.outer, "inner": args.inner})
            ]
        if args.only is not None:
            specs = [(pos, spec) for pos, spec in specs if spec.get("label") == args.only]
        rows = []
        for pos, spec in specs:
            report, payload = _run_check(ws, spec, pos, args.budget)
            rows.append((spec["label"], spec["kind"], report, payload))
    except WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    emit = _emit_json if args.format == "json" else _emit_text
    sys.stdout.write(emit(args.command, rows))
    return _exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
