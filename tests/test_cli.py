import collections
import contextlib
import inspect
import io
import itertools
import json
import pathlib
import random
import subprocess
import sys
import weakref
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_NAMES, cli_env, drop, fixture_doc, fixture_path, put
from fuzz import damage_workspace, reassign_workspace
from zsite import cli
from zsite.cli import COMMAND_KINDS, main
from zsite.blur import blurry_axiom_probe, powered_blurry_check
from zsite.fincat import DEFAULT_BUDGET, InputError, check_functor, validate_category, validate_partition
from zsite.jsonio import DOCUMENTS, load_workspace
from zsite.modular import enumerate_fes, validate_model
from zsite.reports import Report
from zsite.sheaf import matching_families, sheaf_check, squares_vs_sheaf_probe, validate_presheaf
from zsite.site import (
    covering_axiom_findings,
    covering_gaps,
    grothendieck_axiom_check,
    refined_families,
    validate_covering,
    validate_ladder,
    validate_layered,
    validate_pointed_base,
    validate_square,
)
from zsite.zlin import z_validate

ROOT = pathlib.Path(__file__).resolve().parents[1]

# every (command, fixture) pair whose check list is non-empty and all green
PASSING = [
    ("validate", "poset2.json", 4),
    ("site-check", "poset2.json", 1),
    ("blur-check", "poset2.json", 11),
    ("validate", "etale2.json", 6),
    ("site-check", "etale2.json", 6),
    ("validate", "chain3.json", 5),
    ("site-check", "chain3.json", 2),
    ("blur-check", "chain3.json", 4),
    ("sheaf-check", "chain3.json", 8),
    ("site-check", "layered2.json", 5),
    ("blur-check", "layered2.json", 1),
    ("validate", "modular.json", 1),
    ("parametrize", "modular.json", 5),
    ("model-check", "modular.json", 5),
    ("fingerprint", "fingerprint.json", 3),
    ("validate", "zlin.json", 3),
    ("z-compose", "zlin.json", 1),
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command,fixture,count", PASSING)
def test_green_workspaces_exit_zero(capsys, command, fixture, count):
    code, out, err = run(capsys, [command, fixture_path(fixture)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["checks"]) == count
    assert all(entry["ok"] for entry in doc["checks"])


def test_every_schema_kind_belongs_to_exactly_one_command():
    schema = json.loads(resources.files("zsite").joinpath("schemas/workspace.schema.json").read_text())
    kinds = schema["$defs"]["check"]["properties"]["kind"]["enum"]
    for kind in kinds:
        assert sum(kind in owned for owned in COMMAND_KINDS.values()) == 1, kind
    assert sorted(k for owned in COMMAND_KINDS.values() for k in owned) == sorted(kinds)


def test_law_failure_exits_one(capsys):
    code, out, _err = run(capsys, ["validate", fixture_path("failing.json")])
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    rules = {f["rule"] for entry in doc["checks"] for f in entry["findings"]}
    assert "row_marginal" in rules


@pytest.mark.parametrize("command", sorted(COMMAND_KINDS))
def test_malformed_workspace_exits_two(capsys, command):
    code, out, err = run(capsys, [command, fixture_path("malformed.json")])
    assert code == 2
    assert out == ""
    assert err == "error: $.categories.broken.morphisms.id_x: ['x'] is too short\n"


@pytest.mark.parametrize(
    "command,fixture,zobject,components,message",
    [
        ("z-compose", "fingerprint.json", "fY", [[2, "b", -1], [2, "a", 2]], "duplicate component index 2"),
        ("validate", "zlin.json", "mid", [[1, "Y", 0]], "component 1 of [Y] has zero coefficient"),
    ],
)
def test_a_bad_zobject_is_a_workspace_error(tmp_path, command, fixture, zobject, components, message):
    raw = fixture_doc(fixture)
    raw["zobjects"][zobject]["components"] = components
    path = tmp_path / fixture
    path.write_text(json.dumps(raw), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "zsite.cli", command, str(path)],
        capture_output=True,
        text=True,
        env=cli_env(),
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: zobjects.{zobject}: {message}\n")


def _deep_expect_terms(path):
    """Write zlin.json with its z_compose check's ``expect_terms`` nested 990 deep;
    spliced in as text, since encoding it would itself recurse that deep."""
    raw = fixture_doc("zlin.json")
    next(c for c in raw["checks"] if c["kind"] == "z_compose")["expect_terms"] = "DEEP"
    path.write_text(json.dumps(raw).replace('"DEEP"', "[" * 990 + "]" * 990), encoding="utf-8")


@pytest.mark.parametrize(
    "write,message",
    [
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "not UTF-8: invalid start byte at byte 0"),
        (lambda path: path.write_text("[" * 100_000, encoding="utf-8"), "JSON nested too deeply to parse"),
        (_deep_expect_terms, "JSON nested too deeply to parse"),
    ],
    ids=["not-utf8", "nested-lists", "nested-expect-terms"],
)
def test_an_unreadable_workspace_is_a_workspace_error(tmp_path, write, message):
    # the decoder's and the parser's own errors once escaped as a traceback, exit 1
    path = tmp_path / "unreadable.json"
    write(path)
    proc = subprocess.run(
        [sys.executable, "-m", "zsite.cli", "z-compose", str(path)],
        capture_output=True,
        text=True,
        env=cli_env(),
        check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {path}: {message}\n")


def _has_structural_finding(out: str) -> bool:
    return any(f["kind"] == "structural" for check in json.loads(out)["checks"] for f in check["findings"])


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(FIXTURE_NAMES), seed=st.integers(0, 2**32 - 1), edits=st.integers(1, 3))
def test_damaged_workspaces_keep_the_exit_table(tmp_path_factory, name, seed, edits):
    # every command on a damaged fixture ends by the documented exit table:
    # no traceback; 0 and 1 with a report and empty stderr; 2 with either
    # one error line and no report, or a report holding a structural finding
    with open(fixture_path(name), encoding="utf-8") as fh:
        raw = damage_workspace(random.Random(seed), json.load(fh), edits)
    path = tmp_path_factory.mktemp("damaged") / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    for command in COMMAND_KINDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), "--budget", "2000"])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 2 and not out:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""
            assert code != 2 or _has_structural_finding(out)


# role -> whether a document of that role, read as the resolver records it,
# fails its validator; the validators are called here directly, not through
# the command line's gate, and on a document other than a category only
# once every category it lives on passes
_FAILS_VALIDATION = {
    "category": lambda cat: not validate_category(cat).ok,
    "functor": lambda fun: not check_functor(fun).report.ok,
    "partition": lambda entry: not validate_partition(*entry).ok,
    "pointed_base": lambda base: not validate_pointed_base(base).ok,
    "zmorphism": lambda entry: not z_validate(*entry).ok,
    "covering": lambda entry: not validate_covering(*entry).ok,
    "presheaf": lambda F: not validate_presheaf(F).ok,
    "model": lambda model: not validate_model(model).ok,
    "square": lambda entry: not validate_square(*entry).ok,
    "layered": lambda layered: not validate_layered(layered).ok,
    "ladder": lambda entry: not validate_ladder(*entry).ok,
}

# validate's kinds built from cli._VALIDATORS report on invalid documents by
# design; every other kind is gated
_UNGATED = set(COMMAND_KINDS["validate"]) - {"quotient"}


def _failing(read, roles) -> list:
    """The sorted (name, precondition detail) of each document of ``roles`` in ``read`` that fails validation."""
    return sorted(
        (doc, f"{DOCUMENTS[role][1]} fails validation")
        for role in roles
        for doc, entry in read.get(role, {}).items()
        if role in _FAILS_VALIDATION and _FAILS_VALIDATION[role](entry)
    )


def test_no_check_gives_a_verdict_on_a_document_that_fails_validation(tmp_path, monkeypatch):
    # one seeded, schema-valid reassignment per case; every gated check
    # whose resolver read a category that fails validation must have
    # exactly one precondition finding per such category; one that read
    # none must have one per other document that fails its role's
    # validator, and a check that read neither must have none.  Some
    # reassignments name an arrow or object no category holds, so each
    # validator rule on an unknown id must fire at least once
    resolvers, checks, real, fired = [], [], cli._run_check, collections.Counter()

    class Recording(cli._Resolver):
        def __init__(self, *args):
            super().__init__(*args)
            resolvers.append(self)

    def run_check(ws, spec, *args):
        first = len(resolvers)
        report, payload = real(ws, spec, *args)
        checks.append((spec["kind"], resolvers[first].read, report))
        return report, payload

    def counted(validator):
        def validate(entry):
            report = validator(entry)
            fired.update(f.rule for f in report.findings)
            return report

        return validate

    monkeypatch.setattr(cli, "_Resolver", Recording)
    monkeypatch.setattr(cli, "_run_check", run_check)
    monkeypatch.setattr(cli, "_VALIDATORS", {role: counted(v) for role, v in cli._VALIDATORS.items()})
    names = [name for name in FIXTURE_NAMES if name != "malformed.json"]
    violations = []
    for seed in range(400):
        rng = random.Random(seed)
        name = rng.choice(names)
        with open(fixture_path(name), encoding="utf-8") as fh:
            raw = reassign_workspace(rng, json.load(fh))
        path = tmp_path / name
        path.write_text(json.dumps(raw), encoding="utf-8")
        for command in COMMAND_KINDS:
            checks.clear()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main([command, str(path), "--budget", "2000"])
            for kind, read, report in checks:
                if kind in _UNGATED:
                    continue
                invalid = _failing(read, ["category"]) or _failing(read, read)
                got = sorted(
                    (f.witnesses[0], f.detail) for f in report.findings if f.rule == "precondition"
                )
                if got != invalid:
                    violations.append((seed, name, command, kind, invalid, got))
    assert violations == []
    unknown_ids = ("class_member_known", "square_side_known", "term_arrow_known")
    assert all(fired[rule] for rule in unknown_ids), {rule: fired[rule] for rule in unknown_ids}


def test_budget_overrun_is_structural(capsys):
    code, out, _err = run(capsys, ["parametrize", fixture_path("modular.json"), "--budget", "1"])
    assert code == 2
    doc = json.loads(out)
    rules = {f["rule"] for entry in doc["checks"] for f in entry["findings"]}
    assert "budget" in rules


def test_transitivity_refinement_is_budgeted(capsys):
    code, out, _err = run(capsys, ["site-check", fixture_path("chain3.json"), "--budget", "1"])
    assert code == 2
    doc = json.loads(out)
    (entry,) = [e for e in doc["checks"] if e["kind"] == "grothendieck"]
    assert [f["rule"] for f in entry["findings"]] == ["budget"]
    assert entry["findings"][0]["kind"] == "structural"


def test_matching_family_search_is_budgeted(capsys):
    code, out, _err = run(capsys, ["sheaf-check", fixture_path("chain3.json"), "--budget", "1"])
    assert code == 2
    doc = json.loads(out)
    (entry, *_rest) = [e for e in doc["checks"] if e["kind"] == "sheaf"]
    assert entry["findings"] == [{
        "kind": "structural", "rule": "budget", "witnesses": [],
        "detail": "matching families over {id_B} need more than 1 candidate sections; refusing to truncate",
    }]


def test_dangling_projection_fails_only_its_checks(capsys, tmp_path):
    with open(fixture_path("chain3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["categories"]["chain3"]["pullbacks"]["B<T|B<T"] = ["B", "ghost", "id_B"]
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # a pullback naming no morphism fails validate_category, so every check
    # reading chain3 gets the precondition finding and no verdict on its
    # expectation, whatever unknown id its checker would meet
    assert run(capsys, ["validate", str(path), "--only", "cat"])[0] == 2
    code, out, err = run(capsys, ["sheaf-check", str(path)])
    assert code == 2 and err == ""
    report = json.loads(out)
    kinds = {"sheaf", "additivity", "cartesian", "squares_probe"}
    assert len(report["checks"]) == sum(c["kind"] in kinds for c in doc["checks"]) == 8
    for entry in report["checks"]:
        assert entry["findings"] == [
            {"kind": "structural", "rule": "precondition", "witnesses": ["chain3"],
             "detail": "category fails validation"}
        ], entry["label"]


def counting(monkeypatch, name, key):
    """Replace ``cli.<name>`` by a wrapper; the list it returns gets ``key(*args, **kwargs)`` per call."""
    calls, real = [], getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def test_site_check_on_a_holed_category_is_a_precondition_failure(capsys, tmp_path, monkeypatch):
    # validate fails chain3 with composition_total once id_B|A<B is dropped;
    # no covering axiom may then pass on it
    with open(fixture_path("chain3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["categories"]["chain3"]["composition"]["id_B|A<B"]
    (spec,) = [c for c in doc["checks"] if c["kind"] == "grothendieck"]
    doc["checks"].append(dict(spec, label="axioms-again"))
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = counting(monkeypatch, "validate_category", lambda cat: cat.name)
    code, out, err = run(capsys, ["site-check", str(path)])
    assert code == 2 and err == ""
    entries = [e for e in json.loads(out)["checks"] if e["kind"] == "grothendieck"]
    assert len(entries) == 2
    for entry in entries:
        assert entry["findings"] == [
            {"kind": "structural", "rule": "precondition", "witnesses": ["chain3"],
             "detail": "category fails validation"}
        ]
    assert calls == ["chain3"]


@pytest.mark.parametrize(
    "command,fixture,catname,hole,gated,validated",
    [
        ("blur-check", "chain3.json", "chain3", "id_B|A<B", {"gamma", "blurry_probe"}, ["chain3"]),
        (
            "sheaf-check", "chain3.json", "chain3", "id_B|A<B", {"sheaf", "cartesian", "squares_probe", "additivity"},
            ["chain3"],
        ),
        ("site-check", "chain3.json", "chain3", "id_B|A<B", {"grothendieck", "square"}, ["chain3"]),
        (
            "site-check", "layered2.json", "inner3", "E'<P'|id_E'", {"powered_cover", "powered_stability"},
            ["poset2", "inner3"],
        ),
        ("site-check", "etale2.json", "etale2", "e1|id_U1", {"nisnevich", "component_lemma"}, ["etale2"]),
        (
            "validate", "poset2.json", "poset2", "P<T|E<P", {"quotient", "validate_covering", "validate_partition"},
            ["poset2"],
        ),
    ],
    ids=["blur-check", "sheaf-check", "site-check", "site-check-layered", "site-check-etale", "validate"],
)
def test_checks_on_a_holed_category_are_precondition_failures(
    capsys, tmp_path, monkeypatch, command, fixture, catname, hole, gated, validated
):
    # every kind whose law assumes a valid category, and every validator of
    # a document on it, gives the precondition finding on a category
    # without one of its composites, a level of a layered category
    # included; the rest run as before, and each category is validated once
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["categories"][catname]["composition"][hole]
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = counting(monkeypatch, "validate_category", lambda cat: cat.name)
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2 and err == ""
    entries = json.loads(out)["checks"]
    assert gated <= {e["kind"] for e in entries}
    for entry in entries:
        if entry["kind"] in gated:
            assert entry["findings"] == [
                {"kind": "structural", "rule": "precondition", "witnesses": [catname],
                 "detail": "category fails validation"}
            ]
        else:
            assert all(f["rule"] != "precondition" for f in entry["findings"])
    assert calls == validated


def _residue_outside_the_domain(doc):
    doc["pointed_bases"]["base"]["residue_preserving"]["e1"].append("zz")


def _dangling_point(doc):
    del doc["pointed_bases"]["base"]["point_map"]["g"]


def _point_map_out_of_range(doc):
    doc["pointed_bases"]["base"]["point_map"]["A<B"]["1"] = "zz"


def _ghost_composite(doc):
    composition = doc["categories"]["etale2"]["composition"]
    composition[next(iter(composition))] = "ghost"


def _identity_missing(doc):
    identities = doc["categories"]["etale2"]["identities"]
    del identities[next(iter(identities))]


@pytest.mark.parametrize(
    "fixture,kind,damage,invalid",
    [
        ("etale2.json", "nisnevich", _residue_outside_the_domain, [("base", "pointed base")]),
        ("etale2.json", "component_lemma", _dangling_point, [("base", "pointed base")]),
        ("chain3.json", "square", _point_map_out_of_range, [("base", "pointed base")]),
        ("etale2.json", "nisnevich", _ghost_composite, [("etale2", "category")]),
        ("etale2.json", "component_lemma", _identity_missing, [("etale2", "category")]),
    ],
    ids=["nisnevich", "component_lemma", "square", "ghost-composite", "identity-missing"],
)
def test_checks_on_an_invalid_pointed_base_are_precondition_failures(
    capsys, tmp_path, monkeypatch, fixture, kind, damage, invalid
):
    # validate fails the damaged base, or its category when that names an
    # unknown composite or lacks an identity; no point-lifting, component or
    # square law may then give a verdict on it, the base is validated once
    # per run, and not at all on a failing category
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    damage(doc)
    path = tmp_path / "damaged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, ["validate", str(path)])[0] == 2
    calls = counting(monkeypatch, "validate_pointed_base", lambda base: "base")
    code, out, err = run(capsys, ["site-check", str(path)])
    assert code == 2 and err == ""
    entries = [e for e in json.loads(out)["checks"] if e["kind"] == kind]
    assert entries
    for entry in entries:
        assert entry["findings"] == [
            {"kind": "structural", "rule": "precondition", "witnesses": [name], "detail": f"{noun} fails validation"}
            for name, noun in invalid
        ]
    assert calls == [name for name, noun in invalid if noun == "pointed base"]


def test_parametrizations_on_a_holed_category_are_precondition_failures(capsys, tmp_path, monkeypatch):
    # m2 without id_a|v fails validate_category; no functor enumeration,
    # precomposition or model law may then give a verdict on it, nor name
    # the unknown composite it would meet first
    with open(fixture_path("modular.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["categories"]["m2"]["composition"]["id_a|v"]
    path = tmp_path / "holed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = counting(monkeypatch, "validate_category", lambda cat: cat.name)
    entries = {}
    for command, read in (("parametrize", ["chain2", "m2", "one"]), ("model-check", ["chain2", "m2", "m3"])):
        code, out, err = run(capsys, [command, str(path)])
        assert code == 2 and err == ""
        entries.update((e["label"], e) for e in json.loads(out)["checks"])
        # every category a gated check read is validated once per run
        assert sorted(calls) == read
        calls.clear()
    m2 = {"kind": "structural", "rule": "precondition", "witnesses": ["m2"], "detail": "category fails validation"}
    # swap, a functor on m2, is not judged on the holed table
    for label in ("collapse-pair", "point-into-pair", "pair-onto-point", "axioms-M2", "pullback-chain"):
        assert entries[label]["findings"] == [m2]
    for label in ("chain-into-chain", "point-into-chain", "axioms-MC2", "axioms-M3", "mixed-types"):
        assert entries[label]["ok"] is True


def test_z_compose_validates_each_factor_once_per_run(capsys, tmp_path, monkeypatch):
    with open(fixture_path("zlin.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    (spec,) = [c for c in doc["checks"] if c["kind"] == "z_compose"]
    doc["checks"] += [dict(spec, label="again"), dict(spec, label="swapped", outer="phi", inner="psi")]
    path = tmp_path / "zlin3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    names = {phi: name for name, (_cat, phi) in load_workspace(str(path)).zmorphisms.items()}
    calls = counting(monkeypatch, "z_validate", lambda base, phi: names[phi])
    for _run in range(2):
        _code, out, err = run(capsys, ["z-compose", str(path)])
        assert err == "" and len(json.loads(out)["checks"]) == 3
    # one verdict per factor document and run; the verdicts do not outlive a run
    assert sorted(calls) == ["phi", "phi", "psi", "psi"]


def _gated(labels, *invalid):
    """Each check label in ``labels`` mapped to the (name, noun) of every
    document it reads that fails validation."""
    return dict.fromkeys(labels, list(invalid))


_K, _L = ("K", "covering"), ("L", "layered category")
_CROSSED = put("ladders", "lad", "arrows", value=["E<T", "P'<T'"])
_CHAIN3 = ("chain3", "category")
_NO_ID_A = drop("categories", "chain3", "identities", "A")
_BENT = put("categories", "chain3", "composition", "A<B|id_A", value="id_A")
_CHAIN3_DOCUMENTS = ["covering-shape", "base", "glues-shape", "gapped-shape"]
_CHAIN3_SHEAF_CHECKS = [
    "glues-sheaf", "gapped-sheaf", "glues-cartesian", "gapped-cartesian", "glues-probe", "gapped-probe",
    "representable-additive", "constant-not-additive",
]
_M2, _MC2, _M3 = ("M2", "model category"), ("MC2", "model category"), ("M3", "model category")


def _ghost_weq(raw):
    """Edit of modular.json: every model category labels the unknown morphism ``ghost`` a weak equivalence."""
    for model in raw["model_cats"].values():
        model["weq"].append("ghost")


@pytest.mark.parametrize(
    "command,fixture,edit,gated",
    [
        pytest.param(
            "z-compose", "zlin.json", put("categories", "zbase", "composition", "g1|f1", value="g2f1"),
            _gated(["split-composite"], ("zbase", "category")), id="z_compose-category",
        ),
        pytest.param(
            "site-check", "chain3.json", put("coverings", "K", "families", "T", 0, value=["B<T", "A<B"]),
            _gated(["axioms"], _K), id="grothendieck-covering",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", put("coverings", "K", "families", "T", 0, value=["B<T", "A<B"]),
            _gated(["glues-sheaf", "gapped-sheaf", "glues-probe", "gapped-probe"], _K), id="sheaf-covering",
        ),
        pytest.param(
            "blur-check", "chain3.json", put("coverings", "K", "families", "T", 0, value=["B<T", "A<B"]),
            _gated(["blurry-triv", "blurry-ab"], _K), id="blurry-covering",
        ),
        pytest.param(
            "site-check", "layered2.json", put("coverings", "K1", "families", "P'", 0, value=["E'<T'"]),
            _gated(["top-cover", "mid-cover", "composite-cover", "stable-identity", "stable-corner"],
                   ("K1", "covering")),
            id="powered-covering",
        ),
        pytest.param(
            "blur-check", "layered2.json", put("coverings", "K1", "families", "P'", 0, value=["E'<T'"]),
            _gated(["two-level-blurry"], ("K1", "covering")), id="powered-blurry-covering",
        ),
        pytest.param(
            "site-check", "layered2.json", drop("layered", "L", "membership", 0, "E'"),
            {
                **_gated(["top-cover"], _L, ("lad", "ladder")),
                **_gated(["mid-cover"], _L, ("lad2", "ladder")),
                **_gated(["composite-cover"], _L, ("ladc", "ladder")),
                **_gated(["stable-identity"], _L, ("lad", "ladder"), ("lid", "ladder")),
                **_gated(["stable-corner"], _L, ("lad", "ladder"), ("ladc", "ladder")),
            },
            id="powered-layered",
        ),
        pytest.param(
            "blur-check", "layered2.json", drop("layered", "L", "membership", 0, "E'"),
            _gated(["two-level-blurry"], _L), id="powered-blurry-layered",
        ),
        pytest.param(
            "site-check", "layered2.json", _CROSSED,
            _gated(["top-cover", "stable-identity", "stable-corner"], ("lad", "ladder")), id="ladder",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", put("presheaves", "glues", "restrictions", "id_B", "s", value="t"),
            _gated(["glues-sheaf", "glues-cartesian", "glues-probe"], ("glues", "presheaf")), id="presheaf",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", put("squares", "sq", "w_to_u", value="id_T"),
            _gated(["glues-cartesian", "gapped-cartesian", "glues-probe", "gapped-probe"], ("sq", "square")),
            id="squares-probe-square",
        ),
        pytest.param(
            "site-check", "chain3.json", put("squares", "sq", "w_to_u", value="id_T"),
            _gated(["distinguished"], ("sq", "square")), id="site-square",
        ),
        pytest.param(
            "blur-check", "chain3.json", put("partitions", "ab", "blocks", value=[["A", "B"]]),
            _gated(["gamma-ab", "blurry-ab"], ("ab", "partition")), id="partition",
        ),
        pytest.param(
            "site-check", "etale2.json", put("zmorphisms", "psi2", "terms", 0, 3, value="h"),
            _gated(["joint-cover", "misses-a", "lemma-joint", "lemma-partial"], ("psi2", "zmorphism")),
            id="zmorphism",
        ),
        pytest.param(
            "parametrize", "modular.json", put("functors", "swap", "morphisms", "u", value="u"),
            _gated(["pullback-chain"], ("swap", "functor")), id="functor",
        ),
        # a label naming no morphism gave class_member_known on model_axioms
        # alone, and class_types, quotient_model and parametrize passed
        pytest.param(
            "model-check", "modular.json", _ghost_weq,
            {**_gated(["axioms-M2", "collapse-pair"], _M2), **_gated(["axioms-MC2"], _MC2),
             **_gated(["axioms-M3", "mixed-types"], _M3)},
            id="model-check-model",
        ),
        pytest.param(
            "parametrize", "modular.json", _ghost_weq,
            {**_gated(["point-into-pair", "pullback-chain"], _M2),
             **_gated(["chain-into-chain", "point-into-chain"], _MC2),
             **_gated(["pair-onto-point"], ("Mone", "model category"))},
            id="parametrize-model",
        ),
        # a document on a category that fails validation is not judged
        # either, by the gate or by validate, whatever unknown id its
        # validator or checker would meet first
        pytest.param(
            "sheaf-check", "chain3.json", _NO_ID_A, _gated(_CHAIN3_SHEAF_CHECKS, _CHAIN3), id="sheaf-identity-missing",
        ),
        pytest.param(
            "validate", "chain3.json", _NO_ID_A, _gated(_CHAIN3_DOCUMENTS, _CHAIN3), id="validate-identity-missing",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", _BENT, _gated(_CHAIN3_SHEAF_CHECKS, _CHAIN3), id="sheaf-bent-composite",
        ),
        pytest.param(
            "validate", "chain3.json", _BENT, _gated(_CHAIN3_DOCUMENTS, _CHAIN3), id="validate-bent-composite",
        ),
        pytest.param(
            "parametrize", "modular.json", drop("categories", "m2", "identities", "a"),
            _gated(["point-into-pair", "pair-onto-point", "pullback-chain"], ("m2", "category")),
            id="parametrize-identity-missing",
        ),
        pytest.param(
            "validate", "modular.json", drop("categories", "m2", "identities", "a"),
            _gated(["swap-functor"], ("m2", "category")), id="validate-identity-missing-on-a-functor-end",
        ),
    ],
)
def test_checks_reading_an_invalid_document_are_precondition_failures(capsys, tmp_path, command, fixture, edit, gated):
    # the edit keeps the workspace schema-valid but makes documents fail
    # their validators; a check that reads any of them gives one
    # precondition finding per such document and no verdict or result,
    # and the checks that read none run as before
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2 and err == ""
    entries = {entry["label"]: entry for entry in json.loads(out)["checks"]}
    assert set(gated) <= set(entries)
    for label, entry in entries.items():
        if label in gated:
            assert entry["findings"] == [
                {"kind": "structural", "rule": "precondition", "witnesses": [name], "detail": f"{noun} fails validation"}
                for name, noun in sorted(gated[label])
            ], label
            assert "result" not in entry
        else:
            assert all(f["rule"] != "precondition" for f in entry["findings"]), label


def test_no_stability_verdict_on_an_invalid_member_ladder(capsys, tmp_path):
    # lad's arrows cross the membership map, so validate_ladder fails it and
    # no law finding (such as family_covering) may be given on it
    code, out, err = _run_edited(capsys, tmp_path, "site-check", "layered2.json", "stable-identity", [_CROSSED])
    assert (code, err) == (2, "")
    assert out.splitlines() == [
        "[FAIL] stable-identity (powered_stability)",
        "  [structural] precondition (lad): ladder fails validation",
        "site-check: 1 checks, 0 passed, 1 failed",
    ]


def test_a_wrong_expect_terms_lists_both_term_lists(capsys, tmp_path):
    with open(fixture_path("zlin.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    (spec,) = [c for c in doc["checks"] if c["kind"] == "z_compose"]
    spec["expect_terms"] = [[1, 1, 2, "g1f1"], [2, 2, 2, "g2f2"]]
    path = tmp_path / "zlin-wrong.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["z-compose", str(path)])
    assert code == 1 and err == ""
    (entry,) = json.loads(out)["checks"]
    assert [f for f in entry["findings"] if f["rule"] == "expected_terms"] == [
        {"kind": "law", "rule": "expected_terms", "witnesses": [],
         "detail": "expected [(1, 1, 2, 'g1f1'), (2, 2, 2, 'g2f2')], got [(1, 1, 2, 'g1f1'), (2, 2, 1, 'g2f2')]"}
    ]
    assert entry["result"]["terms"] == [[1, 1, 2, "g1f1"], [2, 2, 1, "g2f2"]]


def test_loose_level_naming_no_level_is_structural(capsys, tmp_path):
    with open(fixture_path("layered2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    (spec,) = [c for c in doc["checks"] if c["kind"] == "powered_blurry"]
    spec["loose"] = [7, -1]
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["blur-check", str(path)])
    assert code == 2 and err == ""
    (entry,) = json.loads(out)["checks"]
    assert entry["findings"] == [
        {"kind": "structural", "rule": "inputs", "witnesses": [],
         "detail": "loose levels [-1, 7] name no level of 2 blurry sites"}
    ]


@pytest.mark.parametrize(
    "command,fixture,label,inside,field,setting",
    [
        ("sheaf-check", "chain3.json", "glues-sheaf", (), "covering", {}),
        ("blur-check", "layered2.json", "two-level-blurry", ("levels", 1), "partition", {}),
        # the ladder is read before any level is probed, so an unknown loose
        # level does not hide the missing ladder
        ("blur-check", "layered2.json", "two-level-blurry", (), "arrows", {"loose": [7]}),
    ],
    ids=[
        "sheaf-check-chain3.json-glues-sheaf-inside0-covering",
        "blur-check-layered2.json-two-level-blurry-inside1-partition",
        "blur-check-layered2.json-two-level-blurry-arrows-loose",
    ],
)
def test_missing_spec_field_is_still_a_workspace_error(
    capsys, tmp_path, command, fixture, label, inside, field, setting
):
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    pos, spec = next((pos, c) for pos, c in enumerate(doc["checks"]) if c["label"] == label)
    spec.update(setting)
    for key in inside:
        spec = spec[key]
    del spec[field]
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2 and out == ""
    assert err == f"error: checks[{pos}]: missing field {field!r}\n"


@pytest.mark.parametrize(
    "command,fixture,kind,field,value,expected",
    [
        ("site-check", "layered2.json", "powered_cover", "coverings", 5, "a list of ids"),
        ("site-check", "etale2.json", "nisnevich", "family", 5, "a list of ids"),
        ("model-check", "modular.json", "class_types", "expect_types", 3, "a list of strings"),
        ("blur-check", "layered2.json", "powered_blurry", "arrows", 7, "a list of strings"),
        ("blur-check", "layered2.json", "powered_blurry", "levels", ["K0"], "a list of objects"),
        ("sheaf-check", "chain3.json", "squares_probe", "squares", "sq", "a list of ids"),
        ("parametrize", "modular.json", "enumerate_fes", "expect_count", "3", "of type integer"),
        ("blur-check", "poset2.json", "gamma", "expect", "false", "of type boolean"),
        ("fingerprint", "fingerprint.json", "z_equiv", "expect", "true", "of type boolean"),
    ],
)
def test_mistyped_spec_field_is_a_workspace_error(
    capsys, tmp_path, command, fixture, kind, field, value, expected
):
    # a wrong JSON type in a check spec names the field instead of crashing
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    pos, spec = next((pos, c) for pos, c in enumerate(doc["checks"]) if c["kind"] == kind and field in c)
    spec[field] = value
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2 and out == ""
    assert err == f"error: checks[{pos}]: field {field!r} must be {expected}\n"


@pytest.mark.parametrize(
    "command,fixture,label,field,value,expected",
    [
        ("parametrize", "modular.json", "chain-into-chain", "expect_count", True, "of type integer"),
        ("blur-check", "layered2.json", "two-level-blurry", "loose", [True], "a list of integers"),
    ],
)
def test_a_boolean_is_no_integer_in_a_check_spec(capsys, tmp_path, command, fixture, label, field, value, expected):
    # JSON true is a Python int: it counted as 1, or declared level 1 loose
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        pos = next(pos for pos, c in enumerate(json.load(fh)["checks"]) if c["label"] == label)
    code, out, err = _run_edited(capsys, tmp_path, command, fixture, label, [put("checks", pos, field, value=value)])
    assert (code, out, err) == (2, "", f"error: checks[{pos}]: field {field!r} must be {expected}\n")


def _copy(table, name, new, **fields):
    """Edit of a raw workspace: a copy of ``table[name]`` named ``new``, with ``fields`` set."""

    def edit(raw):
        raw[table][new] = {**raw[table][name], **fields}

    return edit


def _twin(catname):
    """Edit of a raw workspace: a copy of category ``catname`` named ``catname + "2"``."""
    return _copy("categories", catname, catname + "2")


def _run_edited(capsys, tmp_path, command, fixture, label, edits):
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    for edit in edits:
        edit(doc)
    path = tmp_path / fixture
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run(capsys, [command, str(path), "--only", label, "--format", "text"])


@pytest.mark.parametrize(
    "command,fixture,label,edits,line",
    [
        pytest.param(
            "site-check", "etale2.json", "full-cover",
            [_twin("etale2"), _copy("zmorphisms", "psi1", "psi9", category="etale22"),
             put("checks", 6, "family", value=["psi1", "psi9"])],
            "error: checks[6]: family[1] lives on etale22, base on etale2",
            id="nisnevich-family",
        ),
        pytest.param(
            "site-check", "etale2.json", "full-cover",
            [_twin("etale2"), put("zmorphisms", "psi1", "category", value="etale22")],
            "error: checks[6]: family[0] lives on etale22, base on etale2",
            id="nisnevich-base",
        ),
        pytest.param(
            "site-check", "chain3.json", "distinguished",
            [_twin("chain3"), put("squares", "sq", "category", value="chain32")],
            "error: checks[6]: square lives on chain32, base on chain3",
            id="square",
        ),
        pytest.param(
            "site-check", "layered2.json", "top-cover",
            [_copy("layered", "L", "L2"), put("checks", 0, "layered", value="L2")],
            "error: checks[0]: ladder 'lad' belongs to layered category 'L'",
            id="ladder",
        ),
        pytest.param(
            "blur-check", "chain3.json", "blurry-triv",
            [_twin("chain3"), put("partitions", "triv", "category", value="chain32")],
            "error: checks[17]: covering lives on chain3, partition on chain32",
            id="blurry-site",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", "glues-sheaf",
            [_twin("chain3"), put("coverings", "K", "category", value="chain32")],
            "error: checks[7]: presheaf lives on chain3, covering on chain32",
            id="sheaf",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", "glues-cartesian",
            [_twin("chain3"), put("squares", "sq", "category", value="chain32")],
            "error: checks[9]: presheaf lives on chain3, square on chain32",
            id="cartesian",
        ),
        pytest.param(
            "sheaf-check", "chain3.json", "glues-probe",
            [_twin("chain3"), put("squares", "sq", "category", value="chain32")],
            "error: checks[11]: square 'sq' lives on chain32, presheaf on chain3",
            id="squares-probe",
        ),
        pytest.param(
            "model-check", "modular.json", "mixed-types",
            [_twin("m3"), put("partitions", "m3p", "category", value="m32")],
            "error: checks[9]: partition lives on m32, model on m3",
            id="class-types",
        ),
        pytest.param(
            "model-check", "modular.json", "collapse-pair",
            [_twin("m2"), put("partitions", "mab", "category", value="m22")],
            "error: checks[10]: partition lives on m22, model on m2",
            id="quotient-model",
        ),
        pytest.param(
            "parametrize", "modular.json", "pullback-chain",
            [put("checks", 8, "model", value="M3")],
            "error: checks[8]: outer functor must land in the model's base",
            id="precompose",
        ),
        pytest.param(
            "parametrize", "modular.json", "pullback-chain",
            [put("functors", "idm3", value={
                "source": "m3", "target": "m3", "objects": {o: o for o in ("A", "A'", "B")},
                "morphisms": {m: m for m in ("f", "g", "id_A", "id_A'", "id_B")},
             }),
             put("checks", 8, "inner", value="idm3")],
            "error: checks[8]: inner functor must land in the outer functor's source",
            id="precompose-chain",
        ),
        pytest.param(
            "z-compose", "zlin.json", "split-composite",
            [_twin("zbase"), put("zmorphisms", "psi", "category", value="zbase2")],
            "error: checks[3]: outer lives on zbase2, inner on zbase",
            id="z-compose",
        ),
    ],
)
def test_inputs_on_different_categories_are_named(capsys, tmp_path, command, fixture, label, edits, line):
    code, out, err = _run_edited(capsys, tmp_path, command, fixture, label, edits)
    assert code == 2
    assert line in (err + out).splitlines()


def _gapped_quotient(raw):
    """Edit of modular.json: ``collapse-pair`` glues y and z of x -> y, z -> w,
    so the class morphisms [x] -> [y+z] -> [w] have no composite."""
    ids = {o: f"id_{o}" for o in "xyzw"}
    composition = {f"{i}|{i}": i for i in ids.values()}
    composition.update({"f|id_x": "f", "id_y|f": "f", "g|id_z": "g", "id_w|g": "g"})
    morphisms = {i: [o, o] for o, i in ids.items()}
    morphisms.update({"f": ["x", "y"], "g": ["z", "w"]})
    raw["categories"]["gap"] = {
        "objects": list(ids), "morphisms": morphisms, "identities": ids, "composition": composition
    }
    every = sorted(morphisms)
    raw["model_cats"]["MG"] = {"category": "gap", "weq": every, "cof": every, "fib": every}
    raw["partitions"]["yz"] = {"category": "gap", "blocks": [["x"], ["y", "z"], ["w"]]}
    raw["checks"][10].update(model="MG", partition="yz")


# one edit of a bundled fixture per rule that a check's runner in cli gives:
# (command, fixture, label, edits, exit code, a line of the text report)
CHECK_RULES = [
    pytest.param(
        "model-check", "modular.json", "mixed-types", [put("checks", 9, "expect_types", value=["cof"])],
        1, "  [law] expected_types (cof): observed ['cof', 'weq']", id="expected_types",
    ),
    pytest.param(
        "model-check", "modular.json", "collapse-pair", [_gapped_quotient], 1,
        "  [law] quotient_composability ([x], [y+z], [w]): classes [x]->[y+z] and [y+z]->[w] compose to the "
        "uninhabited [x]->[w]",
        id="quotient_rejected",
    ),
    pytest.param(
        "fingerprint", "fingerprint.json", "parts", [put("fingerprints", "tab", value={"b": [2]})],
        2, "  [structural] fingerprint_known (a): no fingerprint for base object a", id="fingerprint_known-invariant",
    ),
    pytest.param(
        "fingerprint", "fingerprint.json", "same-dims", [put("fingerprints", "tab", value={"b": [2]})],
        2, "  [structural] fingerprint_known (a): no fingerprint for base object a", id="fingerprint_known-z_equiv",
    ),
    # the first base object without a fingerprint in component order, b
    # before a in fY, and in the left sum before the right one
    pytest.param(
        "fingerprint", "fingerprint.json", "parts",
        [put("fingerprints", "tab", value={"c": [1, 1]}), put("checks", 0, "zobject", value="fY")],
        2, "  [structural] fingerprint_known (b): no fingerprint for base object b",
        id="fingerprint_known-component-order",
    ),
    pytest.param(
        "fingerprint", "fingerprint.json", "same-dims", [put("fingerprints", "tab", value={"a": [1, 1], "b": [2]})],
        2, "  [structural] fingerprint_known (c): no fingerprint for base object c", id="fingerprint_known-right",
    ),
    pytest.param(
        "fingerprint", "fingerprint.json", "same-dims", [put("checks", 1, "expect", value=False)],
        1, "  [law] expected_outcome (-): expected False, observed True", id="z_equiv-expected_outcome",
    ),
    pytest.param(
        "sheaf-check", "chain3.json", "representable-additive", [put("checks", 13, "flavor", value="mixed")],
        2, "error: checks[13]: unknown additivity flavor 'mixed'", id="additivity-flavor",
    ),
    pytest.param(
        "z-compose", "zlin.json", "split-composite", [put("zmorphisms", "phi", "terms", 0, value=[1, 1, 1, "f1"])],
        2, "  [structural] precondition (phi): zmorphism fails validation", id="z_compose-precondition",
    ),
    pytest.param(
        "z-compose", "zlin.json", "split-composite",
        [put("zobjects", "src", "components", value=[[1, "X1", 4], [2, "X2", -1]]),
         put("zmorphisms", "phi", "terms", value=[[1, 1, 4, "f1"], [2, 1, -1, "f2"]])],
        1, "  [law] compose_defined (psi, phi): middle 1 mixes signs ((4, -1) against (2, 1))", id="compose_defined",
    ),
    pytest.param(
        "z-compose", "zlin.json", "split-composite",
        [put("checks", 3, "outer", value="phi"), put("checks", 3, "inner", value="psi")],
        2, "  [structural] compose_inputs (phi, psi): middle mismatch: target(inner) != source(outer); "
        "first difference (1, 'X1', 2)",
        id="compose_inputs",
    ),
]


@pytest.mark.parametrize("command,fixture,label,edits,code,line", CHECK_RULES)
def test_each_check_rule_fires_on_an_edited_fixture(capsys, tmp_path, command, fixture, label, edits, code, line):
    got, out, err = _run_edited(capsys, tmp_path, command, fixture, label, edits)
    assert got == code
    assert line in (err + out).splitlines()


@pytest.mark.parametrize(
    "command,label,edits,error",
    [
        ("site-check", "top-cover", [put("checks", 0, "coverings", value=["K1", "K0"])],
         "checks[0]: coverings[0] lives on inner3, level 0 on poset2"),
        ("site-check", "stable-identity", [put("checks", 3, "coverings", value=["K1", "K1"])],
         "checks[3]: coverings[0] lives on inner3, level 0 on poset2"),
        ("site-check", "top-cover", [put("checks", 0, "coverings", value=["K0", "K0", "K1"])],
         "checks[0]: coverings[1] lives on poset2, level 1 on inner3"),
        ("blur-check", "two-level-blurry", [lambda raw: raw["checks"][5]["levels"].reverse()],
         "checks[5]: levels[0] lives on inner3, level 0 on poset2"),
    ],
)
def test_a_level_on_another_category_is_a_workspace_error(capsys, tmp_path, command, label, edits, error):
    # each level's covering (or blurry site) must live on that level of the
    # layered category, for every level both lists have
    code, out, err = _run_edited(capsys, tmp_path, command, "layered2.json", label, edits)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "command,fixture,label,edits,error",
    [
        ("sheaf-check", "chain3.json", "representable-additive",
         [put("zobjects", "zX", "components", value=[[1, "Ghost", 2], [2, "A", 1]])],
         "checks[13]: zobject 'zX' names 'Ghost', which is not an object of chain3"),
        ("sheaf-check", "chain3.json", "constant-not-additive",
         [put("zobjects", "zX", "components", value=[[1, "Ghost", 2], [2, "A", 1]])],
         "checks[14]: zobject 'zX' names 'Ghost', which is not an object of chain3"),
        ("sheaf-check", "chain3.json", "representable-additive",
         [put("zobjects", "zT", "components", value=[[1, "Ghost", 1]])],
         "checks[13]: zobject 'zT' names 'Ghost', which is not an object of chain3"),
        ("site-check", "etale2.json", "full-cover",
         [put("zobjects", "X", "components", value=[[1, "Ghost", 1]]), put("checks", 6, "family", value=[])],
         "checks[6]: zobject 'X' names 'Ghost', which is not an object of etale2"),
        ("site-check", "etale2.json", "lemma-joint",
         [put("zobjects", "X", "components", value=[[1, "X1", 2], [2, "Ghost", 1]])],
         "checks[10]: zobject 'X' names 'Ghost', which is not an object of etale2"),
    ],
)
def test_a_zobject_off_the_category_is_a_workspace_error(capsys, tmp_path, command, fixture, label, edits, error):
    # a vacuous pass on objects the category lacks would read as a verdict
    code, out, err = _run_edited(capsys, tmp_path, command, fixture, label, edits)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_a_squares_probe_without_squares_gets_no_verdict(capsys, tmp_path):
    # with no declared square, "every square is cartesian" holds vacuously
    # and comparing the sheaf verdict with it gave a law finding (exit 1)
    def no_squares(doc):
        (spec,) = [c for c in doc["checks"] if c["label"] == "gapped-probe"]
        spec["squares"] = []

    code, out, err = _run_edited(capsys, tmp_path, "sheaf-check", "chain3.json", "gapped-probe", [no_squares])
    assert (code, err) == (2, "")
    assert "  [structural] squares_declared (-): no declared square to compare the sheaf condition with\n" in out
    assert "squares_sheaf_agreement" not in out


# one validate kind per role of cli._VALIDATORS, on a fixture edited so
# that the named document fails: (kind, fixture, name, edit, exit code, the
# check's first finding)
_BROKEN = "  [structural] membership_total (1, E'): object not mapped"
VALIDATE_KINDS = [
    ("validate_category", "chain3.json", "chain3", put("categories", "chain3", "composition", "B<T|A<B", value="B<T"),
     1, "  [law] composite_endpoints (B<T, A<B, B<T): composite endpoints ('B', 'T') != ('A', 'T')"),
    ("validate_functor", "modular.json", "swap", put("functors", "swap", "morphisms", "u", value="u"),
     1, "  [law] composition_preservation (id_b, u): F(g∘f) = u but F(g)∘F(f) = None"),
    ("validate_partition", "chain3.json", "ab", put("partitions", "ab", "blocks", value=[["A", "B"]]),
     2, "  [structural] blocks_exhaustive (T): object missing from the partition"),
    ("z_validate", "zlin.json", "phi", put("zmorphisms", "phi", "terms", 0, 3, value="f2"),
     2, "  [structural] term_arrow_endpoints (1, 1, f2): arrow endpoints ('X2', 'Y') != ('X1', 'Y')"),
    ("validate_pointed_base", "chain3.json", "base", drop("pointed_bases", "base", "point_map", "A<B"),
     2, "  [structural] point_map_declared (A<B): no point map"),
    ("validate_covering", "chain3.json", "K", put("coverings", "K", "families", "T", 0, value=["B<T", "A<B"]),
     2, "  [structural] covering_member_target (T, A<B): targets B, not the assigned object"),
    ("validate_presheaf", "chain3.json", "glues", put("presheaves", "glues", "restrictions", "id_B", "s", value="t"),
     1, "  [law] contravariance (B<T, id_B, s): F(B<T) sends s to s, the factors send it to t"),
    ("validate_model", "modular.json", "M2", put("model_cats", "M2", "weq", value=["id_a", "id_b", "u", "v", "ghost"]),
     2, "  [structural] class_member_known (weq, ghost): unknown morphism"),
    ("validate_square", "chain3.json", "sq", put("squares", "sq", "w_to_u", value="id_T"),
     2, "  [structural] square_apex (A<B, id_T): the two W-legs have different sources"),
    ("validate_layered", "layered2.json", "L", drop("layered", "L", "membership", 0, "E'"), 2, _BROKEN),
    ("validate_ladder", "layered2.json", "lad", drop("layered", "L", "membership", 0, "E'"), 2, _BROKEN),
]


def test_validate_has_one_kind_per_validator_besides_quotient():
    kinds = [kind for kind, *_rest in VALIDATE_KINDS]
    assert sorted(COMMAND_KINDS["validate"]) == sorted(kinds + ["quotient"])


def test_the_gate_and_the_fuzz_oracle_validate_the_same_roles():
    assert set(cli._VALIDATORS) == set(_FAILS_VALIDATION)


@pytest.mark.parametrize("fixture", [name for name in FIXTURE_NAMES if name != "malformed.json"])
def test_every_validator_row_returns_a_report_from_the_entry_alone(fixture):
    ws = load_workspace(fixture_path(fixture))
    for role, row in cli._VALIDATORS.items():
        for name, entry in getattr(ws, DOCUMENTS[role][0]).items():
            assert isinstance(row(entry), Report), (role, name)


def _readme_command_kinds() -> dict:
    """README's command -> check kinds table, read off its rows."""
    with open(ROOT / "README.md", encoding="utf-8") as fh:
        lines = fh.read().split("| command | check kinds |\n|---|---|\n", 1)[1].split("\n")
    rows = [line.strip("|").split("|") for line in itertools.takewhile(lambda line: line.startswith("|"), lines)]
    def names(cell):
        return tuple(name.strip().strip("`") for name in cell.split(","))

    return {names(command)[0]: names(kinds) for command, kinds in rows}


def test_readme_lists_the_kinds_of_every_command_in_table_order():
    assert _readme_command_kinds() == COMMAND_KINDS


def test_every_enumeration_defaults_to_the_one_budget():
    budgeted = [
        refined_families, covering_gaps, covering_axiom_findings, grothendieck_axiom_check,
        matching_families, sheaf_check, squares_vs_sheaf_probe,
        blurry_axiom_probe, powered_blurry_check, enumerate_fes,
    ]
    for fn in budgeted:
        assert inspect.signature(fn).parameters["budget"].default == DEFAULT_BUDGET, fn.__name__
    for command in COMMAND_KINDS:
        args = cli._build_parser().parse_args([command, "workspace.json"])
        assert args.budget == DEFAULT_BUDGET


@pytest.mark.parametrize("kind,fixture,name,edit,code,line", VALIDATE_KINDS, ids=[c[0] for c in VALIDATE_KINDS])
def test_validate_reports_what_the_gate_refuses(capsys, tmp_path, monkeypatch, kind, fixture, name, edit, code, line):
    # each validate kind reads the gate's own definition of a valid document
    role = "zmorphism" if kind == "z_validate" else kind.removeprefix("validate_")
    calls, real, loaded, load = [], cli._VALIDATORS[role], [], cli.load_workspace
    monkeypatch.setitem(cli._VALIDATORS, role, lambda entry: calls.append(entry) or real(entry))
    monkeypatch.setattr(cli, "load_workspace", lambda path: loaded.append(load(path)) or loaded[-1])
    edits = [edit, lambda raw: raw["checks"].append({"kind": kind, "label": "shape", role: name})]
    got, out, err = _run_edited(capsys, tmp_path, "validate", fixture, "shape", edits)
    assert (got, err) == (code, "")
    assert out.splitlines()[:2] == [f"[FAIL] shape ({kind})", line]
    (ws,) = loaded
    assert calls == [getattr(ws, DOCUMENTS[role][0])[name]]


# the library's validators, each the checker of one cli._VALIDATORS row;
# check_functor, the functor row's, is left out: precompose also calls it
# to verify each composite functor it builds
_LIBRARY_VALIDATORS = (
    "validate_category",
    "validate_partition",
    "z_validate",
    "validate_pointed_base",
    "validate_covering",
    "validate_presheaf",
    "validate_model",
    "validate_square",
    "validate_layered",
    "validate_ladder",
)


@pytest.mark.parametrize("fixture", [name for name in FIXTURE_NAMES if name not in ("failing.json", "malformed.json")])
def test_no_checker_validates(monkeypatch, fixture):
    # every validator call comes straight from a _VALIDATORS row (a ladder's
    # validator runs its layered category's first), and a row runs at most
    # once per document and run
    stack, rows, stray = [], [], []

    def row_wrapper(role, row):
        def wrapper(entry):
            rows.append((role, id(entry)))
            stack.append(("row", role))
            try:
                return row(entry)
            finally:
                stack.pop()

        return wrapper

    def validator_wrapper(name, real):
        def wrapper(*args, **kwargs):
            top = stack[-1] if stack else None
            if not (top and top[0] == "row" or name == "validate_layered" and top == ("validator", "validate_ladder")):
                stray.append((name, top))
            stack.append(("validator", name))
            try:
                return real(*args, **kwargs)
            finally:
                stack.pop()

        return wrapper

    for role, row in list(cli._VALIDATORS.items()):
        monkeypatch.setitem(cli._VALIDATORS, role, row_wrapper(role, row))
    for module in [module for key, module in sorted(sys.modules.items()) if key.startswith("zsite.")]:
        for name in _LIBRARY_VALIDATORS:
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, validator_wrapper(name, getattr(module, name)))
    for command in COMMAND_KINDS:
        rows.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, fixture_path(fixture)]) in (0, 1)
        assert len(rows) == len(set(rows)), (command, rows)
        assert stray == [], command


def test_a_refinement_names_its_first_missing_composite_by_member(tmp_path):
    # {P<T, Q<T} refines by the families of P and of Q; with the composites
    # through E<P and E<Q both gone, the first member's is the one named.
    # The command line gates the holed category out, so the checker is
    # called directly
    with open(fixture_path("poset2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("P<T|E<P", "Q<T|E<Q"):
        drop("categories", "poset2", "composition", key)(doc)
    path = tmp_path / "poset2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ws = load_workspace(str(path))
    with pytest.raises(InputError) as raised:
        grothendieck_axiom_check(ws.categories["poset2"], ws.coverings["K"][1])
    assert str(raised.value) == "poset2: no composite for (P<T after E<P)"


@pytest.mark.parametrize("command,fixture,count", PASSING)
def test_output_is_identical_across_runs(capsys, command, fixture, count):
    _code, first, _err = run(capsys, [command, fixture_path(fixture)])
    _code, second, _err = run(capsys, [command, fixture_path(fixture)])
    assert first == second


def test_output_is_independent_of_hash_seed():
    # canonical ordering must not lean on set iteration order, so the bytes
    # have to survive a change of PYTHONHASHSEED across processes
    argv = [sys.executable, "-m", "zsite.cli", "blur-check", fixture_path("poset2.json")]
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            argv,
            capture_output=True,
            env=cli_env(PYTHONHASHSEED=seed),
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# runs every bundled fixture under validate with jsonschema made unimportable
_WITHOUT_JSONSCHEMA = """
import contextlib, io, json, sys
import zsite.cli
imported = sorted(name for name in sys.modules if name.startswith("jsonschema"))
sys.modules["jsonschema"] = None
runs = []
for path in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zsite.cli.main(["validate", path])
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"imported": imported, "runs": runs}))
"""


def test_the_command_line_needs_no_jsonschema(capsys):
    paths = [fixture_path(name) for name in FIXTURE_NAMES]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_JSONSCHEMA, *paths],
        capture_output=True,
        env=cli_env(),
        check=True,
    )
    child = json.loads(proc.stdout)
    assert child["imported"] == []
    assert child["runs"] == [list(run(capsys, ["validate", path])) for path in paths]


def test_the_command_line_imports_nothing_it_only_annotates_or_reflects_with():
    # -S keeps site-packages' .pth hooks from importing these on their own
    probe = "import sys, zsite.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    unwanted = ["dataclasses", "importlib.resources", "inspect", "typing"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe, *unwanted],
        capture_output=True,
        text=True,
        env=cli_env(),
        check=True,
    )
    assert proc.stdout == "[]\n"


def test_only_filter_selects_one_label(capsys):
    code, out, _err = run(capsys, ["validate", fixture_path("poset2.json"), "--only", "cat"])
    assert code == 0
    doc = json.loads(out)
    assert [entry["label"] for entry in doc["checks"]] == ["cat"]


def test_only_filter_with_unknown_label_is_vacuous(capsys):
    code, out, _err = run(capsys, ["validate", fixture_path("poset2.json"), "--only", "no-such"])
    assert code == 0
    assert json.loads(out)["checks"] == []


def test_z_compose_flags_print_the_composite(capsys):
    code, out, _err = run(
        capsys,
        ["z-compose", fixture_path("zlin.json"), "--outer", "psi", "--inner", "phi"],
    )
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["checks"]
    assert entry["label"] == "cli"
    assert entry["result"]["terms"] == [[1, 1, 2, "g1f1"], [2, 2, 1, "g2f2"]]


def test_z_compose_needs_both_flags(capsys):
    code, out, err = run(capsys, ["z-compose", fixture_path("zlin.json"), "--outer", "psi"])
    assert code == 2
    assert out == ""
    assert "--outer and --inner" in err


def test_z_compose_flag_errors_name_the_flags(capsys):
    # the spec built from --outer/--inner is no check of the workspace
    code, out, err = run(capsys, ["z-compose", fixture_path("zlin.json"), "--outer", "psi", "--inner", "nosuch"])
    assert code == 2 and out == ""
    assert err == "error: --outer/--inner: unknown zmorphism 'nosuch'\n"


def test_negative_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parametrize", fixture_path("modular.json"), "--budget", "-5"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --budget: must be non-negative, got -5" in captured.err
    # a zero budget is a budget every enumeration overruns
    code, out, _err = run(capsys, ["parametrize", fixture_path("modular.json"), "--budget", "0"])
    assert code == 2
    assert "budget" in {f["rule"] for entry in json.loads(out)["checks"] for f in entry["findings"]}


def test_expectation_downgrades_laws_to_observations(capsys):
    code, out, _err = run(
        capsys, ["blur-check", fixture_path("poset2.json"), "--only", "gamma-pq"]
    )
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["checks"]
    assert entry["ok"] is True
    kinds = {f["kind"] for f in entry["findings"]}
    assert kinds == {"info"}
    rules = {f["rule"] for f in entry["findings"]}
    assert "observed.product_compat" in rules
    assert "expected_outcome" in rules


@pytest.mark.parametrize(
    "command,fixture,kind",
    [
        ("z-compose", "zlin.json", "z_compose"),
        ("parametrize", "modular.json", "enumerate_fes"),
        ("model-check", "modular.json", "class_types"),
        ("fingerprint", "fingerprint.json", "invariant"),
    ],
)
def test_expect_is_applied_to_kinds_with_their_own_expectations(capsys, tmp_path, command, fixture, kind):
    # these kinds check expect_terms/expect_count/expect_types (or nothing)
    # themselves; a declared expect is still judged against their verdict
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    labels = [c["label"] for c in doc["checks"] if c["kind"] == kind]
    for spec in doc["checks"]:
        if spec["kind"] == kind:
            spec["expect"] = False
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, [command, str(path), "--format", "json"])
    assert code == 1 and err == ""
    entries = [e for e in json.loads(out)["checks"] if e["label"] in labels]
    assert len(entries) == len(labels) > 0
    for entry in entries:
        assert entry["ok"] is False
        assert {"kind": "law", "rule": "expected_outcome", "witnesses": [],
                "detail": "expected pass=False, observed pass=True"} in entry["findings"]


def test_text_format_summarizes(capsys):
    code, out, _err = run(capsys, ["validate", fixture_path("zlin.json"), "--format", "text"])
    assert code == 0
    assert "[PASS] cat (validate_category)" in out
    assert out.rstrip().endswith("validate: 3 checks, 3 passed, 0 failed")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_each_report_is_dropped_when_its_check_ends(capsys, monkeypatch, fmt):
    # main keeps a check's encoded entry, not its report: when a check
    # starts, at most the report of the check before it is still alive
    alive, refs, real = [], [], cli._run_check

    def wrapper(*args):
        alive.append(sum(ref() is not None for ref in refs))
        report, payload = real(*args)
        refs.append(weakref.ref(report))
        return report, payload

    monkeypatch.setattr(cli, "_run_check", wrapper)
    code, _out, err = run(capsys, ["validate", fixture_path("chain3.json"), "--format", fmt])
    assert code == 0 and err == "" and len(alive) == 5
    assert max(alive) <= 1, alive


# strings a report can hold: quotes, backslashes, control characters,
# non-ASCII and astral characters among arbitrary ones
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é€😀'), st.characters()), max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),
    _TEXT,
)


def _trees(leaves, keys=_TEXT):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=4),
            st.lists(kids, max_size=4).map(tuple),
            st.dictionaries(keys, kids, max_size=4),
        ),
        max_leaves=24,
    )


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


@settings(max_examples=200, deadline=None)
@given(_trees(_SCALARS))
def test_indented_emitter_writes_what_json_dumps_writes(tree):
    assert cli.dumps_indented(tree) == _json_dumps(tree)


@settings(max_examples=200, deadline=None)
@given(
    _trees(
        st.one_of(_SCALARS, st.sampled_from([b"raw", 1j, frozenset({1})]), st.builds(object)),
        keys=st.one_of(_TEXT, st.tuples(st.integers())),
    )
)
def test_indented_emitter_rejects_what_json_dumps_rejects(tree):
    try:
        expected = _json_dumps(tree)
    except TypeError:
        with pytest.raises(TypeError):
            cli.dumps_indented(tree)
    else:
        assert cli.dumps_indented(tree) == expected
