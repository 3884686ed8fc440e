import contextlib
import io
import json
import random
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_NAMES, cli_env, fixture_path
from fuzz import damage_workspace
from zsite import cli
from zsite.cli import COMMAND_KINDS, main

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
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        raw = json.load(fh)
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


def test_dangling_projection_fails_only_its_checks(capsys, tmp_path):
    with open(fixture_path("chain3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["categories"]["chain3"]["pullbacks"]["B<T|B<T"] = ["B", "ghost", "id_B"]
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["sheaf-check", str(path)])
    assert code == 2 and err == ""
    report = json.loads(out)
    kinds = {"sheaf", "additivity", "cartesian", "squares_probe"}
    assert len(report["checks"]) == sum(c["kind"] in kinds for c in doc["checks"]) == 8
    sheaf = [e for e in report["checks"] if e["kind"] == "sheaf"]
    assert sheaf
    for entry in sheaf:
        assert {"kind": "structural", "rule": "inputs", "witnesses": ["ghost"],
                "detail": "unknown id 'ghost'"} in entry["findings"]
    # a check that never ran its law gets no verdict on its expectation
    for entry in report["checks"]:
        kinds = {f["kind"] for f in entry["findings"]}
        rules = {f["rule"] for f in entry["findings"]}
        assert not ("structural" in kinds and "expected_outcome" in rules), entry["label"]


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
    "command,gated",
    [
        ("blur-check", {"gamma", "blurry_probe"}),
        ("sheaf-check", {"sheaf", "cartesian", "squares_probe"}),
        ("site-check", {"grothendieck", "square"}),
    ],
    ids=["blur-check", "sheaf-check", "site-check"],
)
def test_checks_on_a_holed_category_are_precondition_failures(capsys, tmp_path, monkeypatch, command, gated):
    # every kind whose law assumes a valid category gives the precondition
    # finding on chain3 without id_B|A<B; the rest run as before
    with open(fixture_path("chain3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["categories"]["chain3"]["composition"]["id_B|A<B"]
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
                {"kind": "structural", "rule": "precondition", "witnesses": ["chain3"],
                 "detail": "category fails validation"}
            ]
        else:
            assert all(f["rule"] != "precondition" for f in entry["findings"])
    assert calls == ["chain3"]


def test_parametrizations_on_a_holed_category_are_precondition_failures(capsys, tmp_path, monkeypatch):
    # m2 without id_a|v fails validate_category; no functor enumeration,
    # precomposition or model law may then give a verdict on it, while a
    # check stopped by an unknown composite still names what stopped it
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
    for label in ("collapse-pair", "point-into-pair", "pair-onto-point"):
        assert entries[label]["findings"] == [
            {"kind": "structural", "rule": "precondition", "witnesses": ["m2"],
             "detail": "category fails validation"}
        ]
    for label in ("axioms-M2", "pullback-chain"):
        assert [f["rule"] for f in entries[label]["findings"]] == ["inputs"]
    for label in ("chain-into-chain", "point-into-chain", "axioms-MC2", "axioms-M3", "mixed-types"):
        assert entries[label]["ok"] is True


def test_z_compose_validates_each_factor_once_per_run(capsys, tmp_path, monkeypatch):
    with open(fixture_path("zlin.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    (spec,) = [c for c in doc["checks"] if c["kind"] == "z_compose"]
    doc["checks"] += [dict(spec, label="again"), dict(spec, label="swapped", outer="phi", inner="psi")]
    path = tmp_path / "zlin3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = counting(monkeypatch, "z_validate", lambda base, phi, subject: subject)
    for _run in range(2):
        _code, out, err = run(capsys, ["z-compose", str(path)])
        assert err == "" and len(json.loads(out)["checks"]) == 3
    # one verdict per factor document and run; the verdicts do not outlive a run
    assert sorted(calls) == ["phi", "phi", "psi", "psi"]


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
    "command,fixture,label,inside,field",
    [
        ("sheaf-check", "chain3.json", "glues-sheaf", (), "covering"),
        ("blur-check", "layered2.json", "two-level-blurry", ("levels", 1), "partition"),
    ],
)
def test_missing_spec_field_is_still_a_workspace_error(capsys, tmp_path, command, fixture, label, inside, field):
    with open(fixture_path(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    pos, spec = next((pos, c) for pos, c in enumerate(doc["checks"]) if c["label"] == label)
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
