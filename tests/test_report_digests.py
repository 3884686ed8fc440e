import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_reports_match_the_pinned_digests():
    # exit code, stdout and stderr of every bundled fixture x command x format,
    # every output of the seeded checker sweep, the term layouts of
    # seeded z-composites, z-compose on a seeded wide-sum workspace, every
    # command on each fixture with one composite deleted, every command on
    # eleven fixture edits that fail their own validator and the load error
    # of each fixture with one reference field naming nothing are pinned by
    # tools/report_digests.py, as are the covering closures of seeded poset
    # sites and the powered cover and stability reports of seeded towers;
    # regenerate the file only when a report or a layout is meant to change
    pinned = json.loads((ROOT / "tests" / "report_digests.json").read_text(encoding="utf-8"))
    got = _tool().digests()
    assert sorted(got) == sorted(pinned)
    changed = sorted(key for key in pinned if got[key] != pinned[key])
    assert changed == []


def test_sweeps_do_not_depend_on_the_hash_seed():
    # refinement rows are built in sorted arrow order, so a family with two
    # undefined composites raises the same error under every hash seed; the
    # enumeration, sheaf, closure and powered sweeps draw from sorted views
    # too, the load errors name the first dangling reference in document
    # order, the z-compose runs and term layouts follow component order, and
    # every command on the invalid-input workspaces gives the same bytes
    script = (
        "import json, sys; sys.path.insert(0, 'tools'); import report_digests as r; "
        "print(json.dumps([r._sha(r.sweep_outputs(seed=s)) for s in range(5, 10)] "
        "+ [r._sha(r.fes_outputs(seed=s)) + r._sha(r.sheaf_outputs(seed=s)) for s in range(5, 7)] "
        "+ [r._sha(r.closure_outputs(seed=s)) for s in range(5, 7)] "
        "+ [r._sha(r.powered_outputs(seed=s)) for s in range(5, 7)] "
        "+ [r._sha(r.decode_error_outputs()), r._sha(r.wide_outputs()), r._sha(r.layout_outputs(seed=5)), "
        "r._sha(r.invalid_outputs())]))"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    outs = [proc.communicate() for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _out, err in outs]
    assert outs[0][0] == outs[1][0]
