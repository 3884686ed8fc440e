import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_reports_match_the_pinned_digests():
    # exit code, stdout and stderr of every bundled fixture x command x format,
    # and every output of the seeded checker sweep, are pinned by
    # tools/report_digests.py; regenerate the file only when a report is meant
    # to change
    pinned = json.loads((ROOT / "tests" / "report_digests.json").read_text(encoding="utf-8"))
    got = _tool().digests()
    assert sorted(got) == sorted(pinned)
    changed = sorted(key for key in pinned if got[key] != pinned[key])
    assert changed == []
