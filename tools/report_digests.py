"""Digest the CLI's output on every bundled fixture, command and format.

Runs ``zsite.cli.main`` in-process on each bundled fixture under each
command, once per ``--format``, and writes a JSON object that maps
``"FIXTURE COMMAND FORMAT"`` to the sha256 of the run's exit code, stdout
and stderr.  Run from the repository root:

    python3 tools/report_digests.py [OUT]

OUT defaults to tests/report_digests.json.  The test suite recomputes the
digests and compares them with that file, so a byte change in any bundled
report, error line or exit code fails a test.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from zsite.cli import COMMAND_KINDS, main  # noqa: E402

FIXTURES = ROOT / "src" / "zsite" / "fixtures"
OUT = ROOT / "tests" / "report_digests.json"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digests() -> dict[str, str]:
    result = {}
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command in COMMAND_KINDS:
            for fmt in ("json", "text"):
                code, out, err = run([command, str(fixture), "--format", fmt])
                blob = json.dumps([code, out, err], ensure_ascii=False).encode("utf-8")
                result[f"{fixture.name} {command} {fmt}"] = hashlib.sha256(blob).hexdigest()
    return result


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    out.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
