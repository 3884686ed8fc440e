import pathlib
import subprocess
import sys

from conftest import FIXTURE_NAMES

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_builder_reproduces_the_bundled_fixtures(tmp_path):
    # the committed fixtures are golden outputs of tools/build_fixtures.py
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "build_fixtures.py"), str(tmp_path)],
        check=True,
        capture_output=True,
    )
    shipped = ROOT / "src" / "zsite" / "fixtures"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIXTURE_NAMES)
    assert sorted(p.name for p in shipped.glob("*.json")) == sorted(FIXTURE_NAMES)
    for name in FIXTURE_NAMES:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
