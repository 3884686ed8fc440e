import inspect
import json
import os
from importlib import resources
from pathlib import Path

from clibench.oracles import Tables
from zsite.jsonio import cat_to_doc, load_workspace

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fixture_path(name: str) -> str:
    """Absolute path of a bundled workspace fixture."""
    return str(resources.files("zsite").joinpath("fixtures", name))


def fixture_doc(name: str) -> dict:
    """The raw JSON of a bundled workspace fixture."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def tables(cat) -> Tables:
    """The oracles' raw-table index over ``cat``'s category document."""
    return Tables(cat_to_doc(cat))


def raw_presheaf(F) -> dict:
    """``F``'s section and restriction tables, shaped as a presheaf document."""
    return {"sections": F.sections, "restrictions": F.restriction}


FIXTURE_NAMES = [
    "poset2.json",
    "etale2.json",
    "chain3.json",
    "layered2.json",
    "modular.json",
    "fingerprint.json",
    "zlin.json",
    "failing.json",
    "malformed.json",
]


def replace(obj, **changes):
    """A new record of ``obj``'s class: its constructor's parameters read off
    ``obj``, with ``changes`` applied.  It never copies ``vars(obj)``, which
    would carry cached lookups of the old fields into the new record."""
    params = inspect.signature(type(obj)).parameters
    return type(obj)(**{**{name: getattr(obj, name) for name in params}, **changes})


def cli_env(**overrides) -> dict:
    """Environment for a ``python -m zsite.cli`` child process: this one's,
    with the repo's ``src`` first on PYTHONPATH so no install is needed."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **overrides)


def _slot(raw, path):
    *parents, last = path
    for key in parents:
        raw = raw[key]
    return raw, last


def put(*path, value):
    """Edit of a raw workspace: set the entry at ``path`` to ``value``."""

    def edit(raw):
        node, key = _slot(raw, path)
        node[key] = value

    return edit


def drop(*path):
    """Edit of a raw workspace: delete the entry at ``path``."""

    def edit(raw):
        node, key = _slot(raw, path)
        del node[key]

    return edit


def mutated_workspace(tmp_path, name: str, *edits):
    """Load a copy of a bundled fixture after applying ``edits`` to its JSON."""
    raw = fixture_doc(name)
    for edit in edits:
        edit(raw)
    path = tmp_path / f"mutated-{name}"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return load_workspace(str(path))


def assert_rule_fires(tmp_path, name: str, edits, findings, finding):
    """``findings(ws)`` has no failing row on the bundled fixture and holds
    ``finding`` (kind, rule, witnesses) once ``edits`` are applied."""
    failing = ("structural", "law")
    assert not [f for f in findings(load_workspace(fixture_path(name))) if f.kind in failing]
    got = findings(mutated_workspace(tmp_path, name, *edits))
    assert finding in [(f.kind, f.rule, f.witnesses) for f in got]
