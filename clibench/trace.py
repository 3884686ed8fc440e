"""In-process traced replay of a workload's CLI runs.

``Tracer.install`` wraps, from outside the program:

* every function ``zsite.cli`` imported from another zsite module (the
  loader, each checker, ``z_compose`` ...), in every zsite module that holds
  it, so calls between modules are seen too;
* ``cli.main`` and the two emitters;
* the three phases of ``jsonio.load_workspace``: JSON parse, the jsonschema
  validator and ``_decode``;
* ``Report.collect``;
* the counted methods ``FinCat.hom`` (also timed), ``FinCat.compose`` and
  ``Presheaf.restrict``.

Each wrapped call is a span; a span's self time is its duration minus the
spans it encloses.  Totals stay in memory; the coarse spans of each CLI run
(name, start, end, parent) are kept for the trace file.  ``uninstall``
restores every replaced attribute.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter, defaultdict

# spans recorded one by one in the trace file; the rest are only totalled
COARSE = (
    "cli.main",
    "cli.emit",
    "jsonio.load_workspace",
    "jsonio.parse",
    "jsonio.schema",
    "jsonio.decode",
)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``zsite.jsonio``."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, name):
        return getattr(json, name)


class _SchemaProxy:
    """Stands in for ``jsonschema`` inside ``zsite.jsonio``; the validator's
    construction and its error iteration both run inside the schema span."""

    def __init__(self, real, span):
        self._real = real
        self._span = span

    def __getattr__(self, name):
        return getattr(self._real, name)

    def Draft202012Validator(self, schema):  # noqa: N802 - mirrors jsonschema
        validator = self._span("jsonio.schema", self._real.Draft202012Validator)(schema)
        timed = self._span("jsonio.schema", lambda raw: iter(list(validator.iter_errors(raw))))
        return types.SimpleNamespace(iter_errors=timed)


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.spans: list[tuple[str, float, float, int]] = []
        self.composite_terms = 0
        self._children = [0.0]
        self._open: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------

    def span(self, name: str, fn):
        coarse = name in COARSE

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self._children.append(0.0)
            if coarse:
                self.spans.append((name, 0.0, 0.0, self._open[-1]))
                self._open.append(len(self.spans) - 1)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = self._children.pop()
                self.total[name] += end - start
                self.self_time[name] += end - start - child
                self._children[-1] += end - start
                if coarse:
                    pos = self._open.pop()
                    self.spans[pos] = (name, start, end, self.spans[pos][3])

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if modname == "zsite" or modname.startswith("zsite."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapped)

    def install(self) -> None:
        from zsite import cli, jsonio
        from zsite.fincat import FinCat
        from zsite.reports import Report
        from zsite.sheaf import Presheaf

        for attr, value in sorted(vars(cli).items()):
            module = getattr(value, "__module__", "") or ""
            if callable(value) and module.startswith("zsite.") and module != "zsite.cli" and not isinstance(value, type):
                name = f"{module.removeprefix('zsite.')}.{attr}"
                wrapped = self.span(name, value)
                if attr == "z_compose":
                    wrapped = self._counting_terms(wrapped)
                self._replace_everywhere(value, wrapped)
        self._set(cli, "main", self.span("cli.main", cli.main))
        self._set(cli, "_emit_json", self.span("cli.emit", cli._emit_json))
        self._set(cli, "_emit_text", self.span("cli.emit", cli._emit_text))
        self._set(jsonio, "json", _JsonProxy(self.span("jsonio.parse", json.load)))
        self._set(jsonio, "jsonschema", _SchemaProxy(jsonio.jsonschema, self.span))
        self._set(jsonio, "_decode", self.span("jsonio.decode", jsonio._decode))
        collect = Report.__dict__["collect"].__func__
        self._set(Report, "collect", classmethod(self.span("reports.collect", collect)))
        self._set(FinCat, "hom", self.span("fincat.hom", FinCat.hom))
        self._set(FinCat, "compose", self.counted("fincat.compose", FinCat.compose))
        self._set(Presheaf, "restrict", self.counted("sheaf.restrict", Presheaf.restrict))

    def _counting_terms(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.composite_terms += len(result.terms)
            return result

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def per_layer(tracer: Tracer, report_bytes: int, input_bytes: int, findings: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (startup figures come apart)."""
    ms = lambda name: 1000.0 * tracer.total.get(name, 0.0)  # noqa: E731
    return {
        "cli.dispatch_ms": 1000.0 * tracer.self_time.get("cli.main", 0.0),
        "cli.emit_ms": ms("cli.emit"),
        "cli.report_kb": report_bytes / 1024.0,
        "jsonio.parse_ms": ms("jsonio.parse"),
        "jsonio.schema_ms": ms("jsonio.schema"),
        "jsonio.decode_ms": ms("jsonio.decode"),
        "jsonio.input_kb": input_bytes / 1024.0,
        "reports.collect_ms": ms("reports.collect"),
        "reports.findings": findings,
        "fincat.validate_category_ms": ms("fincat.validate_category"),
        "fincat.hom_calls": tracer.calls["fincat.hom"],
        "fincat.hom_ms": ms("fincat.hom"),
        "fincat.compose_calls": tracer.calls["fincat.compose"],
        "fincat.check_functor_calls": tracer.calls["fincat.check_functor"],
        "site.grothendieck_ms": ms("site.grothendieck_axiom_check"),
        "sheaf.sheaf_check_ms": ms("sheaf.sheaf_check"),
        "sheaf.restrict_calls": tracer.calls["sheaf.restrict"],
        "modular.enumerate_fes_ms": ms("modular.enumerate_fes"),
        "zlin.z_compose_ms": ms("zlin.z_compose"),
        "zlin.z_compose_calls": tracer.calls["zlin.z_compose"],
        "zlin.z_validate_ms": ms("zlin.z_validate"),
        "zlin.z_validate_calls": tracer.calls["zlin.z_validate"],
        "zlin.composite_terms": tracer.composite_terms,
    }


def import_times(stderr: str) -> tuple[float, float]:
    """(zsite import ms, jsonschema import ms) from ``-X importtime`` output.

    The zsite figure sums the top-level zsite entries, which together are
    the whole ``import zsite.cli`` statement.
    """
    zsite_us = schema_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cumulative, name = line.removeprefix("import time:").split("|")
        if not cumulative.strip().isdigit():
            continue
        top = name.startswith(" ") and not name.startswith("  ")
        pkg = name.strip()
        if top and (pkg == "zsite" or pkg.startswith("zsite.")):
            zsite_us += int(cumulative)
        if pkg == "jsonschema":
            schema_us = int(cumulative)
    return zsite_us / 1000.0, schema_us / 1000.0
