"""Tests of the benchmark's own oracles, generators and tracer.

The oracles are held to known answers (the chain3 site and its 47 small
presheaves, the modular.json counts, hand-worked composites); each
workload's generator and checks then run at a small size against the CLI in
this process.  Run with ``PYTHONPATH=src python -m pytest clibench``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

from clibench import gen, oracles, trace, workloads

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "zsite" / "fixtures"


def fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def families(covering: dict) -> dict[str, set[frozenset]]:
    return {o: {frozenset(f) for f in fams} for o, fams in covering["families"].items() if fams}


# =====================================================================
# oracles against known answers
# =====================================================================


def chain3_presheaves():
    """Every presheaf on A < B < T with at most two sections per object."""
    alphabet = ("0", "1")
    for n_a, n_b, n_t in itertools.product(range(3), repeat=3):
        s_a, s_b, s_t = alphabet[:n_a], alphabet[:n_b], alphabet[:n_t]
        for r_bt in itertools.product(s_b, repeat=n_t):
            for r_ab in itertools.product(s_a, repeat=n_b):
                bt, ab = dict(zip(s_t, r_bt)), dict(zip(s_b, r_ab))
                yield {
                    "sections": {"A": list(s_a), "B": list(s_b), "T": list(s_t)},
                    "restrictions": {
                        "id_A": {x: x for x in s_a},
                        "id_B": {x: x for x in s_b},
                        "id_T": {x: x for x in s_t},
                        "A<B": ab,
                        "B<T": bt,
                        "A<T": {x: ab[bt[x]] for x in s_t},
                    },
                }


def test_closure_reproduces_the_chain3_covering():
    ws = fixture("chain3.json")
    cat = oracles.Tables(ws["categories"]["chain3"])
    assert oracles.closure(cat, {"T": [["B<T"]]}) == families(ws["coverings"]["K"])


def test_sheaf_oracle_counts_16_sheaves_among_47_chain3_presheaves():
    ws = fixture("chain3.json")
    cat = oracles.Tables(ws["categories"]["chain3"])
    K = families(ws["coverings"]["K"])
    verdicts = [oracles.sheaf_verdict(cat, F, K) for F in chain3_presheaves()]
    assert len(verdicts) == 47 and sum(verdicts) == 16
    presheaves = ws["presheaves"]
    assert oracles.sheaf_verdict(cat, presheaves["glues"], K)
    assert not oracles.sheaf_verdict(cat, presheaves["gapped"], K)


@pytest.mark.parametrize(
    "source, model, count",
    [("one", "m2", 2), ("chain2", "chain2", 1), ("m2", "one", 1), ("one", "chain2", 0), ("m2", "m2", 4), ("m3", "m3", 2)],
)
def test_fes_count_matches_modular_json(source, model, count):
    cats = fixture("modular.json")["categories"]
    assert oracles.count_fes(oracles.Tables(cats[source]), oracles.Tables(cats[model])) == count


Z2 = {("e", "e"): "e", ("s", "e"): "s", ("e", "s"): "s", ("s", "s"): "e"}


def test_atom_pairing_splits_and_recombines_by_hand():
    inner = [[1, 1, 1, "e"], [1, 2, 2, "s"]]
    outer = [[1, 1, 1, "s"], [2, 1, 2, "s"]]
    assert oracles.compose_by_atoms(Z2, outer, inner) == [[1, 1, 2, "e"], [1, 1, 1, "s"]]


def test_atom_pairing_follows_the_layout_order_on_a_negative_middle():
    # inner lays [e, s, s] into the middle, outer reads it as [e, e, s]
    inner = [[1, 1, -1, "e"], [1, 1, -2, "s"]]
    outer = [[1, 1, -2, "e"], [1, 1, -1, "s"]]
    assert oracles.compose_by_atoms(Z2, outer, inner) == [[1, 1, -2, "e"], [1, 1, -1, "s"]]


def test_marginals_of_a_composite_document():
    doc = {"terms": [[1, 1, 2, "e"], [1, 2, 1, "s"]], "source_components": [[1, "X", 3]],
           "target_components": [[1, "X", 2], [2, "X", 1]]}
    assert oracles.marginals_hold(doc)
    doc["target_components"] = [[1, "X", 1], [2, "X", 2]]
    assert not oracles.marginals_hold(doc)


# =====================================================================
# generators
# =====================================================================


def test_generated_sites_have_every_meet():
    rng = random.Random(3)
    for elements, leq in (gen.chain_site(5), gen.grid_site(2, 3), gen.semilattice_site(rng, 5, 8, (1, 10**6))):
        doc = gen.thin_category(elements, leq, with_meets=True)
        assert len(doc["products"]) == len(elements) ** 2


def test_random_coupling_keeps_both_marginals():
    rng = random.Random(5)
    wide = gen.wide_sum(rng, 3, 4, 3, (2, 6))
    narrow = gen.narrow_sum(rng, 3, wide, 2)
    terms = gen.random_coupling(rng, 3, wide, narrow)
    assert oracles.marginals_hold({"terms": terms, "source_components": wide, "target_components": narrow})
    assert all((v > 0) == (dict((i, c) for i, _o, c in wide)[r] > 0) for r, _c, v, _a in terms)


def test_generation_is_a_function_of_the_seed(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    with small_sizes():
        for work in (one, two):
            workloads.site_law(random.Random(9), FIXTURES, work)
    for path in sorted(one.iterdir()):
        assert path.read_bytes() == (two / path.name).read_bytes()


# =====================================================================
# workloads end to end, at a small size, in this process
# =====================================================================


@contextlib.contextmanager
def small_sizes():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "SITES", tuple(s[:4] + ((1, 400),) for s in workloads.SITES))
        mp.setattr(workloads, "COVERINGS", 1)
        mp.setattr(workloads, "PARAMETRIZATIONS", 1)
        mp.setattr(workloads, "SECTORS", (3, 3))
        mp.setattr(workloads, "ENDOS", 2)
        mp.setattr(workloads, "ZLIN_WORKSPACES", 1)
        yield


def run_in_process(op: workloads.Op) -> list[str]:
    from zsite import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([op.command, op.workspace])
    return op.check(code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("name", ["site-law", "zlin-compose"])
def test_small_workload_passes_its_checks(name, tmp_path):
    with small_sizes():
        ops = workloads.WORKLOADS[name](random.Random(1), FIXTURES, tmp_path)
    assert ops
    for op in ops:
        assert run_in_process(op) == [], op.name


def test_fixture_sweep_has_every_fixture_under_every_command(tmp_path):
    ops = workloads.fixture_sweep(random.Random(1), FIXTURES, tmp_path)
    assert len(ops) == 72 + workloads.TWINS and len({(op.command, op.workspace) for op in ops}) == 72
    for op in ops:
        if op.command == "validate":
            assert run_in_process(op) == [], op.name


def test_a_wrong_verdict_is_a_failed_operation(tmp_path):
    with small_sizes():
        ops = workloads.site_law(random.Random(2), FIXTURES, tmp_path)
    op = next(op for op in ops if op.command == "site-check")
    doc = json.loads(Path(op.workspace).read_text())
    for check in doc["checks"]:
        check.pop("expect", None)
    Path(op.workspace).write_text(json.dumps(doc))
    assert run_in_process(op)


# =====================================================================
# tracer
# =====================================================================


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    from zsite import cli, jsonio
    from zsite.fincat import FinCat
    from zsite.reports import Report

    before = (cli.main, cli.validate_category, jsonio.json, vars(FinCat)["hom"], vars(Report)["collect"])
    with small_sizes():
        ops = workloads.site_law(random.Random(4), FIXTURES, tmp_path)
    tracer = trace.Tracer()
    tracer.install()
    try:
        for op in ops:
            assert run_in_process(op) == []
    finally:
        tracer.uninstall()
    after = (cli.main, cli.validate_category, jsonio.json, vars(FinCat)["hom"], vars(Report)["collect"])
    assert all(a is b for a, b in zip(before, after))
    layers = trace.per_layer(tracer, 1, 1, 1)
    for name in ("fincat.validate_category_ms", "site.grothendieck_ms", "sheaf.sheaf_check_ms",
                 "modular.enumerate_fes_ms", "zlin.z_compose_ms", "jsonio.schema_ms", "cli.dispatch_ms"):
        assert layers[name] > 0, name
    assert tracer.calls["cli.main"] == len(ops)
    assert layers["fincat.hom_calls"] > 0 and layers["sheaf.restrict_calls"] > 0


def test_import_times_reads_top_level_zsite_and_jsonschema():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     zsite.reports",
        "import time:       300 |      90000 |       jsonschema",
        "import time:       200 |     120000 | zsite",
        "import time:        50 |         50 | zsite.cli",
        "import time:        10 |         10 | json",
    ])
    assert trace.import_times(stderr) == (120.05, 90.0)
