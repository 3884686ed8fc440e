"""Run one workload of the zsite CLI benchmark and print its metrics.

    python3 clibench/run.py --workload site-law --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout.  Each operation is one fresh
interpreter running ``python -m zsite.cli COMMAND WORKSPACE`` with
``PYTHONPATH=src``, issued one at a time (closed loop, one client).  A run
repeats whole rounds of the workload's fixed operation list while the next
round is expected to end within ``--seconds`` (there is always one).
``PYTHONHASHSEED`` is 0 or 1 by the parity of the operation's position plus
the round number, and every output is checked against the workload's oracles
and byte for byte against every other run of the same command on the same
workspace, in this round or an earlier one, under either hash seed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: interpreter start plus ``import zsite.cli``, median of the
  fresh-process probes spread through each round (not part of batch_s);
* ``batch_s``: wall time of one round of CLI runs, median over rounds;
* ``peak_rss_mb``: largest max-RSS of any CLI run, read per child.

With ``--trace 1`` it carries the per-layer metrics of ``trace.py``, from
``-X importtime`` probes and from in-process replays of one round.  Each run
also writes its figures, with the environment, under ``clibench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from clibench import trace, workloads  # noqa: E402

SRC = ROOT / "src"
FIXTURES = SRC / "zsite" / "fixtures"
RESULTS = ROOT / "clibench" / "results"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 5


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(args: list[str], env: dict, out: Path, err: Path) -> tuple[int, float, float]:
    """Run ``python ARGS`` to completion; (exit code, seconds, max RSS MB)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *args],
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, fe.fileno(), 2),
            ],
        )
        _pid, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024.0


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def preflight(work: Path) -> None:
    """The program must be importable from ``src``; this also writes its
    bytecode caches, which users do not pay for on every run."""
    code, _s, _rss = spawn(["-c", "import zsite.cli"], child_env(0), work / "pre.out", work / "pre.err")
    if code != 0:
        sys.exit("error: cannot import zsite.cli: " + (work / "pre.err").read_text(errors="replace")[-400:])


# =====================================================================
# timed CLI rounds
# =====================================================================


def measure(ops: list[workloads.Op], seconds: float, work: Path) -> dict:
    out, err = work / "op.out", work / "op.err"
    probes = max(SETUP_PROBES, len(ops) // 8)
    probe_at = {len(ops) * k // probes for k in range(probes)}
    setup, rounds, problems = [], [], []
    digests: dict[tuple[str, str], str] = {}
    op_times: list[list[float]] = [[] for _ in ops]
    attempted = failed = 0
    peak = 0.0
    start = time.perf_counter()
    while True:
        batch = 0.0
        for i, op in enumerate(ops):
            if i in probe_at:
                code, elapsed, _rss = spawn(["-c", "import zsite.cli"], child_env(0), out, err)
                if code != 0:
                    sys.exit("error: import probe failed")
                setup.append(elapsed)
            hash_seed = (i + len(rounds)) % 2
            code, elapsed, rss = spawn(["-m", "zsite.cli", op.command, op.workspace], child_env(hash_seed), out, err)
            batch += elapsed
            op_times[i].append(elapsed)
            peak = max(peak, rss)
            stdout = out.read_bytes()
            found = op.check(code, stdout.decode("utf-8", "replace"), err.read_text("utf-8", "replace"))
            digest = hashlib.sha256(stdout).hexdigest()
            if digests.setdefault((op.command, op.workspace), digest) != digest:
                found.append("stdout differs from an earlier run of the same command")
            attempted += 1
            if found:
                failed += 1
                problems.append(f"{op.name}: {'; '.join(found)}")
        rounds.append(batch)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(rounds),
            "peak_rss_mb": peak,
        },
        "attempted": attempted,
        "failed": failed,
        "rounds_s": rounds,
        "op_times_s": op_times,
        "setup_samples_s": setup,
        "problems": problems,
    }


# =====================================================================
# traced in-process replay
# =====================================================================


def replay(ops: list[workloads.Op], tracer: trace.Tracer | None) -> dict:
    """One round in this process; returns wall time, outputs and problems."""
    from zsite import cli

    if tracer is not None:
        tracer.install()
    report_bytes = input_bytes = findings = failed = 0
    problems = []
    start = time.perf_counter()
    try:
        for op in ops:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([op.command, op.workspace])
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    print(f"raised {exc!r}", file=sys.stderr)
                    code = -1
            found = op.check(code, stdout.getvalue(), stderr.getvalue())
            report_bytes += len(stdout.getvalue().encode("utf-8"))
            input_bytes += os.path.getsize(op.workspace)
            if found:
                failed += 1
                problems.append(f"{op.name}: {'; '.join(found)}")
            elif code in (0, 1):
                findings += sum(len(c["findings"]) for c in json.loads(stdout.getvalue())["checks"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall_s": time.perf_counter() - start,
        "report_bytes": report_bytes,
        "input_bytes": input_bytes,
        "findings": findings,
        "failed": failed,
        "problems": problems,
    }


def traced(ops: list[workloads.Op], seconds: float, work: Path) -> dict:
    startup = []
    for _ in range(IMPORTTIME_PROBES):
        code, _s, _rss = spawn(
            ["-X", "importtime", "-c", "import zsite.cli, jsonschema"], child_env(0), work / "it.out", work / "it.err"
        )
        if code != 0:
            sys.exit("error: import probe failed")
        startup.append(trace.import_times((work / "it.err").read_text()))

    sys.path.insert(0, str(SRC))
    import zsite.cli  # noqa: F401 - imported once, outside every timed pass

    passes, plain, spans, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + plain[-1] + passes[-1]["wall_s"] <= seconds:
        plain.append(replay(ops, None)["wall_s"])
        tracer = trace.Tracer()
        result = replay(ops, tracer)
        attempted += len(ops)
        failed += result["failed"]
        problems += result["problems"]
        result["layers"] = trace.per_layer(tracer, result["report_bytes"], result["input_bytes"], result["findings"])
        passes.append(result)
        spans = tracer.spans
    # median_low keeps every figure a measured one, and counts whole
    metrics = {
        "startup.import_ms": statistics.median_low(z for z, _j in startup),
        "startup.jsonschema_import_ms": statistics.median_low(j for _z, j in startup),
    }
    for name in passes[0]["layers"]:
        metrics[name] = statistics.median_low(p["layers"][name] for p in passes)
    traced_s = statistics.median(p["wall_s"] for p in passes)
    untraced_s = statistics.median(plain)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_s": traced_s - untraced_s,
        "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans],
    }


# =====================================================================
# entry point
# =====================================================================

UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "_kb": "KiB"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def main() -> int:
    parser = argparse.ArgumentParser(description="zsite CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "zsite" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'zsite' / 'cli.py'} not found; run from the root of a zsite checkout")
    work = ROOT / "clibench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        preflight(work)
        ops = workloads.WORKLOADS[args.workload](random.Random(args.seed), FIXTURES, work)
        result = (traced if args.trace else measure)(ops, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"environment": environment(args), "operations": len(ops), **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for metric, value in result["metrics"].items():
        print(f"{metric:32s} {value:14.4f} {unit_of(metric)}")
    print(f"{'attempted':32s} {result['attempted']:14d}")
    print(f"{'failed':32s} {result['failed']:14d}")
    if args.trace:
        print(f"{'untraced in-process round':32s} {result['untraced_s']:14.4f} s")
        print(f"{'tracing overhead':32s} {result['overhead_s']:14.4f} s")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in result["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
