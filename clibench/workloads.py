"""The three workloads: their inputs, their CLI runs and the checks on each.

A workload is built from a seed into a directory of workspace files and a
fixed list of operations.  Each operation is one CLI run
(``python -m zsite.cli COMMAND WORKSPACE``) with a check that returns the
list of ways its exit code, stdout or stderr differ from what the workload
expects; an empty list means the operation passed.  Expected verdicts come
from ``oracles``, never from the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import gen, oracles

COMMANDS = (
    "validate",
    "z-compose",
    "site-check",
    "blur-check",
    "sheaf-check",
    "parametrize",
    "model-check",
    "fingerprint",
)

GOOD_FIXTURES = (
    "chain3.json",
    "etale2.json",
    "fingerprint.json",
    "layered2.json",
    "modular.json",
    "poset2.json",
    "zlin.json",
)

Check = Callable[[int, str, str], list[str]]


@dataclass(frozen=True)
class Op:
    command: str
    workspace: str
    check: Check

    @property
    def name(self) -> str:
        return f"{self.command} {Path(self.workspace).name}"


# =====================================================================
# shared output checks
# =====================================================================


def _report(stdout: str, problems: list[str]) -> dict | None:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not JSON: {exc}")
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("checks"), list):
        problems.append("report has no check list")
        return None
    return doc


def _exit_contract(code: int, stdout: str, stderr: str, want: int) -> tuple[list[str], dict | None]:
    """Documented exit behaviour; returns problems and the parsed report."""
    problems = []
    if code != want:
        problems.append(f"exit {code}, expected {want}: {stderr.strip()[:200]}")
        return problems, None
    if want == 2:
        if stdout:
            problems.append("exit 2 with non-empty stdout")
        if not any(line.startswith("error: ") for line in stderr.splitlines()):
            problems.append("exit 2 without an 'error:' line")
        return problems, None
    if stderr:
        problems.append(f"stderr not empty on exit {code}")
    doc = _report(stdout, problems)
    if doc is not None and doc.get("ok") is not (code == 0):
        problems.append(f"ok={doc.get('ok')} on exit {code}")
    return problems, doc


def _by_label(doc: dict) -> dict[str, dict]:
    return {c["label"]: c for c in doc["checks"]}


def _exit_only(want: int) -> Check:
    def check(code, stdout, stderr):
        return _exit_contract(code, stdout, stderr, want)[0]

    return check


def _verdicts(want_ok: dict[str, bool], extra: Callable[[dict, list[str]], None] | None = None) -> Check:
    """Exit code from the expected verdicts, then each check's ``ok``."""
    want = 0 if all(want_ok.values()) else 1

    def check(code, stdout, stderr):
        problems, doc = _exit_contract(code, stdout, stderr, want)
        if doc is None:
            return problems
        got = _by_label(doc)
        if sorted(got) != sorted(want_ok):
            problems.append(f"check labels {sorted(got)} != {sorted(want_ok)}")
            return problems
        for label, ok in want_ok.items():
            if got[label]["ok"] is not ok:
                problems.append(f"{label}: ok={got[label]['ok']}, oracle says {ok}")
        if extra is not None and not problems:
            extra(got, problems)
        return problems

    return check


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return str(path)


# =====================================================================
# fixture-sweep
# =====================================================================


# Runs repeated right after themselves, under the other PYTHONHASHSEED, so
# that a round of one pass still compares reports across hash seeds.
TWINS = 8


def fixture_sweep(rng: random.Random, fixtures: Path, _work: Path) -> list[Op]:
    """Every bundled fixture under every command, with the documented exits."""
    ops = []
    for command in COMMANDS:
        for name in GOOD_FIXTURES:
            ops.append(Op(command, str(fixtures / name), _exit_only(0)))
        ops.append(Op(command, str(fixtures / "failing.json"), _exit_only(1 if command == "validate" else 0)))
        ops.append(Op(command, str(fixtures / "malformed.json"), _exit_only(2)))
    rng.shuffle(ops)
    for pos in sorted(rng.sample(range(len(ops)), TWINS), reverse=True):
        ops.insert(pos + 1, ops[pos])
    return ops


# =====================================================================
# site-law
# =====================================================================

# Inputs of one size class: a 12-chain, a 3x4 grid and a 12-element random
# meet-semilattice.  Each site carries COVERINGS closures, each redrawn from
# fresh seed families until the refinement product the axiom check
# enumerates lies in the site kind's window, so every seed costs about the
# same.  Rows: kind, shape, seed families per closure, their sizes, window.
SITES = (
    ("chain", lambda rng: gen.chain_site(12), 3, (2, 3), (3000, 12000)),
    ("grid", lambda rng: gen.grid_site(3, 4), 6, (2, 2), (3000, 12000)),
    ("semilattice", lambda rng: gen.semilattice_site(rng, 6, 12, (52, 60)), 6, (2, 3), (3000, 12000)),
)
COVERINGS = 4
POINT_PRESHEAVES = 3
REPRESENTABLES = 2
PARAMETRIZATIONS = 3
# preorders of 6 and 4 objects over one three-class order: c0, c1 <= c2
PARAM_SIZES = ((2, 2, 2), (2, 1, 1))


def _refinement_product(cat: oracles.Tables, K) -> int:
    total = 0
    for fams in K.values():
        for fam in fams:
            size = 1
            for f in fam:
                size *= len(K.get(cat.source(f), ()))
            total += size
    return total


def _mutation_candidates(cat: oracles.Tables, K) -> list[tuple[str, frozenset]]:
    """Families that base change along an arrow between distinct objects
    demands, of more than one member (so never an identity singleton)."""
    found = set()
    for obj, fams in K.items():
        for fam in fams:
            for g in cat.into[obj]:
                new = oracles.pulled(cat, fam, g)
                if cat.source(g) != obj and new is not None and len(new) > 1:
                    found.add((cat.source(g), new))
    return sorted(found, key=lambda c: (c[0], sorted(c[1])))


def _covering(rng: random.Random, elements, leq, cat: oracles.Tables, families, sizes, window):
    """A closure in the window, and a mutation of it missing one family."""
    inner = [x for x in elements if sum(1 for y in elements if y != x and leq(y, x)) >= 2]
    while True:
        seeds: dict[str, list[list[str]]] = {}
        for _ in range(families):
            x = rng.choice(inner)
            below = [y for y in elements if y != x and leq(y, x)]
            members = rng.sample(below, min(len(below), rng.randint(*sizes)))
            seeds.setdefault(x, []).append([gen.arrow(y, x) for y in members])
        K = oracles.closure(cat, seeds)
        candidates = _mutation_candidates(cat, K)
        if candidates and window[0] <= _refinement_product(cat, K) <= window[1]:
            break
    obj, removed = rng.choice(candidates)
    mutated = {o: set(f) for o, f in K.items()}
    mutated[obj].discard(removed)
    if (obj, removed) not in oracles.pullback_gaps(cat, mutated):
        raise RuntimeError("mutation left base change intact")
    return K, mutated, obj, removed


def _covering_doc(K) -> dict:
    return {
        "category": "site",
        "families": {o: sorted(sorted(f) for f in fams) for o, fams in sorted(K.items())},
    }


def _parametrization(rng: random.Random) -> tuple[dict, dict]:
    """Source and model preorders over one class order, sizes shuffled."""
    order = lambda a, b: a == b or b == 2  # noqa: E731
    src_sizes, model_sizes = (list(s) for s in PARAM_SIZES)
    rng.shuffle(src_sizes)
    rng.shuffle(model_sizes)
    return gen.preorder(rng, "p", src_sizes, order), gen.preorder(rng, "q", model_sizes, order)


def site_workspace(rng: random.Random, shape, families, sizes, window) -> tuple[dict, dict]:
    """One site with its closures, mutations, presheaves and parametrizations.

    Returns the workspace and, per command, the expected ``ok`` of each check
    label, plus what the witness and count checks need.
    """
    elements, leq = shape(rng)
    site = gen.thin_category(elements, leq, with_meets=True)
    cat = oracles.Tables(site)
    want: dict[str, dict[str, bool]] = {"validate": {"site": True}, "site-check": {}, "sheaf-check": {}}
    checks = [{"kind": "validate_category", "label": "site", "category": "site"}]
    coverings, closures, mutations = {}, [], {}
    for c in range(COVERINGS):
        K, mutated, obj, removed = _covering(rng, elements, leq, cat, families, sizes, window)
        coverings[f"K{c}"], coverings[f"K{c}-mut"] = _covering_doc(K), _covering_doc(mutated)
        closures.append(K)
        mutations[f"K{c}-mut-axioms"] = (obj, oracles.family_label(removed))
        checks.append({"kind": "grothendieck", "label": f"K{c}-axioms", "covering": f"K{c}"})
        checks.append({"kind": "grothendieck", "label": f"K{c}-mut-axioms", "covering": f"K{c}-mut",
                       "expect": False})
        want["site-check"][f"K{c}-axioms"] = want["site-check"][f"K{c}-mut-axioms"] = True
    for name in coverings:
        checks.append({"kind": "validate_covering", "label": f"{name}-shape", "covering": name})
        want["validate"][f"{name}-shape"] = True

    presheaves = {}
    for i, y in enumerate(rng.sample(elements, REPRESENTABLES)):
        presheaves[f"h{i}"] = gen.representable(elements, leq, y)
    for i in range(POINT_PRESHEAVES):
        presheaves[f"P{i}"] = gen.point_presheaf(rng, elements, leq, points=3, labels=2, keep=0.6)
    for name, doc in presheaves.items():
        doc["category"] = "site"
        checks.append({"kind": "validate_presheaf", "label": f"{name}-shape", "presheaf": name})
        want["validate"][f"{name}-shape"] = True
        for c, K in enumerate(closures):
            label = f"{name}-K{c}"
            checks.append({"kind": "sheaf", "label": label, "presheaf": name, "covering": f"K{c}"})
            want["sheaf-check"][label] = oracles.sheaf_verdict(cat, doc, K)

    categories = {"site": site}
    model_cats, counts = {}, {}
    for j in range(PARAMETRIZATIONS):
        source, model = _parametrization(rng)
        categories[f"src{j}"], categories[f"base{j}"] = source, model
        arrows = sorted(model["morphisms"])
        model_cats[f"M{j}"] = {"category": f"base{j}", "weq": arrows, "cof": arrows, "fib": arrows}
        counts[f"fes{j}"] = oracles.count_fes(oracles.Tables(source), oracles.Tables(model))
        checks.append({"kind": "enumerate_fes", "label": f"fes{j}", "source": f"src{j}",
                       "model": f"M{j}", "expect_count": counts[f"fes{j}"]})
        for name in (f"src{j}", f"base{j}"):
            checks.append({"kind": "validate_category", "label": name, "category": name})
            want["validate"][name] = True
    want["parametrize"] = {label: True for label in counts}

    doc = {
        "categories": categories,
        "coverings": coverings,
        "presheaves": presheaves,
        "model_cats": model_cats,
        "checks": checks,
    }
    return doc, {"want": want, "mutations": mutations, "counts": counts}


def _mutation_witnesses(mutations: dict[str, tuple[str, str]]):
    def extra(got, problems):
        for label, (obj, family) in mutations.items():
            details = [
                f["detail"] for f in got[label]["findings"] if f["rule"] == "observed.pullbackStability"
            ]
            if not any(d.endswith(f"not assigned to {obj}") and family in d for d in details):
                problems.append(f"{label}: no pullbackStability witness for {family} at {obj}")

    return extra


def _fes_counts(counts: dict[str, int]):
    def extra(got, problems):
        for label, count in counts.items():
            rows = [f for f in got[label]["findings"] if f["rule"] == "member_count"]
            if not rows or rows[0]["witnesses"] != [str(count)]:
                problems.append(f"{label}: member_count != {count}")

    return extra


def site_law(rng: random.Random, fixtures: Path, work: Path) -> list[Op]:
    ops = []
    for kind, shape, families, sizes, window in SITES:
        doc, meta = site_workspace(rng, shape, families, sizes, window)
        path = _write(work, f"site-{kind}.json", doc)
        want = meta["want"]
        ops.append(Op("validate", path, _verdicts(want["validate"])))
        ops.append(Op("site-check", path, _verdicts(want["site-check"], _mutation_witnesses(meta["mutations"]))))
        ops.append(Op("sheaf-check", path, _verdicts(want["sheaf-check"])))
        ops.append(Op("parametrize", path, _verdicts(want["parametrize"], _fes_counts(meta["counts"]))))
    # the zlin layer is reached through one bundled fixture
    for command in ("validate", "z-compose"):
        ops.append(Op(command, str(fixtures / "zlin.json"), _exit_only(0)))
    rng.shuffle(ops)
    return ops


# =====================================================================
# zlin-compose
# =====================================================================

# Tens of components and hundreds of terms per morphism: a wide sum of 16
# positive and 16 negative components over a 3-object groupoid with Z/3
# hom-sets, ENDOS endomorphisms of it and one map onto a narrower sum.  All
# ENDOS**2 endomorphism pairs are composed, so compositions outgrow loading.
GROUPOID = (3, 3)
SECTORS = (16, 16)
COEFF = (8, 14)
ENDOS = 10
NARROW = 4
ZLIN_WORKSPACES = 2


def zlin_workspace(rng: random.Random) -> tuple[dict, dict]:
    objects, order = GROUPOID
    base = gen.groupoid(objects, order)
    comp = {tuple(k.split("|")): v for k, v in base["composition"].items()}
    wide = gen.wide_sum(rng, objects, *SECTORS, COEFF)
    narrow = gen.narrow_sum(rng, objects, wide, NARROW)
    zmorphisms = {
        f"e{i}": {"category": "G", "source": "W", "target": "W",
                  "terms": gen.random_coupling(rng, order, wide, wide)}
        for i in range(ENDOS)
    }
    zmorphisms["p"] = {"category": "G", "source": "W", "target": "V",
                       "terms": gen.random_coupling(rng, order, wide, narrow)}
    checks = [{"kind": "validate_category", "label": "G", "category": "G"}]
    checks += [{"kind": "z_validate", "label": f"{n}-shape", "zmorphism": n} for n in sorted(zmorphisms)]
    expected = {}
    pairs = [(f"e{i}", f"e{j}") for i in range(ENDOS) for j in range(ENDOS)]
    pairs += [("p", f"e{j}") for j in range(ENDOS)]
    for outer, inner in pairs:
        label = f"{outer}.{inner}"
        terms = oracles.compose_by_atoms(comp, zmorphisms[outer]["terms"], zmorphisms[inner]["terms"])
        expected[label] = terms
        checks.append({"kind": "z_compose", "label": label, "outer": outer, "inner": inner,
                       "expect_terms": terms})
    doc = {
        "categories": {"G": base},
        "zobjects": {"W": {"components": wide}, "V": {"components": narrow}},
        "zmorphisms": zmorphisms,
        "checks": checks,
    }
    validate_labels = [c["label"] for c in checks if c["kind"] != "z_compose"]
    return doc, {"validate": validate_labels, "composites": expected}


def _composites(expected: dict[str, list]):
    def extra(got, problems):
        for label, terms in expected.items():
            result = got[label].get("result")
            if result is None or result["terms"] != terms:
                problems.append(f"{label}: composite differs from atom pairing")
            elif not oracles.marginals_hold(result):
                problems.append(f"{label}: composite breaks a marginal")

    return extra


def zlin_compose(rng: random.Random, fixtures: Path, work: Path) -> list[Op]:
    ops = []
    for w in range(ZLIN_WORKSPACES):
        doc, meta = zlin_workspace(rng)
        path = _write(work, f"zlin-{w}.json", doc)
        ops.append(Op("validate", path, _verdicts({k: True for k in meta["validate"]})))
        composites = meta["composites"]
        ops.append(Op("z-compose", path, _verdicts({k: True for k in composites}, _composites(composites))))
    # the site, sheaf and modular layers are reached through bundled fixtures
    ops.append(Op("site-check", str(fixtures / "chain3.json"), _exit_only(0)))
    ops.append(Op("sheaf-check", str(fixtures / "chain3.json"), _exit_only(0)))
    ops.append(Op("parametrize", str(fixtures / "modular.json"), _exit_only(0)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "fixture-sweep": fixture_sweep,
    "site-law": site_law,
    "zlin-compose": zlin_compose,
}
