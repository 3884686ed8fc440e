"""Acceptance gates for the whole package, one test per gate.

Run verbosely to get a pass/fail line per gate.  Every gate asserts its
property exactly (no tolerances) and its own wall-clock budget, so a green
run doubles as a performance smoke test.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from clibench.oracles import Tables, count_fes, sheaf_verdict
from conftest import cli_env, fixture_doc, fixture_path, raw_presheaf
from fuzz import (
    chain_presheaves,
    composition_of,
    layered_base,
    rand_chain,
    rand_poset,
    rand_seeds,
    rand_step,
    rand_zobj,
)
from oracles import poly_eval
from zsite.blur import blurry_axiom_probe, blurry_topology, gamma_check
from zsite.cli import COMMAND_KINDS, main
from zsite.fincat import FinCat, InputError
from zsite.fingerprint import (
    UNIT,
    graded_dims,
    invariant_of,
    positive_fold,
    tensor_dims,
    z_equiv,
)
from zsite.jsonio import load_workspace
from zsite.modular import class_types, compose_functors, enumerate_fes, precompose
from zsite.sheaf import cartesian_square_check, sheaf_check, squares_vs_sheaf_probe
from zsite.site import (
    compose_ladders,
    generate_covering_assignment,
    grothendieck_axiom_check,
    nisnevich_component_lemma_check,
    powered_cover_check,
    powered_stability_probe,
)
from zsite.zlin import RefinementTable, enumerate_hom, interval_refinement, z_compose, z_identity


def ws_of(name):
    return load_workspace(fixture_path(name))


def parallel_pair():
    return FinCat(
        name="pp",
        objects=frozenset({"a", "b"}),
        morphisms={"id_a": ("a", "a"), "id_b": ("b", "b"), "u": ("a", "b"), "v": ("a", "b")},
        identities={"a": "id_a", "b": "id_b"},
        composition={
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
            ("u", "id_a"): "u", ("id_b", "u"): "u",
            ("v", "id_a"): "v", ("id_b", "v"): "v",
        },
    )


def signed_sums(obj, coeffs=(-3, -2, -1, 1, 2, 3)):
    """All formal sums over one base object with 1 or 2 components."""
    from zsite.zlin import z_object

    out = [z_object([(1, obj, c)]) for c in coeffs]
    out += [z_object([(1, obj, c1), (2, obj, c2)]) for c1 in coeffs for c2 in coeffs]
    return out


def test_c01_z_composition_associativity():
    start = time.monotonic()
    # randomized part: composable triples over small thin bases, mixed signs
    rng = random.Random(20260816)
    shapes = ((1, 2, 2, 1), (2, 2, 1, 1), (1, 1, 2, 2), (2, 1, 2, 1), (3, 1, 1, 1))
    randomized = 0
    while randomized < 1000:
        base, levels = layered_base(rng.choice(shapes), name="assoc")
        phi, psi, chi = rand_chain(rng, base, levels, length=3)
        left = z_compose(base, z_compose(base, chi, psi), phi)
        right = z_compose(base, chi, z_compose(base, psi, phi))
        assert left.normal_form() == right.normal_form()
        randomized += 1

    # exhaustive part: every composable triple on a 2-object base between
    # formal sums with up to two components and coefficients within 3
    base = parallel_pair()
    sums = signed_sums("a") + signed_sums("b")
    homs = {}
    for i, src in enumerate(sums):
        for j, tgt in enumerate(sums):
            if src.total_mass() == tgt.total_mass():
                legs = enumerate_hom(base, src, tgt)
                if legs:
                    homs[(i, j)] = legs
    by_src = {}
    for (i, j), legs in homs.items():
        by_src.setdefault(i, []).append((j, legs))
    exhaustive = 0
    for (_i, j), phis in homs.items():
        for k, psis in by_src.get(j, ()):
            for _l, chis in by_src.get(k, ()):
                for chi in chis:
                    for psi in psis:
                        outer = z_compose(base, chi, psi)
                        for phi in phis:
                            left = z_compose(base, outer, phi)
                            right = z_compose(base, chi, z_compose(base, psi, phi))
                            assert left.normal_form() == right.normal_form()
                            exhaustive += 1
    assert randomized >= 1000 and exhaustive == 129_952
    assert time.monotonic() - start < 60


def test_c02_identity_is_a_two_sided_unit():
    start = time.monotonic()
    rng = random.Random(777)
    shapes = ((2, 2, 2), (1, 2, 3), (3, 1, 2), (2, 1, 2))
    checked = 0
    while checked < 1000:
        base, levels = layered_base(rng.choice(shapes), name="unit")
        for phi in rand_chain(rng, base, levels, length=2):
            assert z_compose(base, z_identity(base, phi.target), phi).normal_form() == phi.normal_form()
            assert z_compose(base, phi, z_identity(base, phi.source)).normal_form() == phi.normal_form()
            checked += 1
    # negative-only sums through the exhaustive enumerator as well
    base = parallel_pair()
    from zsite.zlin import z_object

    src = z_object([(1, "a", -2), (2, "a", -1)])
    tgt = z_object([(1, "b", -3)])
    homs = enumerate_hom(base, src, tgt)
    assert homs
    for phi in homs:
        assert z_compose(base, z_identity(base, tgt), phi).normal_form() == phi.normal_form()
        assert z_compose(base, phi, z_identity(base, src)).normal_form() == phi.normal_form()
    assert time.monotonic() - start < 10


def test_c03_refinement_reproduces_both_marginals():
    start = time.monotonic()
    rng = random.Random(4242)
    for _ in range(10_000):
        total = rng.randint(1, 40) * rng.choice((1, -1))
        sgn, n = (1, total) if total > 0 else (-1, -total)
        rows = [sgn * p for p in composition_of(rng, n, rng.randint(1, min(8, n)))]
        cols = [sgn * p for p in composition_of(rng, n, rng.randint(1, min(8, n)))]
        table = interval_refinement(rows, cols)
        assert isinstance(table, RefinementTable)
        for a, want in enumerate(rows, start=1):
            assert sum(table.entries.get((a, b), 0) for b in range(1, len(cols) + 1)) == want
        for b, want in enumerate(cols, start=1):
            assert sum(table.entries.get((a, b), 0) for a in range(1, len(rows) + 1)) == want
    assert time.monotonic() - start < 10


def _pulled_pool(cat, assignment):
    """Families obtainable by base change of a family that outlives their removal."""
    pool = set()
    for g, (src, tgt) in cat.morphisms.items():
        for fam in assignment.families_of(tgt):
            legs = []
            for m in sorted(fam):
                chosen = cat.pullbacks.get((m, g))
                if chosen is None:
                    legs = None
                    break
                legs.append(chosen[2])
            if not legs:
                continue
            pulled = frozenset(legs)
            if assignment.has(src, pulled) and not (src == tgt and fam == pulled):
                pool.add((src, pulled))
    return sorted(pool, key=lambda p: (p[0], sorted(p[1])))


def test_c04_covering_axioms_exhaustive_and_mutation_detected():
    start = time.monotonic()
    for name, covers in (("poset2.json", ("K",)), ("chain3.json", ("K",)), ("layered2.json", ("K0", "K1"))):
        ws = ws_of(name)
        for cover in covers:
            cat, assignment = ws.coverings[cover]
            report = grothendieck_axiom_check(cat, assignment)
            assert report.ok, (name, cover, report.render())

    rng = random.Random(11)
    mutations = 0
    while mutations < 100:
        cat = rand_poset(rng)
        assignment = generate_covering_assignment(cat, rand_seeds(rng, cat))
        pool = _pulled_pool(cat, assignment)
        if not pool:
            continue
        src, fam = pool[rng.randrange(len(pool))]
        report = grothendieck_axiom_check(cat, assignment.without_family(src, fam))
        assert not report.ok
        assert all(f.witnesses for f in report.failures())
        mutations += 1
    assert time.monotonic() - start < 30


def test_c05_component_lemma_agrees_on_every_small_family():
    start = time.monotonic()
    ws = ws_of("etale2.json")
    base = ws.pointed_bases["base"]
    whole = ws.zobjects["X"]
    pool = [ws.zmorphisms[n][1] for n in ("psi1", "psi2", "psi3", "psi4", "psi5")]
    families = 0
    for size in range(4):
        for subset in itertools.combinations(pool, size):
            report = nisnevich_component_lemma_check(base, whole, list(subset))
            assert not any(f.rule == "component_lemma_agreement" for f in report.failures())
            families += 1
    assert families == 26
    assert time.monotonic() - start < 30


def test_c06_sheaf_checker_matches_the_bruteforce_oracle():
    start = time.monotonic()
    pairs = 0
    for name in ("poset2.json", "chain3.json", "etale2.json", "layered2.json"):
        ws, raw = ws_of(name), fixture_doc(name)
        for pname, F in ws.presheaves.items():
            for kname, (cat, assignment) in ws.coverings.items():
                if cat is not F.cat:
                    continue
                verdict = sheaf_check(F, assignment).ok
                site, families = Tables(raw["categories"][cat.name]), raw["coverings"][kname]["families"]
                assert verdict == sheaf_verdict(site, raw["presheaves"][pname], families)
                pairs += 1
    assert pairs == 2

    ws, raw = ws_of("chain3.json"), fixture_doc("chain3.json")
    cat = ws.categories["chain3"]
    _cat, assignment = ws.coverings["K"]
    chain3, families = Tables(raw["categories"]["chain3"]), raw["coverings"]["K"]["families"]
    sheaves = 0
    family = chain_presheaves(cat, max_sections=2)
    for F in family:
        verdict = sheaf_check(F, assignment).ok
        assert verdict == sheaf_verdict(chain3, raw_presheaf(F), families), F.name
        sheaves += verdict
    assert len(family) == 47 and sheaves == 16
    assert time.monotonic() - start < 120


def test_c07_squares_cartesian_iff_sheaf_on_the_generated_site():
    start = time.monotonic()
    ws = ws_of("chain3.json")
    cat = ws.categories["chain3"]
    _cat, assignment = ws.coverings["K"]
    _sqcat, square = ws.squares["sq"]
    for F in chain_presheaves(cat, max_sections=2):
        probe = squares_vs_sheaf_probe(F, assignment, [square], True)
        assert not any(f.rule == "squares_sheaf_agreement" for f in probe.failures()), F.name
        assert sheaf_check(F, assignment).ok == cartesian_square_check(F, square).ok, F.name
    assert time.monotonic() - start < 120


def test_c08_blurry_probe_passes_on_every_compatible_pair():
    start = time.monotonic()
    pairs = [
        ("poset2.json", "K", rel) for rel in ("triv", "ep", "eq", "epq", "all")
    ] + [("chain3.json", "K", rel) for rel in ("triv", "ab")]
    assert len(pairs) >= 5
    for name, cover, relname in pairs:
        ws = ws_of(name)
        cat, assignment = ws.coverings[cover]
        _relcat, rel = ws.partitions[relname]
        assert gamma_check(cat, rel).ok, (name, relname)
        report = blurry_axiom_probe(blurry_topology(cat, assignment, rel))
        assert report.ok, (name, relname, report.render())
        assert not any(f.kind == "skipped" for f in report.findings), (name, relname)
    assert time.monotonic() - start < 30


def test_c09_powered_covers_are_stable_and_compose():
    start = time.monotonic()
    ws = ws_of("layered2.json")
    layered = ws.layered["L"]
    ks = [ws.coverings["K0"][1], ws.coverings["K1"][1]]
    ladders = {n: ws.ladders[n][1] for n in ("lad", "lad2", "ladc", "lid")}

    for name, ladder in ladders.items():
        assert powered_cover_check(layered, ladder, ks).ok, name

    names = sorted(ladders)
    for size in range(1, len(names) + 1):
        for subset in itertools.combinations(names, size):
            family = [ladders[n] for n in subset]
            for test_name in names:
                report = powered_stability_probe(layered, family, ladders[test_name], ks)
                assert report.ok, (subset, test_name, report.render())

    def composable(outer, inner):
        return all(
            level.source(outer.arrows[i]) == level.target(inner.arrows[i])
            for i, level in enumerate(layered.levels)
        )

    composed = 0
    for outer in ladders.values():
        for inner in ladders.values():
            if not composable(outer, inner):
                continue
            whole = compose_ladders(layered, outer, inner)
            for i, level in enumerate(layered.levels):
                assert whole.arrows[i] == level.compose(outer.arrows[i], inner.arrows[i])
            assert powered_cover_check(layered, whole, ks).ok
            composed += 1
    assert compose_ladders(layered, ladders["lad"], ladders["lad2"]).arrows == ladders["ladc"].arrows
    assert composed >= 4
    assert time.monotonic() - start < 30


def test_c10_parametrization_counts_pullbacks_and_labels():
    start = time.monotonic()
    ws, raw = ws_of("modular.json"), fixture_doc("modular.json")
    counts = [
        ("one", "M2", 2),
        ("chain2", "MC2", 1),
        ("m2", "Mone", 1),
        ("one", "MC2", 0),
        ("m2", "M2", 4),
        ("m3", "M3", 2),
    ]
    for source, model, expected in counts:
        family = enumerate_fes(ws.categories[source], ws.model_cats[model])
        assert len(family.members) == expected, (source, model)
        target = Tables(raw["categories"][raw["model_cats"][model]["category"]])
        assert len(family.members) == count_fes(Tables(raw["categories"][source]), target)

    family = enumerate_fes(ws.categories["m2"], ws.model_cats["M2"])
    pool = [ws.functors["swap"], ws.functors["idm2"]]
    for first, second in itertools.product(pool, repeat=2):
        staged = precompose(second, precompose(first, family))
        direct = precompose(compose_functors(first, second), family)
        assert staged.keys() == direct.keys(), (first.name, second.name)

    _cat, rel = ws.partitions["m3p"]
    assert class_types(ws.model_cats["M3"], rel, "[A+A']", "[B]") == frozenset({"weq", "cof"})
    assert time.monotonic() - start < 30


def test_c11_fingerprint_algebra_and_equivalence():
    start = time.monotonic()
    rng = random.Random(31337)

    def rand_dims():
        return graded_dims([rng.randint(0, 9) for _ in range(rng.randint(0, 5))])

    for _ in range(10_000):
        a, b, c = rand_dims(), rand_dims(), rand_dims()
        ab = tensor_dims(a, b)
        assert ab == tensor_dims(b, a)
        assert tensor_dims(ab, c) == tensor_dims(a, tensor_dims(b, c))
        assert tensor_dims(a, UNIT) == a
        x = rng.randint(-4, 4)
        assert poly_eval(ab.dims, x) == poly_eval(a.dims, x) * poly_eval(b.dims, x)

    from zsite.zlin import z_object

    letters = ("a", "b", "c")
    aliases = {"a": "a2", "b": "b2", "c": "c2"}
    for _ in range(1_000):
        table = {}
        for o in letters:
            table[o] = rand_dims()
            table[aliases[o]] = table[o]
        parts = [
            (i + 1, rng.choice(letters), rng.choice((-3, -2, -1, 1, 2, 3)))
            for i in range(rng.randint(1, 4))
        ]
        first = z_object(parts)
        # rename bases to dimension-equal aliases: equivalent by construction
        second = z_object(
            [(i, aliases[o] if rng.random() < 0.5 else o, c) for i, o, c in parts]
        )
        third = z_object([(i, aliases[o], c) for i, o, c in parts])
        assert z_equiv(first, first, table)
        assert z_equiv(first, second, table) and z_equiv(second, first, table)
        assert z_equiv(second, third, table) and z_equiv(first, third, table)
        assert positive_fold(invariant_of(first, table)) == positive_fold(
            invariant_of(third, table)
        )

    ws = ws_of("fingerprint.json")
    table = ws.fingerprints["tab"]
    for check in ws.checks:
        if check["kind"] != "z_equiv":
            continue
        left, right = ws.zobjects[check["left"]], ws.zobjects[check["right"]]
        assert z_equiv(left, right, table) is check["expect"], check["label"]
        if check["expect"]:
            assert positive_fold(invariant_of(left, table)) == positive_fold(
                invariant_of(right, table)
            )
    assert time.monotonic() - start < 20


FIXTURE_EXITS = {
    "poset2.json": 0,
    "etale2.json": 0,
    "chain3.json": 0,
    "layered2.json": 0,
    "modular.json": 0,
    "fingerprint.json": 0,
    "zlin.json": 0,
}


def test_c12_cli_reports_are_deterministic_with_documented_exits(capsys):
    start = time.monotonic()
    spot_checks = []
    for fixture, expected in FIXTURE_EXITS.items():
        for command in sorted(COMMAND_KINDS):
            outs = []
            for _ in range(2):
                code = main([command, fixture_path(fixture)])
                captured = capsys.readouterr()
                assert captured.err == ""
                assert code == expected, (command, fixture)
                outs.append(captured.out)
            assert outs[0] == outs[1], (command, fixture)
            if json.loads(outs[0])["checks"]:
                spot_checks.append((command, fixture))

    # law failures exit 1, schema violations exit 2, on every command
    for command in sorted(COMMAND_KINDS):
        expected = 1 if command == "validate" else 0
        assert main([command, fixture_path("failing.json")]) == expected
        capsys.readouterr()
        assert main([command, fixture_path("malformed.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is too short" in captured.err

    # byte determinism must also hold across processes with different hash seeds
    for command, fixture in spot_checks[:: max(1, len(spot_checks) // 6)]:
        argv = [sys.executable, "-m", "zsite.cli", command, fixture_path(fixture)]
        outs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                argv, capture_output=True, env=cli_env(PYTHONHASHSEED=seed), check=False
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], (command, fixture)
    assert time.monotonic() - start < 30
