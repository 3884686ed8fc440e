"""Seeded workspace generators.

Every function here builds plain workspace JSON documents from an explicit
``random.Random``.  Nothing imports ``zsite``: the benchmark's inputs, like
its oracles, do not depend on the code under test.

Sites are finite posets with every binary meet declared as pullback and
product.  Parametrization categories are finite preorders, which have
isomorphisms between distinct objects and therefore non-trivial counts of
full, essentially surjective functors.  Z-linear inputs live over a finite
connected groupoid whose hom-sets are a cyclic group, so every component of
a wide sum can map to every other by several parallel arrows.
"""

from __future__ import annotations

import itertools
import random


def arrow(a: str, b: str) -> str:
    return f"id_{a}" if a == b else f"{a}<{b}"


def pair(g: str, f: str) -> str:
    return f"{g}|{f}"


# =====================================================================
# thin categories
# =====================================================================


def meets(elements, leq) -> dict[tuple[str, str], str]:
    """Greatest lower bound of every pair that has one."""
    out = {}
    for a, b in itertools.product(elements, repeat=2):
        lower = [x for x in elements if leq(x, a) and leq(x, b)]
        tops = [x for x in lower if all(leq(y, x) for y in lower)]
        if len(tops) == 1:
            out[(a, b)] = tops[0]
    return out


def thin_category(elements, leq, with_meets: bool = False) -> dict:
    """Category document of a finite preorder: one arrow a -> b per a <= b.

    With ``with_meets`` (posets only) every cospan gets its meet as declared
    pullback and every object pair its meet as declared product.
    """
    elements = list(elements)
    morphisms = {arrow(a, b): [a, b] for a in elements for b in elements if leq(a, b)}
    composition = {
        pair(arrow(b, c), arrow(a, b)): arrow(a, c)
        for a, b, c in itertools.product(elements, repeat=3)
        if leq(a, b) and leq(b, c)
    }
    doc = {
        "objects": elements,
        "morphisms": morphisms,
        "identities": {a: arrow(a, a) for a in elements},
        "composition": composition,
    }
    if with_meets:
        meet = meets(elements, leq)
        doc["pullbacks"] = {
            pair(f, g): [meet[(a, b)], arrow(meet[(a, b)], a), arrow(meet[(a, b)], b)]
            for f, (a, x) in morphisms.items()
            for g, (b, y) in morphisms.items()
            if x == y and (a, b) in meet
        }
        doc["products"] = {
            pair(a, b): [m, arrow(m, a), arrow(m, b)] for (a, b), m in meet.items()
        }
    return doc


def chain_site(n: int):
    elements = [f"c{i:02d}" for i in range(n)]
    rank = {e: i for i, e in enumerate(elements)}
    return elements, lambda a, b: rank[a] <= rank[b]


def grid_site(rows: int, cols: int):
    elements = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
    coord = {f"g{i}_{j}": (i, j) for i in range(rows) for j in range(cols)}
    return elements, lambda a, b: coord[a][0] <= coord[b][0] and coord[a][1] <= coord[b][1]


def semilattice_site(rng: random.Random, bits: int, size: int, arrows: tuple[int, int]):
    """Random meet-semilattice: subsets of ``bits`` points closed under
    intersection, ordered by inclusion.

    Sets are added one at a time and kept only when the intersection closure
    stays within ``size`` elements; draws repeat until the closure has
    exactly ``size`` elements and its arrow count lies in ``arrows``, so
    every seed yields a site of one size class.
    """
    full = (1 << bits) - 1
    while True:
        family = {full}
        for _ in range(200):
            cand = rng.randrange(1, full)
            grown = set(family)
            frontier = {cand}
            while frontier:
                new = frontier - grown
                grown |= new
                frontier = {x & y for x in new for y in grown} - grown
            if len(grown) <= size:
                family = grown
            if len(family) == size:
                break
        if len(family) != size:
            continue
        count = sum(1 for x in family for y in family if x & y == x)
        if arrows[0] <= count <= arrows[1]:
            break
    elements = [f"s{m:03x}" for m in sorted(family)]
    mask = {f"s{m:03x}": m for m in family}
    return elements, lambda a, b: mask[a] & mask[b] == mask[a]


def preorder(rng: random.Random, prefix: str, class_sizes, class_leq) -> dict:
    """Thin category on iso classes of the given sizes, ordered by class_leq.

    ``class_leq`` is a reflexive, transitive relation on class positions;
    objects in one class are isomorphic.
    """
    cls = {}
    elements = []
    for c, n in enumerate(class_sizes):
        for k in range(n):
            name = f"{prefix}{c}{'abc'[k]}"
            cls[name] = c
            elements.append(name)
    rng.shuffle(elements)
    return thin_category(elements, lambda a, b: class_leq(cls[a], cls[b]))


# =====================================================================
# presheaves on a site
# =====================================================================


def representable(elements, leq, y: str) -> dict:
    """h_y: sections over u are the arrows u -> y; restriction precomposes."""
    sections = {u: [arrow(u, y)] if leq(u, y) else [] for u in elements}
    restrictions = {}
    for u in elements:
        for v in elements:
            if leq(u, v):
                restrictions[arrow(u, v)] = (
                    {arrow(v, y): arrow(u, y)} if leq(v, y) else {}
                )
    return {"sections": sections, "restrictions": restrictions}


def point_presheaf(rng: random.Random, elements, leq, points: int, labels: int, keep: float) -> dict:
    """Restrictions of a random set of labelings of a few points.

    A global labeling assigns a label to each chosen point; its section over
    x keeps the labels of the points below x and blanks the rest.  Taking a
    random subset of all labelings makes gluing fail on some families and
    hold on others.
    """
    chosen = sorted(rng.sample(elements, points))
    every = list(itertools.product(range(labels), repeat=points))
    kept = [s for s in every if rng.random() < keep] or [rng.choice(every)]

    def section(sigma, x):
        return "".join(str(v) if leq(p, x) else "-" for p, v in zip(chosen, sigma))

    sections = {x: sorted({section(s, x) for s in kept}) for x in elements}
    restrictions = {}
    for u in elements:
        for v in elements:
            if leq(u, v):
                restrictions[arrow(u, v)] = {
                    section(s, v): section(s, u) for s in kept
                }
    return {"sections": sections, "restrictions": restrictions}


# =====================================================================
# z-linear inputs
# =====================================================================


def groupoid(objects: int, order: int) -> dict:
    """Connected groupoid: hom(Xi, Xj) is Z/order for every pair."""
    names = [f"X{i}" for i in range(objects)]

    def a(i, j, r):
        return f"a{i}_{j}_{r}"

    morphisms = {
        a(i, j, r): [names[i], names[j]]
        for i in range(objects)
        for j in range(objects)
        for r in range(order)
    }
    composition = {
        pair(a(j, k, s), a(i, j, r)): a(i, k, (r + s) % order)
        for i, j, k in itertools.product(range(objects), repeat=3)
        for r in range(order)
        for s in range(order)
    }
    return {
        "objects": names,
        "morphisms": morphisms,
        "identities": {names[i]: a(i, i, 0) for i in range(objects)},
        "composition": composition,
    }


def wide_sum(rng: random.Random, objects: int, positive: int, negative: int, coeff: tuple[int, int]):
    """Components (index, base object, coefficient): a positive sector of
    ``positive`` components, then a negative one."""
    comps = []
    for idx in range(1, positive + negative + 1):
        sign = 1 if idx <= positive else -1
        comps.append([idx, f"X{rng.randrange(objects)}", sign * rng.randint(*coeff)])
    return comps


def random_coupling(rng: random.Random, order: int, source, target) -> list[list]:
    """Random sign-coherent terms with the given row and column marginals.

    Per sign sector the unit atoms of the source coefficients are matched
    to a random permutation of the target's atoms, and each atom gets a
    random arrow of the cyclic hom-set, so the table is dense and carries
    parallel arrows.  Sector masses must agree.
    """
    cells: dict[tuple[int, int, str], int] = {}
    for sign in (1, -1):
        rows = [(i, o) for i, o, c in source if c * sign > 0 for _ in range(abs(c))]
        cols = [(j, o) for j, o, c in target if c * sign > 0 for _ in range(abs(c))]
        if len(rows) != len(cols):
            raise ValueError("sector masses differ")
        rng.shuffle(cols)
        for (i, oi), (j, oj) in zip(rows, cols):
            key = (i, j, f"a{oi[1:]}_{oj[1:]}_{rng.randrange(order)}")
            cells[key] = cells.get(key, 0) + sign
    return [[i, j, v, a] for (i, j, a), v in sorted(cells.items())]


def narrow_sum(rng: random.Random, objects: int, wide, parts: int):
    """A sum with the same sector masses as ``wide`` on fewer components."""
    comps = []
    for sign in (1, -1):
        mass = sum(abs(c) for _i, _o, c in wide if c * sign > 0)
        cuts = sorted(rng.sample(range(1, mass), parts - 1))
        bounds = [0, *cuts, mass]
        for k in range(parts):
            comps.append([len(comps) + 1, f"X{rng.randrange(objects)}", sign * (bounds[k + 1] - bounds[k])])
    return comps
