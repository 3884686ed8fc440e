"""Randomized builders shared by the module and acceptance suites.

Everything takes an explicit random.Random so failures reproduce from the
seed in the test.  Chains are built level by level down a layered thin
base, with positive and negative mass travelling in disjoint component
sectors; that keeps every middle component sign-pure, which is exactly the
regime where composition is total.
"""

import itertools
import random

from zsite.fincat import FinCat, poset_category
from zsite.sheaf import Presheaf
from zsite.zlin import ZMorphism, z_morphism, z_object


def layered_base(sizes, name="layers"):
    """Thin category on levels; every object maps into every later level."""
    objs, rels = [], []
    levels = []
    for depth, width in enumerate(sizes):
        level = [f"L{depth}n{i}" for i in range(width)]
        levels.append(level)
        objs.extend(level)
    for below, above in zip(levels, levels[1:]):
        rels.extend((a, b) for a in below for b in above)
    return poset_category(name, objs, rels), levels


def rand_poset(rng: random.Random, n_objs=5, edge_p=0.45, name="rp"):
    """Random poset category from a random DAG on a fixed topological order."""
    objs = [f"o{i}" for i in range(n_objs)]
    rels = [
        (objs[i], objs[j])
        for i in range(n_objs)
        for j in range(i + 1, n_objs)
        if rng.random() < edge_p
    ]
    return poset_category(name, objs, rels)


def rand_seeds(rng: random.Random, cat: FinCat, max_seeds=2):
    """Random covering seeds: nonempty subsets of the arrows into an object."""
    seeds: dict[str, frozenset] = {}
    for _ in range(rng.randint(1, max_seeds)):
        obj = rng.choice(sorted(cat.objects))
        incoming = sorted(m for m in cat.morphisms if cat.target(m) == obj)
        fam = frozenset(rng.sample(incoming, rng.randint(1, min(3, len(incoming)))))
        seeds.setdefault(obj, frozenset())
        seeds[obj] = seeds[obj] | {fam}
    return seeds


def composition_of(rng: random.Random, n: int, k: int):
    """Random ordered composition of n >= k into k positive parts."""
    if k == 1:
        return [n]
    cuts = sorted(rng.sample(range(1, n), k - 1))
    bounds = [0, *cuts, n]
    return [bounds[i + 1] - bounds[i] for i in range(k)]


def rand_zobj(rng: random.Random, pool, total, max_parts=3, max_coeff=5):
    """Signed composition of ``total`` with base objects drawn from pool."""
    sgn = 1 if total > 0 else -1
    n = abs(total)
    lo = -(-n // max_coeff)  # ceil: enough parts to keep each within bound
    k = rng.randint(lo, max(lo, min(max_parts, n)))
    while True:
        parts = composition_of(rng, n, k)
        if max(parts) <= max_coeff:
            break
    return z_object((i + 1, rng.choice(pool), sgn * p) for i, p in enumerate(parts))


def rand_step(rng: random.Random, base: FinCat, src, pool, max_cols=3, max_coeff=5):
    """Random strict sign-coherent morphism out of a sign-pure ``src``.

    Columns are drawn from ``pool``; the target is read off the column
    sums, so both marginals hold by construction.
    """
    k = rng.randint(1, max_cols)
    col_objs = [rng.choice(pool) for _ in range(k)]
    cells = []
    col_mass = [0] * k
    for idx, obj, coeff in src.components:
        sgn = 1 if coeff > 0 else -1
        n = abs(coeff)
        pieces = composition_of(rng, n, rng.randint(1, min(n, k)))
        cols = rng.sample(range(k), len(pieces))
        for c, p in zip(cols, pieces):
            arrows = base.hom(obj, col_objs[c])
            cells.append((idx, c + 1, sgn * p, rng.choice(arrows)))
            col_mass[c] += sgn * p
    if any(abs(m) > max_coeff for m in col_mass):
        # a column overflowed the coefficient bound; redraw
        return rand_step(rng, base, src, pool, max_cols, max_coeff)
    keep = [c for c in range(k) if col_mass[c] != 0]
    renum = {c + 1: j + 1 for j, c in enumerate(keep)}
    tgt = z_object((renum[c + 1], col_objs[c], col_mass[c]) for c in keep)
    cells = [(r, renum[c], v, a) for r, c, v, a in cells if c in renum]
    return z_morphism(src, tgt, cells)


def merge_steps(steps) -> ZMorphism:
    """Disjoint union of morphisms: reindex each summand's components."""
    cells, src_parts, tgt_parts = [], [], []
    r_off = c_off = 0
    for phi in steps:
        src_parts.extend((i + r_off, o, c) for i, o, c in phi.source.components)
        tgt_parts.extend((j + c_off, o, c) for j, o, c in phi.target.components)
        cells.extend((r + r_off, c + c_off, v, a) for r, c, a, v in phi.normal_form())
        r_off += len(phi.source.components)
        c_off += len(phi.target.components)
    return z_morphism(z_object(src_parts), z_object(tgt_parts), cells)


def all_maps(dom, cod):
    """Every function dom -> cod as a dict; one empty map when dom is empty."""
    if not dom:
        yield {}
        return
    if not cod:
        return
    for values in itertools.product(cod, repeat=len(dom)):
        yield dict(zip(dom, values))


def chain_presheaves(cat, max_sections=2):
    """Every presheaf on the chain A < B < T with small section sets.

    Section sets are prefixes of one fixed alphabet, so the enumeration is
    exhaustive up to renaming sections.  Only the A<B and B<T restrictions
    are free; A<T is forced by contravariance and identities act trivially.
    """
    alphabet = tuple(str(i) for i in range(max_sections))
    sizes = range(max_sections + 1)
    out = []
    for n_a, n_b, n_t in itertools.product(sizes, repeat=3):
        s_a, s_b, s_t = alphabet[:n_a], alphabet[:n_b], alphabet[:n_t]
        for r_bt in all_maps(s_t, s_b):
            for r_ab in all_maps(s_b, s_a):
                restriction = {
                    "id_A": {x: x for x in s_a},
                    "id_B": {x: x for x in s_b},
                    "id_T": {x: x for x in s_t},
                    "A<B": dict(r_ab),
                    "B<T": dict(r_bt),
                    "A<T": {x: r_ab[r_bt[x]] for x in s_t},
                }
                out.append(
                    Presheaf(
                        name=f"P{len(out)}",
                        cat=cat,
                        sections={"A": s_a, "B": s_b, "T": s_t},
                        restriction=restriction,
                    )
                )
    return out


def rand_chain(rng: random.Random, base: FinCat, levels, length=3, max_total=6):
    """Composable chain of sign-coherent morphisms down the levels.

    Consecutive members share their middle object exactly, so the chain
    composes in any association.
    """
    totals = [rng.randint(1, max_total)]
    if rng.random() < 0.5:
        totals.append(-rng.randint(1, max_total))
    sector_objs = [rand_zobj(rng, levels[0], t) for t in totals]
    chain = []
    for step in range(length):
        steps = [rand_step(rng, base, s, levels[step + 1]) for s in sector_objs]
        chain.append(merge_steps(steps))
        sector_objs = [phi.target for phi in steps]
    return chain


def cyclic_groupoid(objects: int, order: int, name="cyc") -> FinCat:
    """Connected groupoid on X0..X{objects-1}; every hom-set is Z/order.

    Arrow ``g{i}.{j}.{r}`` goes from Xi to Xj, and composing adds the
    residues, so every pair of objects is joined by ``order`` parallel arrows.
    """
    def arrow(i, j, r):
        return f"g{i}.{j}.{r % order}"

    idx = range(objects)
    return FinCat(
        name=name,
        objects=tuple(f"X{i}" for i in idx),
        morphisms={arrow(i, j, r): (f"X{i}", f"X{j}") for i in idx for j in idx for r in range(order)},
        identities={f"X{i}": arrow(i, i, 0) for i in idx},
        composition={
            (arrow(j, k, s), arrow(i, j, r)): arrow(i, k, r + s)
            for i, j, k in itertools.product(idx, repeat=3)
            for r in range(order)
            for s in range(order)
        },
    )


def wide_zobj(rng: random.Random, pool, positive: int, negative: int, coeff=(8, 14)):
    """A positive sector of ``positive`` components, then a negative one."""
    return z_object(
        (idx, rng.choice(pool), (1 if idx <= positive else -1) * rng.randint(*coeff))
        for idx in range(1, positive + negative + 1)
    )


def atom_coupling(rng: random.Random, base: FinCat, src, tgt) -> ZMorphism:
    """Random sign-coherent morphism src -> tgt with both marginals exact.

    Per sign, the unit atoms of the source components are dealt onto a
    shuffled list of the target's atoms, each pair carried by a random
    arrow; the two sums must have equal mass in each sign.
    """
    cells = []
    for sign in (1, -1):
        rows = [(i, o) for i, o, c in src.components if c * sign > 0 for _ in range(abs(c))]
        cols = [(j, o) for j, o, c in tgt.components if c * sign > 0 for _ in range(abs(c))]
        if len(rows) != len(cols):
            raise ValueError("sector masses differ")
        rng.shuffle(cols)
        cells.extend((i, j, sign, rng.choice(base.hom(a, b))) for (i, a), (j, b) in zip(rows, cols))
    return z_morphism(src, tgt, cells)


def narrow_zobj(rng: random.Random, pool, wide, parts: int):
    """``parts`` components per sign carrying the sector masses of ``wide``."""
    comps = []
    for sign in (1, -1):
        mass = sum(abs(c) for _i, _o, c in wide.components if c * sign > 0)
        for p in composition_of(rng, mass, parts):
            comps.append((len(comps) + 1, rng.choice(pool), sign * p))
    return z_object(comps)


# =====================================================================
# damaged workspace documents
# =====================================================================


def _entries(node):
    """(container, key) of every entry under a raw JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_entries(value))
    return out


def _drop_key(rng, raw):
    slots = [(node, key) for node, key in _entries(raw) if isinstance(node, dict)]
    if slots:
        node, key = rng.choice(slots)
        del node[key]


def _dangle_id(rng, raw):
    """Point a reference at a missing id, or rename an id out from under its references."""
    if rng.random() < 0.5:
        slots = [(node, key) for node, key in _entries(raw) if isinstance(node[key], str)]
        if slots:
            node, key = rng.choice(slots)
            node[key] = "ghost"
    else:
        slots = [(node, key) for node, key in _entries(raw) if isinstance(node, dict)]
        if slots:
            node, key = rng.choice(slots)
            node["ghost"] = node.pop(key)


def _truncate(rng, raw):
    nodes = [node[key] for node, key in _entries(raw) if isinstance(node[key], (list, dict)) and node[key]]
    if nodes:
        node = rng.choice(nodes)
        keep = rng.randrange(len(node))
        if isinstance(node, list):
            del node[keep:]
        else:
            for key in list(node)[keep:]:
                del node[key]


def _delete_composites(rng, raw):
    tables = [doc["composition"] for doc in raw.get("categories", {}).values() if doc.get("composition")]
    if tables:
        table = rng.choice(tables)
        for key in rng.sample(sorted(table), rng.randint(1, len(table))):
            del table[key]


def _zobject_components(raw):
    """Each zobject's components that are still (index, object, coefficient) triples."""
    sums = [doc.get("components", []) for doc in raw.get("zobjects", {}).values()]
    return [[c for c in comps if isinstance(c, list) and len(c) == 3] for comps in sums]


def _duplicate_index(rng, raw):
    sums = [comps for comps in _zobject_components(raw) if len(comps) > 1]
    if sums:
        first, second = rng.sample(rng.choice(sums), 2)
        second[0] = first[0]


def _zero_coefficient(rng, raw):
    sums = [comps for comps in _zobject_components(raw) if comps]
    if sums:
        rng.choice(rng.choice(sums))[2] = 0


_MUTATIONS = (_drop_key, _dangle_id, _truncate, _delete_composites, _duplicate_index, _zero_coefficient)


def damage_workspace(rng: random.Random, raw: dict, edits: int = 3) -> dict:
    """Apply ``edits`` random mutations to a raw workspace document in place.

    Mutations drop a key, leave an id dangling, truncate a list or table,
    delete composites, duplicate a zobject's component index or zero one of
    its coefficients; one that finds nothing to change does nothing.
    """
    for _ in range(edits):
        rng.choice(_MUTATIONS)(rng, raw)
    return raw
