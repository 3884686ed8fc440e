"""Randomized builders shared by the module and acceptance suites.

Everything takes an explicit random.Random so failures reproduce from the
seed in the test.  Categories, point presheaves and wide sums are drawn as
raw documents by ``clibench.gen``, the one generator layer, and decoded
through ``zsite.jsonio`` (see ``thin``, ``presheaf_on`` and
``wide_sums``); this module keeps only the builders with no twin there.
Chains are built level by level down a layered thin base, with positive
and negative mass travelling in disjoint component sectors; that keeps
every middle component sign-pure, which is exactly the regime where
composition is total.
"""

import itertools
import random

from clibench import gen
from conftest import replace
from zsite.fincat import FinCat
from zsite.jsonio import _decode, cat_from_doc, cat_to_doc
from zsite.sheaf import Presheaf
from zsite.zlin import ZMorphism, z_morphism, z_object


def thin(name, elements, pairs, with_meets=True) -> FinCat:
    """``gen.thin_category`` of the preorder that ``pairs`` generate on ``elements``.

    ``pairs`` lists (a, b) with a <= b; reflexivity is implied and the
    transitive closure is taken (Warshall).  With ``with_meets`` every
    unique greatest lower bound is declared as pullback and product.
    """
    below = {e: {e} for e in elements}
    for a, b in pairs:
        below[b].add(a)
    for k in elements:
        for b in elements:
            if k in below[b]:
                below[b] |= below[k]
    return cat_from_doc(name, gen.thin_category(elements, lambda a, b: a in below[b], with_meets))


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
    return thin(name, objs, rels), levels


def rand_poset(rng: random.Random, n_objs=5, edge_p=0.45, name="rp"):
    """Random poset category from a random DAG on a fixed topological order."""
    objs = [f"o{i}" for i in range(n_objs)]
    rels = [
        (objs[i], objs[j])
        for i in range(n_objs)
        for j in range(i + 1, n_objs)
        if rng.random() < edge_p
    ]
    return thin(name, objs, rels)


def rand_preorder(rng: random.Random, n_objs=4, edge_p=0.45, back_p=0.3, name="rq"):
    """Random preorder category: a random DAG on a fixed topological order
    with some edges also reversed, so that some objects are isomorphic."""
    objs = [f"o{i}" for i in range(n_objs)]
    rels = [
        (objs[i], objs[j])
        for i in range(n_objs)
        for j in range(i + 1, n_objs)
        if rng.random() < edge_p
    ]
    rels += [(b, a) for a, b in rels if rng.random() < back_p]
    return thin(name, objs, rels, with_meets=False)


def rand_small_category(rng: random.Random, most: int, name: str, order=3):
    """A random poset or preorder of up to ``most`` objects, or a
    ``gen.groupoid`` on one or two objects whose hom-sets have up to
    ``order`` arrows."""
    kind = rng.randrange(3)
    if kind == 0:
        return rand_poset(rng, n_objs=rng.randint(1, most), name=name)
    if kind == 1:
        return rand_preorder(rng, n_objs=rng.randint(1, most), name=name)
    return cat_from_doc(name, gen.groupoid(rng.randint(1, 2), rng.randint(1, order)))


def presheaf_on(cat: FinCat, doc: dict):
    """``doc``, the sections and restrictions of a presheaf on ``cat``,
    decoded by ``jsonio._decode`` as presheaf P of a workspace holding only
    the two."""
    raw = {"categories": {cat.name: cat_to_doc(cat)}, "presheaves": {"P": {"category": cat.name, **doc}}}
    return _decode(raw).presheaves["P"]


def drop_composites(rng: random.Random, cat: FinCat, most=3) -> FinCat:
    """``cat`` without one to ``most`` random composites, identity composites included."""
    gone = set(rng.sample(sorted(cat.composition), min(len(cat.composition), rng.randint(1, most))))
    return replace(cat, composition={k: v for k, v in cat.composition.items() if k not in gone})


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


def wide_sums(rng: random.Random, positive: int, negative: int, endos: int, parts: int) -> dict:
    """Raw z-compose workspace over ``gen.groupoid(3, 3)``, named G.

    W is a ``gen.wide_sum`` of ``positive`` and ``negative`` components of
    mass 8-14, e0, e1, ... are ``endos`` random couplings W -> W, and p is
    one onto a ``gen.narrow_sum`` V of ``parts`` components per sign.
    """
    wide = gen.wide_sum(rng, 3, positive, negative, (8, 14))
    narrow = gen.narrow_sum(rng, 3, wide, parts)
    terms = {f"e{i}": gen.random_coupling(rng, 3, wide, wide) for i in range(endos)}
    terms["p"] = gen.random_coupling(rng, 3, wide, narrow)
    return {
        "categories": {"G": gen.groupoid(3, 3)},
        "zobjects": {"W": {"components": wide}, "V": {"components": narrow}},
        "zmorphisms": {
            name: {"category": "G", "source": "W", "target": "V" if name == "p" else "W", "terms": table}
            for name, table in terms.items()
        },
    }


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


# =====================================================================
# schema-valid reassignments
# =====================================================================


def _reassignable(raw) -> list:
    """(container, key, candidates) of every entry ``reassign_workspace`` may
    set, each candidate an id of the same sort.  An arrow- or object-valued
    entry may also become ``"ghost"``, which names nothing; the decoder
    resolves none of these entries, so the document stays schema-valid and
    loads."""
    cats = raw.get("categories", {})
    arrows = {name: sorted(cat["morphisms"]) + ["ghost"] for name, cat in cats.items()}
    objects = {name: sorted(cat["objects"]) + ["ghost"] for name, cat in cats.items()}
    slots = []
    for name, cat in cats.items():
        slots += [(cat["composition"], key, arrows[name]) for key in cat["composition"]]
        slots += [(row, leg, arrows[name]) for row in cat.get("pullbacks", {}).values() for leg in (1, 2)]
    for F in raw.get("presheaves", {}).values():
        sections = sorted({s for over in F["sections"].values() for s in over})
        slots += [(table, s, sections) for table in F["restrictions"].values() for s in table]
    for base in raw.get("pointed_bases", {}).values():
        points = sorted({p for over in base["points"].values() for p in over})
        slots += [(table, p, points) for table in base["point_map"].values() for p in table]
    for phi in raw.get("zmorphisms", {}).values():
        slots += [(term, 3, arrows[phi["category"]]) for term in phi["terms"]]
    for K in raw.get("coverings", {}).values():
        families = [family for fams in K["families"].values() for family in fams]
        slots += [(family, pos, arrows[K["category"]]) for family in families for pos in range(len(family))]
    for fun in raw.get("functors", {}).values():
        slots += [(fun["objects"], obj, objects[fun["target"]]) for obj in fun["objects"]]
        slots += [(fun["morphisms"], m, arrows[fun["target"]]) for m in fun["morphisms"]]
    for layered in raw.get("layered", {}).values():
        for lower, mapping in zip(layered["levels"], layered["membership"]):
            slots += [(mapping, obj, objects[lower]) for obj in mapping]
    for model in raw.get("model_cats", {}).values():
        for label in ("weq", "cof", "fib"):
            slots += [(model[label], pos, arrows[model["category"]]) for pos in range(len(model[label]))]
    for square in raw.get("squares", {}).values():
        sides = ("u_to_x", "v_to_x", "w_to_u", "w_to_v")
        slots += [(square, side, arrows[square["category"]]) for side in sides]
    return slots


def reassign_workspace(rng: random.Random, raw: dict, edits: int = 1) -> dict:
    """Apply ``edits`` schema-valid reassignments to a raw workspace in place.

    Each sets one entry to another id of its sort: a composite value, a
    pullback leg, a restriction or point-map entry, a term's arrow, a
    covering member, a functor's object or morphism image, a layered
    membership entry, a class label of a model category or a square's side.
    An arrow or object may also become ``"ghost"``.  The edited workspace
    still loads; whether its documents still pass their validators is left
    to chance.
    """
    for _ in range(edits):
        slots = _reassignable(raw)
        if slots:
            node, key, candidates = rng.choice(slots)
            node[key] = rng.choice(candidates)
    return raw
