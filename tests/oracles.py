"""Independent oracles the tests compare library output against.

The shared oracles live in ``clibench.oracles``: covering closure, the
sheaf verdict, the count of full, essentially surjective functors and
Z-linear composition by atom pairing.  This module keeps the ones with no
twin there: interval overlaps by atom pairing, polynomial evaluation, the
matching families of one covering family by product-and-filter, the
refinements of a family by the full product of choices, and the raw
functor search that also yields its members and the enumerator's budget
work.

Like ``clibench.oracles`` they read raw tables only: a category is a
``clibench.oracles.Tables`` index over its document, a presheaf a dict
with ``sections`` and ``restrictions``, a covering a dict from object to
families.  Nothing here imports ``zsite``.  Slow is fine here; these only
run at test scale.
"""

import itertools


def overlap_by_atoms(rows, cols):
    """Interval-overlap table computed by pairing unit atoms one by one.

    Lay |total| atoms on a line; atom t belongs to the row interval covering
    position t and likewise for columns; the (a, b) entry counts shared
    atoms, signed back by the common sign.
    """
    total = sum(rows)
    assert total == sum(cols)
    sign = -1 if total < 0 else 1
    row_of = []
    for a, r in enumerate(rows, start=1):
        row_of.extend([a] * abs(r))
    col_of = []
    for b, c in enumerate(cols, start=1):
        col_of.extend([b] * abs(c))
    table = {}
    for t in range(abs(total)):
        key = (row_of[t], col_of[t])
        table[key] = table.get(key, 0) + sign
    return table


def poly_eval(dims, x):
    return sum(d * x**k for k, d in enumerate(dims))


def matching_tuples_product(cat, presheaf, members):
    """All matching families over one covering family, by brute filtering.

    Takes the full product of section sets and keeps a tuple iff every
    ordered pair (self-pairs included) with a declared pullback agrees after
    restriction to the pullback apex.
    """
    sections, restrict = presheaf["sections"], presheaf["restrictions"]
    members = sorted(members)
    pools = [sections.get(cat.source(f), ()) for f in members]

    def matches(combo):
        for i, f in enumerate(members):
            for j, g in enumerate(members):
                chosen = cat.pullbacks.get((f, g))
                if chosen is not None and restrict[chosen[1]][combo[i]] != restrict[chosen[2]][combo[j]]:
                    return False
        return True

    return [combo for combo in itertools.product(*pools) if matches(combo)]


def fes_bruteforce(source, target):
    """Full, essentially surjective functors and the raw budget work, from their definitions.

    No pruning: every object map, every endpoint-respecting map of the
    non-identity morphisms and every endpoint-respecting choice of identity
    images is generated; then identity preservation, preservation of every
    declared composite of a composable pair, fullness and essential
    surjectivity are tested.  The work is the number of non-identity maps
    generated, which is what the enumerator's budget counts.  Returns the
    set of member keys, (sorted object map items, sorted morphism map
    items), and the work.
    """
    src_objs = sorted(source.objects)
    tgt_objs = sorted(target.objects)
    idents = sorted(set(source.identities.values()))
    arrows = sorted(m for m in source.ends if m not in idents)

    def between(a, b):
        return [n for n, ends in sorted(target.ends.items()) if ends == (a, b)]

    def fits(omap, m):
        s, t = source.ends[m]
        return between(omap[s], omap[t])

    def functorial(omap, mmap):
        return all(mmap[source.identities[o]] == target.identities[omap[o]] for o in src_objs) and all(
            mmap[h] == target.comp.get((mmap[g], mmap[f]))
            for (g, f), h in source.comp.items()
            if source.ends[f][1] == source.ends[g][0]
        )

    def full(omap, mmap):
        return all(
            set(between(omap[x], omap[y]))
            <= {mmap[m] for m, ends in source.ends.items() if ends == (x, y)}
            for x in src_objs
            for y in src_objs
        )

    def surjective(omap):
        image = set(omap.values())
        return all(
            t in image or any(m in target.isos for o in image for m in between(o, t)) for t in tgt_objs
        )

    members, work = set(), 0
    for values in itertools.product(tgt_objs, repeat=len(src_objs)):
        omap = dict(zip(src_objs, values))
        for choice in itertools.product(*(fits(omap, m) for m in arrows)):
            work += 1
            for ident_choice in itertools.product(*(fits(omap, i) for i in idents)):
                mmap = dict(zip(arrows, choice)) | dict(zip(idents, ident_choice))
                if functorial(omap, mmap) and full(omap, mmap) and surjective(omap):
                    members.add((tuple(sorted(omap.items())), tuple(sorted(mmap.items()))))
    return members, work


def non_fes_members(source, target, members):
    """Names of ``members``, name -> (object map, morphism map), that
    ``fes_bruteforce`` does not find among the full, essentially surjective
    functors source -> target."""
    found, _work = fes_bruteforce(source, target)
    return [
        name
        for name, (omap, mmap) in members.items()
        if (tuple(sorted(omap.items())), tuple(sorted(mmap.items()))) not in found
    ]


def refinements_product(cat, K, family):
    """Refinements of a family by walking the full product of the choices.

    Each member's choices are the families K assigns its source, by (size,
    sorted arrows); one composite per choice tuple, members and each chosen
    family's arrows in sorted order, so the first undefined composite, a
    KeyError naming the pair, is the one the tuple walk meets first.
    """
    members = sorted(family)
    choices = [sorted(K.get(cat.source(f), ()), key=lambda sub: (len(sub), sorted(sub))) for f in members]
    return frozenset(
        frozenset(cat.comp[(f, g)] for f, sub in zip(members, choice) for g in sorted(sub))
        for choice in itertools.product(*choices)
    )
