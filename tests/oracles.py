"""Independent oracles the tests compare library output against.

Each one recomputes a result by a mechanism deliberately different from the
implementation: atom pairing instead of interval arithmetic, full cartesian
filtering instead of backtracking, polynomial evaluation instead of
convolution, raw exhaustive functor search instead of the pruned enumerator.
Slow is fine here; these only run at test scale.
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


def matching_tuples_product(F, cat, members):
    """All matching families over one covering family, by brute filtering.

    Takes the full product of section sets and keeps a tuple iff every
    ordered pair (self-pairs included) with a declared pullback agrees after
    restriction to the pullback apex.
    """
    members = sorted(members)
    pools = [F.sections.get(cat.source(f), ()) for f in members]
    out = []
    for combo in itertools.product(*pools):
        good = True
        for i, f in enumerate(members):
            for j, g in enumerate(members):
                chosen = cat.pullbacks.get((f, g))
                if chosen is None:
                    continue
                _apex, to_f, to_g = chosen
                if F.restriction[to_f][combo[i]] != F.restriction[to_g][combo[j]]:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(combo)
    return out


def sheaf_verdict_bruteforce(F, cat, assignment):
    """Separation + unique gluing, recomputed from the raw definition."""
    for obj in sorted(assignment.families):
        for members in assignment.families_of(obj):
            members = sorted(members)
            matching = matching_tuples_product(F, cat, members)
            seen = {}
            for s in F.sections.get(obj, ()):
                key = tuple(F.restriction[f][s] for f in members)
                if key in seen:
                    return False  # two sections restrict identically
                seen[key] = s
            for combo in matching:
                if tuple(combo) not in seen:
                    return False  # a matching family with no gluing
    return True


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
    arrows = sorted(m for m in source.morphisms if m not in idents)

    def between(a, b):
        return [n for n, ends in sorted(target.morphisms.items()) if ends == (a, b)]

    def fits(omap, m):
        s, t = source.morphisms[m]
        return between(omap[s], omap[t])

    def is_iso(m):
        a, b = target.morphisms[m]
        return any(
            target.composition.get((n, m)) == target.identity(a)
            and target.composition.get((m, n)) == target.identity(b)
            for n in between(b, a)
        )

    def functorial(omap, mmap):
        return all(mmap[source.identity(o)] == target.identity(omap[o]) for o in src_objs) and all(
            mmap[h] == target.composition.get((mmap[g], mmap[f]))
            for (g, f), h in source.composition.items()
            if source.morphisms[f][1] == source.morphisms[g][0]
        )

    def full(omap, mmap):
        return all(
            set(between(omap[x], omap[y]))
            <= {mmap[m] for m, ends in source.morphisms.items() if ends == (x, y)}
            for x in src_objs
            for y in src_objs
        )

    def surjective(omap):
        image = set(omap.values())
        return all(
            t in image or any(is_iso(m) for o in image for m in between(o, t)) for t in tgt_objs
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


def non_fes_members(family):
    """Names of the members of a parametrization family that ``fes_bruteforce``
    does not find among the full, essentially surjective functors."""
    members, _work = fes_bruteforce(family.source, family.model.base)
    return [
        fun.name
        for fun in family.members
        if (tuple(sorted(fun.object_map.items())), tuple(sorted(fun.morphism_map.items()))) not in members
    ]


def count_fes_bruteforce(source, target):
    """Number of full, essentially surjective functors, by ``fes_bruteforce``."""
    return len(fes_bruteforce(source, target)[0])


def refinements_product(cat, assignment, family):
    """Refinements of a family by walking the full product of the choices.

    One composite per choice tuple, members and each chosen family's arrows
    in sorted order, so the first undefined composite raised is the one the
    tuple walk meets first.
    """
    members = sorted(family)
    choices = [assignment.families_of(cat.source(f)) for f in members]
    return frozenset(
        frozenset(cat.compose(f, g) for f, sub in zip(members, choice) for g in sorted(sub))
        for choice in itertools.product(*choices)
    )


def compose_by_atoms(base, outer, inner):
    """Normal form of ``outer`` after ``inner``, paired unit atom by unit atom.

    Per middle component, the inner cells into it and the outer cells out of
    it, each in (row, col, arrow) order, are expanded into unit atoms; atom t
    of one side meets atom t of the other and carries the composite of
    their arrows.  That order is the layout of a freshly built morphism, so
    this is the composite of fresh factors on sign-coherent middles.
    """
    into: dict[int, list] = {}
    for row, col, arrow, v in inner.normal_form():
        into.setdefault(col, []).extend([(row, arrow, 1 if v > 0 else -1)] * abs(v))
    out_of: dict[int, list] = {}
    for row, col, arrow, v in outer.normal_form():
        out_of.setdefault(row, []).extend([(col, arrow)] * abs(v))
    cells: dict[tuple[int, int, str], int] = {}
    for middle, atoms in into.items():
        for (row, a_in, sign), (col, a_out) in zip(atoms, out_of[middle], strict=True):
            key = (row, col, base.compose(a_out, a_in))
            cells[key] = cells.get(key, 0) + sign
    return tuple((r, c, a, v) for (r, c, a), v in sorted(cells.items()) if v != 0)
