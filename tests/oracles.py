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


def count_fes_bruteforce(source, target):
    """Count full, essentially surjective functors by raw enumeration.

    No pruning: every object map and every endpoint-respecting morphism map
    is generated, then functor laws, fullness, and essential surjectivity
    are tested from their definitions.
    """
    src_objs = sorted(source.objects)
    tgt_objs = sorted(target.objects)
    src_mors = sorted(source.morphisms)

    def is_iso(cat, m):
        a, b = cat.morphisms[m]
        return any(
            cat.composition.get((n, m)) == cat.identity(a)
            and cat.composition.get((m, n)) == cat.identity(b)
            for n, (s, t) in cat.morphisms.items()
            if s == b and t == a
        )

    count = 0
    for omap_vals in itertools.product(tgt_objs, repeat=len(src_objs)):
        omap = dict(zip(src_objs, omap_vals))
        choices = []
        for m in src_mors:
            s, t = source.morphisms[m]
            fits = [
                n
                for n, (ns, nt) in sorted(target.morphisms.items())
                if ns == omap[s] and nt == omap[t]
            ]
            choices.append(fits)
        for mmap_vals in itertools.product(*choices):
            mmap = dict(zip(src_mors, mmap_vals))
            if any(mmap[source.identity(o)] != target.identity(omap[o]) for o in src_objs):
                continue
            if any(
                mmap[h] != target.composition.get((mmap[g], mmap[f]))
                for (g, f), h in source.composition.items()
            ):
                continue
            full = True
            for x in src_objs:
                for y in src_objs:
                    wanted = {
                        n
                        for n, (ns, nt) in target.morphisms.items()
                        if ns == omap[x] and nt == omap[y]
                    }
                    got = {
                        mmap[m]
                        for m, (ms, mt) in source.morphisms.items()
                        if ms == x and mt == y
                    }
                    if wanted != got:
                        full = False
                        break
                if not full:
                    break
            if not full:
                continue
            image = set(omap.values())
            es = all(
                t in image
                or any(
                    is_iso(target, m)
                    and {target.morphisms[m][0], target.morphisms[m][1]} == {t, o}
                    for o in image
                    for m in target.morphisms
                )
                for t in tgt_objs
            )
            if es:
                count += 1
    return count


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
