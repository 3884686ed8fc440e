"""Independent oracles for the benchmark's verdict checks.

Each one recomputes, from the workspace documents alone, a result the CLI
reports, by a mechanism other than the program's:

* ``closure``: covering closure as a round-based fixpoint whose refinement
  step folds member by member over deduplicated partial unions, where the
  program enumerates the full product of refinement choices;
* ``pullback_gaps``: the families a covering misses under base change;
* ``sheaf_verdict``: the sheaf condition by product-and-filter over section
  tuples, where the program backtracks;
* ``count_fes``: full, essentially surjective functors by raw enumeration of
  object and morphism maps;
* ``compose_by_atoms``: Z-linear composition by pairing unit atoms, where the
  program overlaps intervals.

None of them imports ``zsite``.
"""

from __future__ import annotations

import itertools


def _pair(key: str) -> tuple[str, str]:
    g, f = key.split("|")
    return g, f


class Tables:
    """Read-only index over one category document."""

    def __init__(self, doc: dict):
        self.objects = list(doc["objects"])
        self.ends = {m: tuple(e) for m, e in doc["morphisms"].items()}
        self.identities = dict(doc["identities"])
        self.comp = {_pair(k): v for k, v in doc["composition"].items()}
        self.pullbacks = {_pair(k): tuple(v) for k, v in doc.get("pullbacks", {}).items()}
        self.into: dict[str, list[str]] = {o: [] for o in self.objects}
        for m, (_s, t) in sorted(self.ends.items()):
            self.into[t].append(m)
        self.isos = frozenset(
            m
            for m, (s, t) in self.ends.items()
            if any(
                self.comp.get((n, m)) == self.identities[s] and self.comp.get((m, n)) == self.identities[t]
                for n, ends in self.ends.items()
                if ends == (t, s)
            )
        )

    def source(self, m: str) -> str:
        return self.ends[m][0]


# =====================================================================
# coverings
# =====================================================================


def pulled(cat: Tables, family, g: str):
    """Base change of a family along g, or None without declared pullbacks."""
    legs = []
    for f in family:
        chosen = cat.pullbacks.get((f, g))
        if chosen is None:
            return None
        legs.append(chosen[2])
    return frozenset(legs)


def _refinements(cat: Tables, family, K) -> set[frozenset]:
    partial = {frozenset()}
    for f in sorted(family):
        choices = K.get(cat.source(f), set())
        if not choices:
            return set()
        partial = {
            p | frozenset(cat.comp[(f, g)] for g in sub) for p in partial for sub in choices
        }
    return partial


def closure(cat: Tables, seeds: dict[str, list[list[str]]]) -> dict[str, set[frozenset]]:
    """Least assignment holding the seeds that satisfies the three axioms
    (iso singletons, base change along declared pullbacks, refinement)."""
    K: dict[str, set[frozenset]] = {o: set() for o in cat.objects}
    for obj, fams in seeds.items():
        K[obj] |= {frozenset(f) for f in fams}
    for m in cat.isos:
        K[cat.ends[m][1]].add(frozenset({m}))
    changed = True
    while changed:
        changed = False
        for obj in cat.objects:
            for fam in list(K[obj]):
                derived = [(cat.source(g), pulled(cat, fam, g)) for g in cat.into[obj]]
                derived += [(obj, r) for r in _refinements(cat, fam, K)]
                for where, new in derived:
                    if new is not None and new not in K[where]:
                        K[where].add(new)
                        changed = True
    return {o: fams for o, fams in K.items() if fams}


def pullback_gaps(cat: Tables, K) -> set[tuple[str, frozenset]]:
    """(object, family) pairs that base change demands but K lacks."""
    gaps = set()
    for obj, fams in K.items():
        for fam in fams:
            for g in cat.into[obj]:
                new = pulled(cat, fam, g)
                if new is not None and new not in K.get(cat.source(g), ()):
                    gaps.add((cat.source(g), new))
    return gaps


def family_label(family) -> str:
    return "{" + ",".join(sorted(family)) + "}"


# =====================================================================
# sheaves
# =====================================================================


def sheaf_verdict(cat: Tables, presheaf: dict, K) -> bool:
    """Separation and unique gluing on every assigned family.

    Matching families are the members of the full product of section sets
    whose every ordered pair of entries (self-pairs included) agrees on the
    declared pullback.
    """
    sections, restrict = presheaf["sections"], presheaf["restrictions"]
    for obj in sorted(K):
        for fam in K[obj]:
            members = sorted(fam)
            legs = {(i, j): cat.pullbacks.get((f, g)) for i, f in enumerate(members) for j, g in enumerate(members)}
            if any(v is None for v in legs.values()):
                continue
            matching = [
                combo
                for combo in itertools.product(*(sections[cat.source(f)] for f in members))
                if all(
                    restrict[ta][combo[i]] == restrict[tb][combo[j]]
                    for (i, j), (_apex, ta, tb) in legs.items()
                )
            ]
            glued = {}
            for s in sections[obj]:
                image = tuple(restrict[f][s] for f in members)
                if image in glued:
                    return False
                glued[image] = s
            if any(combo not in glued for combo in matching):
                return False
    return True


# =====================================================================
# parametrizations
# =====================================================================


def count_fes(source: Tables, target: Tables) -> int:
    """Functors source -> target that are full and essentially surjective.

    Every object map is generated and tested for essential surjectivity,
    then every endpoint-respecting morphism map of the survivors for
    functoriality and fullness, each from its definition.
    """
    iso_pairs = {target.ends[m] for m in target.isos}
    homs: dict[tuple[str, str], set[str]] = {}
    for m, ends in target.ends.items():
        homs.setdefault(ends, set()).add(m)
    src_homs: dict[tuple[str, str], list[str]] = {}
    for m, ends in source.ends.items():
        src_homs.setdefault(ends, []).append(m)
    mors = sorted(source.ends)
    count = 0
    for images in itertools.product(target.objects, repeat=len(source.objects)):
        omap = dict(zip(source.objects, images))
        reached = set(images)
        if any(all((i, t) not in iso_pairs for i in reached) for t in target.objects if t not in reached):
            continue
        options = [sorted(homs.get((omap[source.ends[m][0]], omap[source.ends[m][1]]), ())) for m in mors]
        for choice in itertools.product(*options):
            mmap = dict(zip(mors, choice))
            if any(mmap[source.identities[o]] != target.identities[omap[o]] for o in source.objects):
                continue
            if any(mmap[h] != target.comp.get((mmap[g], mmap[f])) for (g, f), h in source.comp.items()):
                continue
            if all(
                {mmap[m] for m in src_homs.get((x, y), ())} == homs.get((omap[x], omap[y]), set())
                for x in source.objects
                for y in source.objects
            ):
                count += 1
    return count


# =====================================================================
# Z-linear composition
# =====================================================================


def compose_by_atoms(comp: dict[tuple[str, str], str], outer_terms, inner_terms) -> list[list]:
    """Normal form of outer after inner, atom by atom.

    Per middle component, the inner terms into it (in row, arrow order) and
    the outer terms out of it (in column, arrow order) are each expanded into
    unit atoms; atom t of one side is paired with atom t of the other and
    carried by the composite arrow.
    """
    into: dict[int, list] = {}
    for r, c, v, a in sorted(inner_terms, key=lambda t: (t[0], t[1], t[3])):
        into.setdefault(c, []).extend([(r, a, 1 if v > 0 else -1)] * abs(v))
    out_of: dict[int, list] = {}
    for r, c, v, a in sorted(outer_terms, key=lambda t: (t[0], t[1], t[3])):
        out_of.setdefault(r, []).extend([(c, a)] * abs(v))
    cells: dict[tuple[int, int, str], int] = {}
    for middle, atoms in into.items():
        for (row, a_in, sign), (col, a_out) in zip(atoms, out_of[middle], strict=True):
            key = (row, col, comp[(a_out, a_in)])
            cells[key] = cells.get(key, 0) + sign
    return [[r, c, v, a] for (r, c, a), v in sorted(cells.items()) if v != 0]


def marginals_hold(doc: dict) -> bool:
    """Row sums give the source coefficients, column sums the target's."""
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for r, c, v, _a in doc["terms"]:
        rows[r] = rows.get(r, 0) + v
        cols[c] = cols.get(c, 0) + v
    return rows == {i: c for i, _o, c in doc["source_components"]} and cols == {
        j: c for j, _o, c in doc["target_components"]
    }
