"""Presheaves of finite sets and the gluing conditions on them.

A presheaf is a pair of finite tables: section labels per object and, per
morphism, a restriction function from the target's sections to the source's.
The sheaf condition for a covering family is stated as usual: the canonical
map from global sections to matching families is a bijection.  Matching
families are enumerated exactly (backtracking over the family, pruning with
every pairwise compatibility as soon as both legs are assigned); the test
suite keeps a separate product-and-filter enumeration to compare against.

For formal sums there is a parallel layer: set-valued data indexed by
ZObjects, restricted along strict morphisms.  Representables at that level
are the row-strict coefficient tables into a fixed target, for which
sections over a sum decompose componentwise by construction; constant data
shows the decomposition failing, which is exactly what the additivity check
is for.
"""

from __future__ import annotations

import itertools

from . import reports
from .fincat import DEFAULT_BUDGET, FinCat, InputError, ResourceBudgetError
from .records import Record
from .reports import Report
from .search import backtrack
from .site import CoveringAssignment, Square, _family_label
from .zlin import ZObject, enumerate_correspondences, slice_correspondence


# =====================================================================
# presheaves on the base category
# =====================================================================


class Presheaf(Record):
    """Finite contravariant set-valued data on a finite category.

    restriction[f] maps sections over target(f) to sections over source(f).
    """

    def __init__(
        self, name: str, cat: FinCat, sections: dict[str, tuple[str, ...]], restriction: dict[str, dict[str, str]]
    ):
        vars(self).update(name=name, cat=cat, sections=sections, restriction=restriction)

    def sections_of(self, obj: str) -> tuple[str, ...]:
        return self.sections.get(obj, ())

    def restrict(self, m: str, section: str) -> str:
        return self.restriction[m][section]


def validate_presheaf(F: Presheaf) -> Report:
    cat = F.cat
    rows = []
    for obj in cat.objects:
        if obj not in F.sections:
            rows.append(reports.structural("sections_declared", (obj,), "no section set"))
    for m in sorted(cat.morphisms):
        src, tgt = cat.morphisms[m]
        table = F.restriction.get(m)
        if table is None:
            rows.append(reports.structural("restriction_declared", (m,), "no restriction map"))
            continue
        for s in F.sections_of(tgt):
            if s not in table:
                rows.append(reports.structural("restriction_total", (m, s), "section not mapped"))
            elif table[s] not in F.sections_of(src):
                rows.append(
                    reports.structural(
                        "restriction_range", (m, s), f"maps to unknown section {table[s]}"
                    )
                )
        for s in table:
            if s not in F.sections_of(tgt):
                rows.append(reports.structural("restriction_domain", (m, s), "not a target section"))
    if any(f.kind == reports.STRUCTURAL for f in rows):
        return Report.collect(F.name, rows)

    for obj in cat.objects:
        ident = cat.identity(obj)
        for s in F.sections_of(obj):
            if F.restrict(ident, s) != s:
                rows.append(reports.law("identity_sections", (ident, s), "identity moves a section"))
    for (g, f), h in sorted(cat.composition.items()):
        for s in F.sections_of(cat.target(g)):
            if F.restrict(h, s) != F.restrict(f, F.restrict(g, s)):
                rows.append(
                    reports.law(
                        "contravariance",
                        (g, f, s),
                        f"F({h}) sends {s} to {F.restrict(h, s)}, the factors send it to "
                        f"{F.restrict(f, F.restrict(g, s))}",
                    )
                )
    return Report.collect(F.name, rows)


def representable(cat: FinCat, obj: str) -> Presheaf:
    """Sections over U are the morphisms U -> obj; restriction precomposes."""
    if obj not in cat.objects:
        raise InputError(f"unknown object {obj}")
    sections = {u: cat.hom(u, obj) for u in cat.objects}
    restriction = {
        f: {h: cat.compose(h, f) for h in sections[cat.target(f)]}
        for f in cat.morphisms
    }
    return Presheaf(name=f"h_{obj}", cat=cat, sections=sections, restriction=restriction)


# =====================================================================
# sheaf condition
# =====================================================================


def matching_families(F: Presheaf, family, budget: int = DEFAULT_BUDGET) -> tuple[tuple[tuple[str, ...], ...], list]:
    """All compatible section tuples for the family, in enumeration order.

    The family is ordered canonically (sorted ids); a tuple assigns one
    section over each member's source, agreeing on every declared pairwise
    pullback.  ``search.backtrack`` assigns the members in order and tests
    each pair, both ways round, once both of its sections are assigned.
    Missing pullbacks are returned, not raised.  ``budget`` caps the
    candidate sections tested in the search; past it ResourceBudgetError is
    raised.
    """
    cat = F.cat
    order = sorted(family)
    missing = [(f, g) for f in order for g in order if (f, g) not in cat.pullbacks]
    if missing:
        return (), missing
    restrict = F.restrict
    # per position: the legs of the declared pullbacks with each earlier
    # member both ways round, the second dropped when it mirrors the first
    # and so repeats its test, then the self-pullback, whose two ways round
    # are one test
    legs = []
    for pos, g in enumerate(order):
        rows = []
        for other, f in enumerate(order[:pos]):
            _apex, p_other, p_pos = cat.pullbacks[f, g]
            _apex, q_pos, q_other = cat.pullbacks[g, f]
            mirrored = (q_pos, q_other) == (p_pos, p_other)
            rows.append((other, p_other, p_pos, None if mirrored else q_pos, q_other))
        legs.append((rows, cat.pullbacks[g, g][1:]))

    tested = 0

    def compatible(prefix, s):
        nonlocal tested
        tested += 1
        if tested > budget:
            raise ResourceBudgetError(
                f"matching families over {_family_label(family)} need more than {budget} candidate sections; "
                "refusing to truncate"
            )
        rows, (a, b) = legs[len(prefix)]
        for other, p_other, p_pos, q_pos, q_other in rows:
            t = prefix[other]
            if restrict(p_other, t) != restrict(p_pos, s):
                return False
            if q_pos is not None and restrict(q_pos, s) != restrict(q_other, t):
                return False
        return restrict(a, s) == restrict(b, s)

    domains = [F.sections_of(cat.source(f)) for f in order]
    return tuple(backtrack(domains, compatible)), missing


def bijection_findings(mapped, targets, injective, surjective, context=()) -> list:
    """Law findings for a map that fails to be a bijection onto ``targets``.

    ``mapped`` yields (source, image) pairs; ``injective`` and ``surjective``
    are (rule, detail) pairs.  Two sources with one image are witnessed by
    ``context``, the first source and the later one; a target that is no
    image by ``context`` and the target's entries.
    """
    rows = []
    first: dict = {}
    for source, image in mapped:
        if image in first:
            rows.append(reports.law(injective[0], context + (first[image], source), injective[1]))
        first.setdefault(image, source)
    for target in targets:
        if target not in first:
            rows.append(reports.law(surjective[0], context + tuple(target), surjective[1]))
    return rows


def sheaf_check(F: Presheaf, assignment: CoveringAssignment, budget: int = DEFAULT_BUDGET) -> Report:
    """Equalizer condition for every assigned family.

    For each family the canonical map from sections over the object to
    matching families must be injective (separation) and surjective
    (gluing).  Families with an undeclared pairwise pullback are
    Unverifiable, naming the pair.  ``budget`` caps each family's
    matching-family search.  Valid input: ``F`` passes ``validate_presheaf``
    and the assignment ``validate_covering``.
    """
    rows = []
    for obj in sorted(assignment.families):
        for fam in assignment.families_of(obj):
            order = sorted(fam)
            label = _family_label(fam)
            matching, missing = matching_families(F, fam, budget)
            if missing:
                for f, g in sorted(set(missing)):
                    rows.append(
                        reports.unverifiable(
                            "sheaf_pullback", (f, g), "no declared pullback for this member pair"
                        )
                    )
                continue
            rows += bijection_findings(
                ((t, tuple(F.restrict(m, t) for m in order)) for t in F.sections_of(obj)),
                matching,
                ("separated", "two sections restrict identically over the family"),
                ("gluing", "matching family glues to no section"),
                context=(obj, label),
            )
    return Report.collect(F.name, rows)


# =====================================================================
# set-valued data on formal sums
# =====================================================================


class ZPresheaf(Record):
    """Set-valued data on formal sums with componentwise slicing.

    sections_fn enumerates the sections over a ZObject; slice_fn(idx, section)
    restricts a section of a sum to its piece at component idx.  Both are
    total on the objects any check visits.
    """

    def __init__(self, name: str, base: FinCat, sections_fn, slice_fn):
        vars(self).update(name=name, base=base, sections_fn=sections_fn, slice_fn=slice_fn)

    def sections_of(self, obj: ZObject) -> tuple:
        return self.sections_fn(obj)


def representable_z(base: FinCat, target: ZObject) -> ZPresheaf:
    """Row-strict coefficient tables into a fixed formal sum.

    Slicing keeps one source component's rows; sections over a sum are
    exactly the independent products of the slices.
    """

    def sections_fn(obj: ZObject):
        return enumerate_correspondences(base, obj, target)

    def slice_fn(idx: int, section):
        return slice_correspondence(section, idx)

    return ZPresheaf(
        name=f"tables_into_{target.render()}",
        base=base,
        sections_fn=sections_fn,
        slice_fn=slice_fn,
    )


def constant_z(base: FinCat, labels) -> ZPresheaf:
    """The same finite label set over every formal sum; slices are identity."""
    fixed = tuple(labels)

    def sections_fn(_obj: ZObject):
        return fixed

    def slice_fn(_idx: int, section):
        return section

    return ZPresheaf(name="constant", base=base, sections_fn=sections_fn, slice_fn=slice_fn)


def additivity_check(zp: ZPresheaf, obj: ZObject) -> Report:
    """Componentwise decomposition of sections over a formal sum.

    The canonical map sends a section over the sum to the tuple of its
    slices; it must be a bijection onto the product of the per-component
    section sets.
    """
    rows = []
    indices = obj.indices()
    pieces = [obj.piece(idx) for idx in indices]
    piece_sections = [zp.sections_of(p) for p in pieces]

    whole = zp.sections_of(obj)
    slicings = (tuple(zp.slice_fn(idx, section) for idx in indices) for section in whole)
    rows += bijection_findings(
        enumerate(slicings),
        itertools.product(*piece_sections),
        ("additivity_injective", "two sections slice identically across components"),
        ("additivity_surjective", "componentwise tuple is not the slicing of any section"),
    )
    rows.append(
        reports.info(
            "section_counts",
            (str(len(whole)),) + tuple(str(len(ps)) for ps in piece_sections),
            "sections over the sum, then per component",
        )
    )
    return Report.collect(zp.name, rows)


# =====================================================================
# distinguished squares, presheaf side
# =====================================================================


def cartesian_square_check(F: Presheaf, square: Square) -> Report:
    """Sections over the base against the fiber product over the apex.

    Sends a section over X to its restrictions over U and V; the pair must
    agree over W, and the map must be a bijection onto all agreeing pairs.
    Valid input: ``F`` passes ``validate_presheaf`` and the square passes
    ``validate_square``.
    """
    cat = F.cat
    x_obj = cat.target(square.u_to_x)
    u_obj, v_obj = cat.source(square.u_to_x), cat.source(square.v_to_x)

    fiber = [
        (a, b)
        for a in F.sections_of(u_obj)
        for b in F.sections_of(v_obj)
        if F.restrict(square.w_to_u, a) == F.restrict(square.w_to_v, b)
    ]
    rows = bijection_findings(
        ((t, (F.restrict(square.u_to_x, t), F.restrict(square.v_to_x, t))) for t in F.sections_of(x_obj)),
        fiber,
        ("square_injective", "two sections restrict to the same (U, V) pair"),
        ("square_surjective", "agreeing (U, V) pair comes from no section over X"),
    )
    return Report.collect(F.name, rows)


def squares_vs_sheaf_probe(
    F: Presheaf,
    assignment: CoveringAssignment,
    squares,
    generation_asserted: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> Report:
    """Sheaf condition against cartesianness on the declared squares.

    The comparison is meaningful only when the assignment's families are
    generated by the declared squares; that is the caller's assertion and it
    is recorded, not checked.  Disagreement is a law finding either way.
    With no square there is nothing to compare, and the report holds only
    the structural ``squares_declared`` finding.  ``budget`` caps each
    matching-family search of the sheaf check.  Valid input as for both checks.
    """
    squares = tuple(squares)
    if not squares:
        detail = "no declared square to compare the sheaf condition with"
        return Report.collect(F.name, [reports.structural("squares_declared", (), detail)])
    rows = [
        reports.info(
            "generation_assertion",
            (),
            "caller asserts the covering families are generated by the declared squares"
            if generation_asserted
            else "no generation assertion made; disagreement below is uninterpretable",
        )
    ]
    sheaf_report = sheaf_check(F, assignment, budget)
    sheaf_ok = sheaf_report.ok
    square_ok = True
    for pos, sq in enumerate(squares):
        sub = cartesian_square_check(F, sq)
        if not sub.ok:
            square_ok = False
            rows.append(
                reports.info("square_verdict", (str(pos),), "not cartesian under F")
            )
        else:
            rows.append(reports.info("square_verdict", (str(pos),), "cartesian under F"))
    rows.append(reports.info("sheaf_verdict", (), f"sheaf: {sheaf_ok}"))
    if sheaf_ok != square_ok:
        rows.append(
            reports.law(
                "squares_sheaf_agreement",
                (),
                f"sheaf condition {sheaf_ok} but squares-cartesian {square_ok}"
                + ("" if generation_asserted else " (no generation assertion)"),
            )
        )
    return Report.collect(F.name, rows)
