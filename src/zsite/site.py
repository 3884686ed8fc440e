"""Covering structures on finite categories.

Three layers live here.  Plain covering assignments (object id -> set of
finite families of morphisms into it) with the Grothendieck axioms checked
exhaustively against declared pullbacks.  Pointed bases: finite point sets
with covariant point maps, residue-preserving subsets, and etale marks, which
is enough data to state point-lifting covers of formal sums and distinguished
squares.  Layered categories: a finite tower of categories with membership
maps, whose ladders model covering morphisms across levels.

Anywhere a check needs a pullback that the category does not declare, the
finding is Unverifiable rather than a failure: absence of chosen data is not
evidence against an axiom.
"""

from __future__ import annotations

import functools

from . import reports
from .fincat import FinCat, InputError, ResourceBudgetError
from .records import Record, Value
from .reports import Report
from .zlin import ZMorphism, ZObject, z_validate


def _family_label(family: frozenset[str]) -> str:
    return "{" + ",".join(sorted(family)) + "}"


def _ordered_families(families) -> tuple[frozenset[str], ...]:
    return tuple(sorted(families, key=lambda fam: (len(fam), sorted(fam))))


# =====================================================================
# covering assignments
# =====================================================================


class CoveringAssignment(Record):
    """K: object id -> set of covering families (sets of morphism ids)."""

    def __init__(self, families: dict[str, frozenset[frozenset[str]]] | None = None):
        vars(self).update(families={} if families is None else families)

    def families_of(self, obj: str) -> tuple[frozenset[str], ...]:
        return _ordered_families(self.families.get(obj, frozenset()))

    def has(self, obj: str, family: frozenset[str]) -> bool:
        return family in self.families.get(obj, frozenset())

    def covers(self, morphism: str, obj: str) -> bool:
        """True when the morphism belongs to some family assigned to obj."""
        return any(morphism in fam for fam in self.families.get(obj, frozenset()))

    def with_family(self, obj: str, family: frozenset[str]) -> "CoveringAssignment":
        updated = dict(self.families)
        updated[obj] = updated.get(obj, frozenset()) | {family}
        return CoveringAssignment(families=updated)

    def without_family(self, obj: str, family: frozenset[str]) -> "CoveringAssignment":
        updated = dict(self.families)
        updated[obj] = updated.get(obj, frozenset()) - {family}
        return CoveringAssignment(families=updated)

    def total_families(self) -> int:
        return sum(len(v) for v in self.families.values())


def validate_covering(cat: FinCat, assignment: CoveringAssignment) -> Report:
    rows = []
    for obj in sorted(assignment.families):
        if obj not in cat.objects:
            rows.append(reports.structural("covering_object_known", (obj,), "unknown object"))
            continue
        for fam in assignment.families_of(obj):
            for m in sorted(fam):
                if m not in cat.morphisms:
                    rows.append(
                        reports.structural("covering_member_known", (obj, m), "unknown morphism")
                    )
                elif cat.target(m) != obj:
                    rows.append(
                        reports.structural(
                            "covering_member_target",
                            (obj, m),
                            f"targets {cat.target(m)}, not the assigned object",
                        )
                    )
    return Report.collect("covering", rows)


def _pulled_family(cat: FinCat, family: frozenset[str], g: str):
    """Base change of a family along g, using declared pullbacks.

    Returns (family, rows): family is None, and rows name each cospan
    without a declared pullback, when some member has none.
    """
    legs = set()
    rows = []
    for f in sorted(family):
        chosen = cat.pullbacks.get((f, g))
        if chosen is None:
            rows.append(
                reports.unverifiable("pullbackStability", (f, g), "no declared pullback for this cospan")
            )
        else:
            legs.add(chosen[2])
    return (None if rows else frozenset(legs)), rows


def refined_families(
    cat: FinCat,
    assignment: CoveringAssignment,
    family: frozenset[str],
    budget: int | None = None,
) -> frozenset[frozenset[str]]:
    """Every refinement of ``family`` by families assigned to its members' sources.

    A refinement picks one assigned family of source(f) for each member f
    and composes f with each of its arrows.  Folding member by member over
    the distinct partial unions gives the same set as walking the product of
    the choices, without visiting each composite once per choice tuple that
    yields it.  ``budget`` caps the partial unions.  An undefined composite
    raises the InputError that the product walk meets first.
    """
    members = sorted(family)
    choices = [assignment.families_of(cat.source(f)) for f in members]
    if not all(choices):
        return frozenset()
    rows = []
    for f, subs in zip(members, choices):
        row = []
        for sub in subs:
            try:
                row.append(frozenset(cat.compose(f, g) for g in sorted(sub)))
            except InputError as exc:
                row.append(exc)
        rows.append(row)
    _raise_first_undefined(rows)

    partial = {frozenset()}
    for row in rows:
        partial = {p | r for p in partial for r in row}
        if budget is not None and len(partial) > budget:
            raise ResourceBudgetError(
                f"refining {_family_label(family)} gave more than {budget} partial unions; "
                "refusing to truncate"
            )
    return frozenset(partial)


def _raise_first_undefined(rows) -> None:
    """Raise the error at the first choice tuple, in product order, that fails.

    The all-first tuple fails at its first failing member; when it passes,
    the first failing tuple varies only the last member that can fail, at
    that member's first failing choice.
    """
    for row in rows:
        if isinstance(row[0], InputError):
            raise row[0]
    for row in reversed(rows):
        for entry in row:
            if isinstance(entry, InputError):
                raise entry


def covering_axiom_findings(
    cat: FinCat,
    assignment: CoveringAssignment,
    pull,
    noun: str = "",
    budget: int | None = None,
) -> list:
    """Findings of the three covering axioms, in the order iso, stability, transitivity.

    isoAxiom: every isomorphism's singleton family is assigned to its
    target.  pullbackStability: each assigned family pulls back, along every
    morphism into its object, to an assigned family; ``pull(family, g)``
    returns the pulled family (None when it cannot be found) and the rows
    that record how it was found.  transitivity: refining every member of an
    assigned family by assigned families of its source lands in the
    assignment; ``budget`` caps the refinements of one family.  ``noun``
    ("" on a base site, "class " on a quotient) names the families in the
    law details.
    """
    rows = []
    for m in sorted(cat.morphisms):
        if cat.is_iso(m) and not assignment.has(cat.target(m), frozenset({m})):
            rows.append(
                reports.law("isoAxiom", (m,), f"{noun}isomorphism's singleton family not assigned")
            )

    for obj in sorted(cat.objects):
        for fam in assignment.families_of(obj):
            for g in cat.morphisms_into(obj):
                pulled, found = pull(fam, g)
                rows.extend(found)
                if pulled is not None and not assignment.has(cat.source(g), pulled):
                    rows.append(
                        reports.law(
                            "pullbackStability",
                            (obj, _family_label(fam), g),
                            f"pulled-back {noun}family {_family_label(pulled)} not assigned to {cat.source(g)}",
                        )
                    )

    for obj in sorted(cat.objects):
        for fam in assignment.families_of(obj):
            for composite in refined_families(cat, assignment, fam, budget):
                if not assignment.has(obj, composite):
                    rows.append(
                        reports.law(
                            "transitivity",
                            (obj, _family_label(fam)),
                            f"refined {noun}family {_family_label(composite)} not assigned",
                        )
                    )
    return rows


def grothendieck_axiom_check(
    cat: FinCat, assignment: CoveringAssignment, budget: int | None = None
) -> Report:
    """Exhaustive check of the three covering axioms (covering_axiom_findings).

    Base change goes through declared pullbacks; a cospan without one is
    Unverifiable.  A covering that names unknown ids gets only its
    structural findings.
    """
    covering = validate_covering(cat, assignment)
    if not covering.ok:
        return Report.collect("grothendieck", covering.findings)
    pull = functools.partial(_pulled_family, cat)
    return Report.collect("grothendieck", covering_axiom_findings(cat, assignment, pull, "", budget))


def generate_covering_assignment(
    cat: FinCat,
    seeds: dict[str, frozenset[frozenset[str]]],
    budget: int = 10_000,
) -> CoveringAssignment:
    """Close seed families under iso singletons, base change, and refinement.

    Base change is applied only where the pullback is declared, matching what
    grothendieck_axiom_check can verify.  The closure is a finite fixpoint;
    the budget caps the total family count and the refinements of one family.
    """
    assignment = CoveringAssignment(families={})
    for obj, fams in seeds.items():
        for fam in fams:
            assignment = assignment.with_family(obj, frozenset(fam))
    report = validate_covering(cat, assignment)
    if not report.ok:
        raise InputError(f"seed families invalid: {report.render()}")

    for m in sorted(cat.morphisms):
        if cat.is_iso(m):
            assignment = assignment.with_family(cat.target(m), frozenset({m}))

    changed = True
    while changed:
        changed = False
        for obj in sorted(list(assignment.families)):
            for fam in assignment.families_of(obj):
                for g in cat.morphisms_into(obj):
                    pulled, _rows = _pulled_family(cat, fam, g)
                    if pulled is None:
                        continue
                    if not assignment.has(cat.source(g), pulled):
                        assignment = assignment.with_family(cat.source(g), pulled)
                        changed = True
                for composite in refined_families(cat, assignment, fam, budget):
                    if not assignment.has(obj, composite):
                        assignment = assignment.with_family(obj, composite)
                        changed = True
        if assignment.total_families() > budget:
            raise ResourceBudgetError(
                f"covering closure exceeded {budget} families; refusing to truncate"
            )
    return assignment


# =====================================================================
# pointed bases
# =====================================================================


class PointedBase(Record):
    """A finite category with point sets, point maps, and residue data.

    point_map is covariant: for f: U -> X it maps points(U) into points(X).
    residue_preserving[f] is the subset of points(U) where f preserves the
    residue structure; etale_marked flags the morphisms usable in covers.
    """

    def __init__(
        self,
        cat: FinCat,
        points: dict[str, tuple[str, ...]],
        point_map: dict[str, dict[str, str]],
        residue_preserving: dict[str, frozenset[str]] | None = None,
        etale_marked: frozenset[str] = frozenset(),
    ):
        vars(self).update(
            cat=cat, points=points, point_map=point_map, etale_marked=etale_marked,
            residue_preserving={} if residue_preserving is None else residue_preserving,
        )

    def points_of(self, obj: str) -> tuple[str, ...]:
        return self.points.get(obj, ())

    def rp(self, m: str) -> frozenset[str]:
        return self.residue_preserving.get(m, frozenset())


def validate_pointed_base(base: PointedBase) -> Report:
    """Totality and functoriality of point data.

    Law checks: identities act as identities on points; point maps compose;
    residue-preserving sets compose by transport, rp(g after f) being the
    points of rp(f) that f sends into rp(g).
    """
    cat = base.cat
    rows = []
    for obj in cat.objects:
        if obj not in base.points:
            rows.append(reports.structural("points_declared", (obj,), "no point set declared"))
    for m in sorted(cat.morphisms):
        src, tgt = cat.morphisms[m]
        pm = base.point_map.get(m)
        if pm is None:
            rows.append(reports.structural("point_map_declared", (m,), "no point map"))
            continue
        for u in base.points_of(src):
            if u not in pm:
                rows.append(reports.structural("point_map_total", (m, u), "unmapped point"))
            elif pm[u] not in base.points_of(tgt):
                rows.append(
                    reports.structural("point_map_range", (m, u), f"maps to unknown point {pm[u]}")
                )
        for u in pm:
            if u not in base.points_of(src):
                rows.append(reports.structural("point_map_domain", (m, u), "not a source point"))
        for u in base.rp(m):
            if u not in base.points_of(src):
                rows.append(
                    reports.structural("residue_subset", (m, u), "residue point outside the domain")
                )
    if any(f.kind == reports.STRUCTURAL for f in rows):
        return Report.collect("pointed_base", rows)

    for obj in cat.objects:
        ident = cat.identity(obj)
        pm = base.point_map[ident]
        for u in base.points_of(obj):
            if pm[u] != u:
                rows.append(reports.law("identity_points", (ident, u), f"identity moves {u} to {pm[u]}"))

    for (g, f), h in sorted(cat.composition.items()):
        pm_f, pm_g, pm_h = base.point_map[f], base.point_map[g], base.point_map[h]
        for u in base.points_of(cat.source(f)):
            if pm_h[u] != pm_g[pm_f[u]]:
                rows.append(
                    reports.law(
                        "point_functoriality",
                        (g, f, u),
                        f"composite sends {u} to {pm_h[u]}, factors send it to {pm_g[pm_f[u]]}",
                    )
                )
        transported = frozenset(u for u in base.rp(f) if pm_f[u] in base.rp(g))
        if base.rp(h) != transported:
            rows.append(
                reports.law(
                    "residue_composition",
                    (g, f),
                    f"rp of the composite is {sorted(base.rp(h))}, transport gives {sorted(transported)}",
                )
            )
    return Report.collect("pointed_base", rows)


# =====================================================================
# point-lifting covers of formal sums
# =====================================================================


def _family_preconditions(base: PointedBase, target: ZObject, family) -> list:
    rows = []
    for pos, member in enumerate(family):
        if member.target != target:
            rows.append(
                reports.structural(
                    "member_target",
                    (str(pos),),
                    f"member targets {member.target.render()}, not {target.render()}",
                )
            )
            continue
        sub = z_validate(base.cat, member)
        if not sub.ok:
            first = sub.failures()[0]
            rows.append(
                reports.structural(
                    "member_valid", (str(pos), first.rule), "member fails validation"
                )
            )
        for t in member.terms:
            if t.arrow not in base.etale_marked:
                rows.append(
                    reports.structural(
                        "etale_marked",
                        (str(pos), str(t.row), str(t.col), t.arrow),
                        "term arrow is not etale-marked",
                    )
                )
    return rows


def _component_coverage(base: PointedBase, target: ZObject, family, component: int):
    """Uncovered points of one component, looking only at terms into it."""
    into = [t for member in family for t in member.terms_into(component)]
    return [
        x
        for x in base.points_of(target.base_object(component))
        if not any(base.point_map.get(t.arrow, {}).get(u) == x for t in into for u in base.rp(t.arrow))
    ]


def nisnevich_cover_check(base: PointedBase, target: ZObject, family) -> Report:
    """Point-lifting cover test for a family of morphisms into a formal sum.

    Passes iff for every component and every point of its base object, some
    member has a term into that component whose arrow carries a
    residue-preserving point mapping onto it.  Every term arrow must be
    etale-marked (precondition; violations are structural findings naming
    the term).
    """
    family = tuple(family)
    rows = _family_preconditions(base, target, family)
    usable = [m for m in family if m.target == target]
    for idx, _obj, _coeff in target.components:
        for x in _component_coverage(base, target, usable, idx):
            rows.append(
                reports.law(
                    "point_covered",
                    (str(idx), x),
                    "no residue-preserving lift in any family member",
                )
            )
    return Report.collect("nisnevich", rows)


def nisnevich_component_lemma_check(base: PointedBase, target: ZObject, family) -> Report:
    """Whole-object coverage against componentwise coverage, both computed.

    The whole-object side runs the cover check on the formal sum; the
    componentwise side restricts each member to its terms into one component
    and checks that component alone.  The report records which members carry
    terms into each component and their intersection, and fails only if the
    two sides disagree.
    """
    family = tuple(family)
    usable = [m for m in family if m.target == target]

    whole = nisnevich_cover_check(base, target, family)
    rows = [f for f in whole.findings if f.kind == reports.STRUCTURAL]
    lhs = not any(f.rule == "point_covered" for f in whole.findings)

    rhs = True
    carrier_sets = []
    for idx, _obj, _coeff in target.components:
        uncovered = _component_coverage(base, target, usable, idx)
        covered = not uncovered
        rhs = rhs and covered
        carriers = sorted(
            pos for pos, m in enumerate(usable) if m.terms_into(idx)
        )
        carrier_sets.append(set(carriers))
        rows.append(
            reports.info(
                "component_members",
                (str(idx),) + tuple(str(p) for p in carriers),
                f"component covered: {covered}",
            )
        )
    common = set.intersection(*carrier_sets) if carrier_sets else set()
    rows.append(
        reports.info(
            "common_members",
            tuple(str(p) for p in sorted(common)),
            "members carrying terms into every component",
        )
    )
    rows.append(reports.info("whole_object", (), f"covers: {lhs}"))
    rows.append(reports.info("componentwise", (), f"covers: {rhs}"))
    if lhs != rhs:
        rows.append(
            reports.law(
                "component_lemma_agreement",
                (),
                f"whole-object {lhs} but componentwise {rhs}",
            )
        )
    return Report.collect("nisnevich_lemma", rows)


# =====================================================================
# distinguished squares
# =====================================================================


class Square(Value):
    """Commuting square named by its four sides.

    w_to_v: W -> V, w_to_u: W -> U, u_to_x: U -> X (the open-embedding leg),
    v_to_x: V -> X (the etale leg).
    """

    def __init__(self, w_to_v: str, w_to_u: str, u_to_x: str, v_to_x: str):
        vars(self).update(w_to_v=w_to_v, w_to_u=w_to_u, u_to_x=u_to_x, v_to_x=v_to_x)

    def sides(self) -> tuple[str, str, str, str]:
        return (self.w_to_v, self.w_to_u, self.u_to_x, self.v_to_x)


def square_endpoint_findings(cat: FinCat, square: Square) -> list:
    rows = []
    for m in square.sides():
        if m not in cat.morphisms:
            rows.append(reports.structural("square_side_known", (m,), "unknown morphism"))
    if rows:
        return rows
    if cat.source(square.w_to_v) != cat.source(square.w_to_u):
        rows.append(
            reports.structural("square_apex", square.sides()[:2], "the two W-legs have different sources")
        )
    if cat.target(square.u_to_x) != cat.target(square.v_to_x):
        rows.append(
            reports.structural("square_base", (square.u_to_x, square.v_to_x), "legs target different objects")
        )
    if cat.target(square.w_to_v) != cat.source(square.v_to_x):
        rows.append(reports.structural("square_v_side", (square.w_to_v, square.v_to_x), "V mismatch"))
    if cat.target(square.w_to_u) != cat.source(square.u_to_x):
        rows.append(reports.structural("square_u_side", (square.w_to_u, square.u_to_x), "U mismatch"))
    if rows:
        return rows
    left = cat.compose_or_none(square.v_to_x, square.w_to_v)
    right = cat.compose_or_none(square.u_to_x, square.w_to_u)
    if left is None or right is None or left != right:
        rows.append(
            reports.structural(
                "square_commutes",
                square.sides(),
                f"the two composites W -> X are {left} and {right}",
            )
        )
    return rows


def distinguished_square_check(base: PointedBase, square: Square) -> Report:
    """Open-leg, etale-leg, and complement conditions on a commuting square.

    The open leg must have an injective, everywhere residue-preserving point
    map; the etale leg must carry the mark; and away from the open image the
    etale leg must restrict to a residue-preserving bijection of points.
    """
    cat = base.cat
    rows = square_endpoint_findings(cat, square)
    if rows:
        return Report.collect("square", rows)

    u_obj, x_obj = cat.morphisms[square.u_to_x]
    v_obj = cat.source(square.v_to_x)

    if square.v_to_x not in base.etale_marked:
        rows.append(reports.law("etale_leg", (square.v_to_x,), "etale leg is not etale-marked"))

    pm_u = base.point_map.get(square.u_to_x, {})
    u_points = base.points_of(u_obj)
    image = [pm_u[u] for u in u_points if u in pm_u]
    if len(set(image)) != len(image):
        rows.append(reports.law("open_leg", (square.u_to_x,), "point map is not injective"))
    if base.rp(square.u_to_x) != frozenset(u_points):
        rows.append(
            reports.law("open_leg", (square.u_to_x,), "point map is not residue-preserving everywhere")
        )

    pm_v = base.point_map.get(square.v_to_x, {})
    open_image = set(image)
    complement_x = [x for x in base.points_of(x_obj) if x not in open_image]
    outside = [v for v in base.points_of(v_obj) if pm_v.get(v) not in open_image]

    for v in outside:
        if v not in base.rp(square.v_to_x):
            rows.append(
                reports.law(
                    "complement_residue", (v,), "complement point is not residue-preserving"
                )
            )
    hit: dict[str, list[str]] = {}
    for v in outside:
        hit.setdefault(pm_v[v], []).append(v)
    for x, vs in sorted(hit.items()):
        if len(vs) > 1:
            rows.append(
                reports.law(
                    "complement_injective",
                    (x,) + tuple(sorted(vs)),
                    "complement point hit more than once",
                )
            )
    for x in complement_x:
        if x not in hit:
            rows.append(
                reports.law("complement_surjective", (x,), "complement point not hit from V")
            )
    return Report.collect("square", rows)


# =====================================================================
# layered categories and ladders
# =====================================================================


class LayeredCategory(Record):
    """A finite tower of categories with object membership between levels.

    membership[n] sends level n+1 objects to level n objects; it is the
    "lives over" map that makes cross-level families meaningful.
    """

    def __init__(self, levels: tuple[FinCat, ...], membership: tuple[dict[str, str], ...]):
        vars(self).update(levels=levels, membership=membership)

    def depth(self) -> int:
        return len(self.levels)


def validate_layered(layered: LayeredCategory) -> Report:
    rows = []
    if len(layered.membership) != max(len(layered.levels) - 1, 0):
        rows.append(
            reports.structural(
                "membership_count",
                (str(len(layered.membership)),),
                f"need {len(layered.levels) - 1} membership maps",
            )
        )
        return Report.collect("layered", rows)
    for n, mapping in enumerate(layered.membership):
        upper, lower = layered.levels[n + 1], layered.levels[n]
        for obj in upper.objects:
            if obj not in mapping:
                rows.append(
                    reports.structural("membership_total", (str(n + 1), obj), "object not mapped")
                )
            elif mapping[obj] not in lower.objects:
                rows.append(
                    reports.structural(
                        "membership_range", (str(n + 1), obj), f"maps to unknown object {mapping[obj]}"
                    )
                )
    return Report.collect("layered", rows)


class LadderMorphism(Value):
    """One morphism per level, membership-compatible endpoint chains."""

    def __init__(self, arrows: tuple[str, ...]):
        vars(self).update(arrows=arrows)


def validate_ladder(layered: LayeredCategory, ladder: LadderMorphism) -> Report:
    rows = []
    if len(ladder.arrows) != layered.depth():
        rows.append(
            reports.structural(
                "ladder_length",
                (str(len(ladder.arrows)),),
                f"need one morphism per level ({layered.depth()})",
            )
        )
        return Report.collect("ladder", rows)
    for n, arrow in enumerate(ladder.arrows):
        if arrow not in layered.levels[n].morphisms:
            rows.append(reports.structural("ladder_arrow_known", (str(n), arrow), "unknown morphism"))
    if rows:
        return Report.collect("ladder", rows)
    for n in range(layered.depth() - 1):
        lower, upper = layered.levels[n], layered.levels[n + 1]
        mapping = layered.membership[n]
        lo, hi = ladder.arrows[n], ladder.arrows[n + 1]
        if mapping[upper.source(hi)] != lower.source(lo):
            rows.append(
                reports.structural(
                    "ladder_source_chain",
                    (str(n), lo, hi),
                    f"source {upper.source(hi)} lives over {mapping[upper.source(hi)]}, not {lower.source(lo)}",
                )
            )
        if mapping[upper.target(hi)] != lower.target(lo):
            rows.append(
                reports.structural(
                    "ladder_target_chain",
                    (str(n), lo, hi),
                    f"target {upper.target(hi)} lives over {mapping[upper.target(hi)]}, not {lower.target(lo)}",
                )
            )
    return Report.collect("ladder", rows)


def compose_ladders(layered: LayeredCategory, outer: LadderMorphism, inner: LadderMorphism) -> LadderMorphism:
    """Levelwise composite; endpoints must match at every level."""
    if len(outer.arrows) != layered.depth() or len(inner.arrows) != layered.depth():
        raise InputError("ladder length does not match the layered category")
    return LadderMorphism(
        arrows=tuple(
            layered.levels[n].compose(outer.arrows[n], inner.arrows[n])
            for n in range(layered.depth())
        )
    )


def powered_cover_check(layered: LayeredCategory, ladder: LadderMorphism, assignments) -> Report:
    """A ladder covers iff each level's morphism sits in an assigned family."""
    assignments = tuple(assignments)
    rows = []
    if len(assignments) != layered.depth():
        rows.append(
            reports.structural(
                "assignment_count",
                (str(len(assignments)),),
                f"need one covering assignment per level ({layered.depth()})",
            )
        )
        return Report.collect("powered_cover", rows)
    sub = validate_ladder(layered, ladder)
    rows.extend(sub.findings)
    if not sub.ok:
        return Report.collect("powered_cover", rows)
    for n, arrow in enumerate(ladder.arrows):
        obj = layered.levels[n].target(arrow)
        if not assignments[n].covers(arrow, obj):
            rows.append(
                reports.law(
                    "level_covering",
                    (str(n), arrow),
                    f"morphism is in no assigned family of {obj} at level {n}",
                )
            )
    return Report.collect("powered_cover", rows)


def powered_stability_probe(
    layered: LayeredCategory,
    family,
    test: LadderMorphism,
    assignments,
) -> Report:
    """Levelwise base change of a ladder family along a test ladder.

    Each member is pulled back level by level through each level's declared
    pullbacks; the apex chain must itself be membership-compatible, and
    every pulled ladder must again pass powered_cover_check.  Missing
    declared pullbacks are Unverifiable.
    """
    family = tuple(family)
    assignments = tuple(assignments)
    rows = []
    sub = validate_ladder(layered, test)
    if not sub.ok:
        rows.extend(sub.findings)
        return Report.collect("powered_stability", rows)
    if len(assignments) != layered.depth():
        rows.append(
            reports.structural("assignment_count", (str(len(assignments)),), "one assignment per level")
        )
        return Report.collect("powered_stability", rows)

    for pos, member in enumerate(family):
        member_report = powered_cover_check(layered, member, assignments)
        if not member_report.ok:
            rows.append(
                reports.law(
                    "family_covering",
                    (str(pos),),
                    "family member does not itself cover; stability is probed on covers",
                )
            )
            continue
        pulled_arrows = []
        apexes = []
        blocked = False
        for n in range(layered.depth()):
            cospan = (member.arrows[n], test.arrows[n])
            chosen = layered.levels[n].pullbacks.get(cospan)
            if chosen is None:
                rows.append(
                    reports.unverifiable(
                        "stability_pullback",
                        (str(n),) + cospan,
                        "no declared pullback for this cospan",
                    )
                )
                blocked = True
                break
            apex, _to_a, to_b = chosen
            pulled_arrows.append(to_b)
            apexes.append(apex)
        if blocked:
            continue
        for n in range(layered.depth() - 1):
            if layered.membership[n].get(apexes[n + 1]) != apexes[n]:
                rows.append(
                    reports.structural(
                        "apex_chain",
                        (str(pos), apexes[n], apexes[n + 1]),
                        "pulled-back apexes are not membership-compatible",
                    )
                )
        pulled = LadderMorphism(arrows=tuple(pulled_arrows))
        pulled_report = powered_cover_check(layered, pulled, assignments)
        for f in pulled_report.findings:
            if f.kind == reports.STRUCTURAL:
                rows.append(f)
        if pulled_report.ok:
            continue
        if any(f.rule == "level_covering" for f in pulled_report.findings):
            failing = next(f for f in pulled_report.findings if f.rule == "level_covering")
            rows.append(
                reports.law(
                    "pullback_covering",
                    (str(pos),) + failing.witnesses,
                    "base-changed ladder is not covering",
                )
            )
    return Report.collect("powered_stability", rows)
