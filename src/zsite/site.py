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
from .fincat import DEFAULT_BUDGET, FinCat, InputError, ResourceBudgetError
from .records import Record, Value
from .reports import Report
from .zlin import ZObject


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
        return self._ordered.get(obj, ())

    @functools.cached_property
    def _ordered(self) -> dict[str, tuple[frozenset[str], ...]]:
        """Object -> its families in canonical order, all sorted on first use:
        the table never changes."""
        return {obj: _ordered_families(fams) for obj, fams in self.families.items()}

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
    budget: int = DEFAULT_BUDGET,
) -> frozenset[frozenset[str]]:
    """Every refinement of ``family`` by families assigned to its members' sources.

    A refinement picks one assigned family of source(f) for each member f
    and composes f with each of its arrows.  Folding member by member over
    the distinct partial unions gives the same set as walking the product of
    the choices, without visiting each composite once per choice tuple that
    yields it.  ``budget`` caps the partial unions.  An undefined composite
    raises the InputError of the first one met by member, then by family of
    its source, then by arrow.
    """
    members = sorted(family)
    choices = [assignment.families_of(cat.source(f)) for f in members]
    if not all(choices):
        return frozenset()
    rows = [
        [frozenset(cat.compose(f, g) for g in sorted(sub)) for sub in subs]
        for f, subs in zip(members, choices)
    ]

    partial = {frozenset()}
    for row in rows:
        partial = {p | r for p in partial for r in row}
        if len(partial) > budget:
            raise ResourceBudgetError(
                f"refining {_family_label(family)} gave more than {budget} partial unions; "
                "refusing to truncate"
            )
    return frozenset(partial)


def covering_gaps(cat: FinCat, assignment: CoveringAssignment, pull, budget: int = DEFAULT_BUDGET) -> list:
    """The rows ``pull`` gave and the gaps of the three covering axioms, in walk order.

    A gap is a family that an axiom demands and the assignment lacks, as the
    tuple ``(rule, witnesses, object, family)``; the axioms are walked in the
    order iso, stability, transitivity.  isoAxiom: every isomorphism's
    singleton family is assigned to its target.  pullbackStability: each
    assigned family pulls back, along every morphism into its object, to an
    assigned family; ``pull(family, g)`` returns the pulled family (None when
    it cannot be found) and the rows that record how it was found.
    transitivity: refining every member of an assigned family by assigned
    families of its source lands in the assignment; ``budget`` caps the
    refinements of one family.
    """
    rows = []
    for m in sorted(cat.morphisms):
        if cat.is_iso(m) and not assignment.has(cat.target(m), frozenset({m})):
            rows.append(("isoAxiom", (m,), cat.target(m), frozenset({m})))

    for obj in sorted(cat.objects):
        for fam in assignment.families_of(obj):
            for g in cat.morphisms_into(obj):
                pulled, found = pull(fam, g)
                rows.extend(found)
                if pulled is not None and not assignment.has(cat.source(g), pulled):
                    rows.append(("pullbackStability", (obj, _family_label(fam), g), cat.source(g), pulled))

    for obj in sorted(cat.objects):
        for fam in assignment.families_of(obj):
            for composite in refined_families(cat, assignment, fam, budget):
                if not assignment.has(obj, composite):
                    rows.append(("transitivity", (obj, _family_label(fam)), obj, composite))
    return rows


# rule -> the law detail of its gaps, given the noun, the gap's object and family
_GAP_DETAILS = {
    "isoAxiom": "{noun}isomorphism's singleton family not assigned",
    "pullbackStability": "pulled-back {noun}family {family} not assigned to {obj}",
    "transitivity": "refined {noun}family {family} not assigned",
}


def covering_axiom_findings(
    cat: FinCat, assignment: CoveringAssignment, pull, noun: str = "", budget: int = DEFAULT_BUDGET
) -> list:
    """The rows of ``covering_gaps``, each gap as its law finding.

    ``noun`` ("" on a base site, "class " on a quotient) names the families
    in the law details.
    """
    def law(rule, witnesses, obj, family):
        detail = _GAP_DETAILS[rule].format(noun=noun, obj=obj, family=_family_label(family))
        return reports.law(rule, witnesses, detail)

    return [law(*row) if isinstance(row, tuple) else row for row in covering_gaps(cat, assignment, pull, budget)]


def grothendieck_axiom_check(cat: FinCat, assignment: CoveringAssignment, budget: int = DEFAULT_BUDGET) -> Report:
    """Exhaustive check of the three covering axioms (covering_axiom_findings)
    on valid input: a covering that passes ``validate_covering``.

    Base change goes through declared pullbacks; a cospan without one is
    Unverifiable.
    """
    pull = functools.partial(_pulled_family, cat)
    return Report.collect("grothendieck", covering_axiom_findings(cat, assignment, pull, "", budget))


def generate_covering_assignment(
    cat: FinCat,
    seeds: dict[str, frozenset[frozenset[str]]],
    budget: int = DEFAULT_BUDGET,
) -> CoveringAssignment:
    """The least assignment that holds the seed families and has no gap.

    Each round adds every gap that ``covering_gaps`` finds, with base change
    through declared pullbacks, until a round finds none; so the closure is
    closed under exactly what grothendieck_axiom_check checks.  The budget
    caps the total family count, checked after each round, and the
    refinements of one family.  A closure that would meet both an undefined
    composite (InputError) and the budget raises the one its round meets
    first.
    """
    assignment = CoveringAssignment(families={})
    for obj, fams in seeds.items():
        for fam in fams:
            assignment = assignment.with_family(obj, frozenset(fam))
    report = validate_covering(cat, assignment)
    if not report.ok:
        raise InputError(f"seed families invalid: {report.render()}")

    pull = functools.partial(_pulled_family, cat)
    while True:
        gaps = [row for row in covering_gaps(cat, assignment, pull, budget) if isinstance(row, tuple)]
        for _rule, _witnesses, obj, family in gaps:
            assignment = assignment.with_family(obj, family)
        if assignment.total_families() > budget:
            raise ResourceBudgetError(
                f"covering closure exceeded {budget} families; refusing to truncate"
            )
        if not gaps:
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
    """Totality and functoriality of point data on a valid category.

    Structural checks: every object has a point set; point maps are total
    on their domains and land in their codomains.  Law checks: identities
    act as identities on points; point maps compose; residue-preserving
    sets compose by transport, rp(g after f) being the points of rp(f)
    that f sends into rp(g).
    """
    cat, rows = base.cat, []
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
        if not any(base.point_map[t.arrow][u] == x for t in into for u in base.rp(t.arrow))
    ]


def nisnevich_cover_check(base: PointedBase, target: ZObject, family) -> Report:
    """Point-lifting cover test for a family of morphisms into a formal sum.

    Passes iff for every component and every point of its base object, some
    member has a term into that component whose arrow carries a
    residue-preserving point mapping onto it.  The terms are read once, in
    each member's source-side layout.  Valid input: a valid base and members
    that pass ``z_validate``.  Every term arrow must be etale-marked
    (precondition; violations are structural findings naming the term).
    """
    family = tuple(family)
    rows = _family_preconditions(base, target, family)
    covered = {
        (t.col, base.point_map[t.arrow][u])
        for member in family
        if member.target == target
        for t in member.terms
        for u in base.rp(t.arrow)
    }
    detail = "no residue-preserving lift in any family member"
    for idx, _obj, _coeff in target.components:
        rows += [
            reports.law("point_covered", (idx, x), detail)
            for x in base.points_of(target.base_object(idx))
            if (idx, x) not in covered
        ]
    return Report.collect("nisnevich", rows)


def nisnevich_component_lemma_check(base: PointedBase, target: ZObject, family) -> Report:
    """Whole-object coverage against componentwise coverage, both computed.

    The whole-object side runs the cover check on the formal sum, which
    reads each member's source-side layout; the componentwise side restricts
    each member to its terms into one component (its target-side layout)
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


def validate_square(cat: FinCat, square: Square) -> Report:
    """Structural findings of a square on a valid category: unknown sides,
    legs whose ends do not meet, and two composites W -> X that differ."""
    rows = []
    for m in square.sides():
        if m not in cat.morphisms:
            rows.append(reports.structural("square_side_known", (m,), "unknown morphism"))
    if rows:
        return Report.collect("square", rows)
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
        return Report.collect("square", rows)
    left = cat.compose(square.v_to_x, square.w_to_v)
    right = cat.compose(square.u_to_x, square.w_to_u)
    if left != right:
        rows.append(
            reports.structural(
                "square_commutes",
                square.sides(),
                f"the two composites W -> X are {left} and {right}",
            )
        )
    return Report.collect("square", rows)


def distinguished_square_check(base: PointedBase, square: Square) -> Report:
    """Open-leg, etale-leg, and complement conditions on valid input: a
    square that passes ``validate_square``, so it commutes.

    The open leg must have an injective, everywhere residue-preserving point
    map; the etale leg must carry the mark; and away from the open image the
    etale leg must restrict to a residue-preserving bijection of points.
    """
    cat, rows = base.cat, []
    u_obj, x_obj = cat.morphisms[square.u_to_x]
    v_obj = cat.source(square.v_to_x)

    if square.v_to_x not in base.etale_marked:
        rows.append(reports.law("etale_leg", (square.v_to_x,), "etale leg is not etale-marked"))

    pm_u = base.point_map[square.u_to_x]
    u_points = base.points_of(u_obj)
    image = [pm_u[u] for u in u_points]
    if len(set(image)) != len(image):
        rows.append(reports.law("open_leg", (square.u_to_x,), "point map is not injective"))
    if base.rp(square.u_to_x) != frozenset(u_points):
        rows.append(
            reports.law("open_leg", (square.u_to_x,), "point map is not residue-preserving everywhere")
        )

    pm_v = base.point_map[square.v_to_x]
    open_image = set(image)
    complement_x = [x for x in base.points_of(x_obj) if x not in open_image]
    outside = [v for v in base.points_of(v_obj) if pm_v[v] not in open_image]

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

    def __init__(self, name: str, levels: tuple[FinCat, ...], membership: tuple[dict[str, str], ...]):
        vars(self).update(name=name, levels=levels, membership=membership)

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
    """The ladder's findings, or the layered category's when it fails validation."""
    shape = validate_layered(layered)
    if not shape.ok:
        return shape
    if len(ladder.arrows) != layered.depth():
        detail = f"need one morphism per level ({layered.depth()})"
        return Report.collect("ladder", [reports.structural("ladder_length", (len(ladder.arrows),), detail)])
    rows = [
        reports.structural("ladder_arrow_known", (n, arrow), "unknown morphism")
        for n, arrow in enumerate(ladder.arrows)
        if arrow not in layered.levels[n].morphisms
    ]
    if rows:
        return Report.collect("ladder", rows)
    for n in range(layered.depth() - 1):
        lo, hi = ladder.arrows[n], ladder.arrows[n + 1]
        over = layered.membership[n]
        ends = zip(("source", "target"), layered.levels[n + 1].morphisms[hi], layered.levels[n].morphisms[lo])
        for end, above, below in ends:
            if over[above] != below:
                detail = f"{end} {above} lives over {over[above]}, not {below}"
                rows.append(reports.structural(f"ladder_{end}_chain", (n, lo, hi), detail))
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


def level_covering(n: int, cat: FinCat, assignment: CoveringAssignment, arrow: str, noun: str = "") -> list:
    """The level_covering finding of ``arrow`` at level ``n``, unless a family
    assigned to its target holds it.  ``noun`` ("" on a base level, "class "
    on a quotient) names the arrow and the families in the detail."""
    obj = cat.target(arrow)
    if assignment.covers(arrow, obj):
        return []
    detail = f"{noun}morphism is in no assigned {noun}family of {obj} at level {n}"
    return [reports.law("level_covering", (str(n), arrow), detail)]


def powered_cover_check(layered: LayeredCategory, ladder: LadderMorphism, assignments) -> Report:
    """A valid ladder (one that passes ``validate_ladder``) covers iff each
    level's morphism sits in an assigned family."""
    assignments = tuple(assignments)
    if len(assignments) != layered.depth():
        detail = f"need one covering assignment per level ({layered.depth()})"
        return Report.collect("powered_cover", [reports.structural("assignment_count", (len(assignments),), detail)])
    rows = []
    for n, arrow in enumerate(ladder.arrows):
        rows += level_covering(n, layered.levels[n], assignments[n], arrow)
    return Report.collect("powered_cover", rows)


def powered_stability_probe(
    layered: LayeredCategory,
    family,
    test: LadderMorphism,
    assignments,
) -> Report:
    """Levelwise base change of a ladder family along a test ladder.

    Each covering member is pulled back level by level through each level's
    declared pullbacks; the apex chain must itself be membership-compatible,
    and the ladder of the pulled legs must again pass powered_cover_check.
    A member arrow and a test arrow with different targets are no cospan, so
    the member is Skipped; a missing declared pullback is Unverifiable.  The
    pulled ladder of a broken apex chain is not checked, since its source
    chain breaks at the same place; once the apex chain holds, the pulled
    ladder is valid.  Valid input: the test ladder and every member pass
    ``validate_ladder``.
    """
    assignments = tuple(assignments)
    if len(assignments) != layered.depth():
        rows = [reports.structural("assignment_count", (len(assignments),), "one assignment per level")]
        return Report.collect("powered_stability", rows)

    rows = []
    for pos, member in enumerate(family):
        if not powered_cover_check(layered, member, assignments).ok:
            detail = "family member does not itself cover; stability is probed on covers"
            rows.append(reports.law("family_covering", (pos,), detail))
            continue
        chosen = []
        for n, (level, f, g) in enumerate(zip(layered.levels, member.arrows, test.arrows)):
            if level.target(f) != level.target(g):
                detail = "member and test arrows have different targets, so there is no cospan to pull back"
                rows.append(reports.skipped("stability_cospan", (pos, n, f, g), detail))
                break
            if (f, g) not in level.pullbacks:
                detail = "no declared pullback for this cospan"
                rows.append(reports.unverifiable("stability_pullback", (pos, n, f, g), detail))
                break
            chosen.append(level.pullbacks[f, g])
        if len(chosen) < layered.depth():
            continue
        apexes = [apex for apex, _to_a, _to_b in chosen]
        detail = "pulled-back apexes are not membership-compatible"
        broken = [
            reports.structural("apex_chain", (pos, apexes[n], apexes[n + 1]), detail)
            for n in range(layered.depth() - 1)
            if layered.membership[n].get(apexes[n + 1]) != apexes[n]
        ]
        if broken:
            rows += broken
            continue
        pulled = LadderMorphism(arrows=tuple(to_b for _apex, _to_a, to_b in chosen))
        findings = powered_cover_check(layered, pulled, assignments).findings
        failing = next((f for f in findings if f.rule == "level_covering"), None)
        if failing is not None:
            detail = "base-changed ladder is not covering"
            rows.append(reports.law("pullback_covering", (pos, *failing.witnesses), detail))
    return Report.collect("powered_stability", rows)
