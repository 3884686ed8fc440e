"""Covering structures transported to quotients by object partitions.

A partition of a site's objects induces a thin quotient category; a class
family covers a block exactly when some representative family covers a
representative object.  The derivation of the covering axioms on the
quotient needs the partition to respect declared products (the
product-compatibility check here, which judges only a valid partition).
The probe verifies the axioms instead of assuming them: it runs the same
kernel as the base site (``site.covering_axiom_findings``) on the quotient,
with class base change read off representative base cospans
(``fincat.class_representatives``).  It downgrades to Skipped when its
preconditions fail, since a probe over a broken base proves nothing either
way.  Powered composition bundles one blurry site per level; a loose level
must name one of them.
"""

from __future__ import annotations

import itertools

from . import reports
from .fincat import (
    FinCat,
    InputError,
    ObjEquiv,
    class_morphism,
    class_representatives,
    quotient_category,
    validate_partition,
)
from .records import Record
from .reports import Report
from .site import CoveringAssignment, covering_axiom_findings, grothendieck_axiom_check


# =====================================================================
# product compatibility
# =====================================================================


def gamma_check(cat: FinCat, rel: ObjEquiv) -> Report:
    """Partition compatibility with declared products.

    For A related to A2 and B related to B2, the declared products A x B and
    A2 x B2 must land in one block.  Pairs without both products declared
    are Unverifiable, naming the missing pair.
    """
    partition = validate_partition(cat, rel)
    if not partition.ok:
        return Report.collect("gamma", partition.findings)
    rows = []
    for block_a in rel.blocks:
        for a, a2 in itertools.product(sorted(block_a), repeat=2):
            for block_b in rel.blocks:
                for b, b2 in itertools.product(sorted(block_b), repeat=2):
                    if (a, b) == (a2, b2):
                        continue
                    left = cat.products.get((a, b))
                    right = cat.products.get((a2, b2))
                    if left is None or right is None:
                        missing = (a, b) if left is None else (a2, b2)
                        rows.append(
                            reports.unverifiable(
                                "product_compat",
                                missing,
                                "no declared product for this pair",
                            )
                        )
                        continue
                    if not rel.same(left[0], right[0]):
                        rows.append(
                            reports.law(
                                "product_compat",
                                (a, a2, b, b2),
                                f"products {left[0]} and {right[0]} land in different blocks",
                            )
                        )
    return Report.collect("gamma", rows)


# =====================================================================
# quotient covering assignments
# =====================================================================


class BlurrySite(Record):
    """A site, a partition, and the induced class-level covering assignment.

    quotient_assignment lives on the thin quotient category; witnesses maps
    each (block, class family) to the first base family that produced it.
    """

    def __init__(
        self,
        cat: FinCat,
        assignment: CoveringAssignment,
        relation: ObjEquiv,
        quotient: FinCat,
        quotient_report: Report,
        quotient_assignment: CoveringAssignment,
        witnesses: dict[tuple[str, frozenset[str]], tuple[str, frozenset[str]]] | None = None,
    ):
        vars(self).update(
            cat=cat, assignment=assignment, relation=relation, quotient=quotient,
            quotient_report=quotient_report, quotient_assignment=quotient_assignment,
            witnesses={} if witnesses is None else witnesses,
        )


def blurry_topology(cat: FinCat, assignment: CoveringAssignment, rel: ObjEquiv) -> BlurrySite:
    """Push a covering assignment down to the quotient category.

    A class family is assigned to a block iff some base family maps onto it;
    the first witness (in canonical order) is recorded per class family.
    """
    quotient, qreport = quotient_category(cat, rel)
    families: dict[str, frozenset[frozenset[str]]] = {}
    witnesses: dict[tuple[str, frozenset[str]], tuple[str, frozenset[str]]] = {}
    for obj in sorted(cat.objects):
        block = rel.block_id(obj)
        for fam in assignment.families_of(obj):
            class_family = frozenset(
                class_morphism(rel.block_id(cat.source(m)), rel.block_id(cat.target(m))) for m in fam
            )
            families[block] = families.get(block, frozenset()) | {class_family}
            witnesses.setdefault((block, class_family), (obj, fam))
    return BlurrySite(
        cat=cat,
        assignment=assignment,
        relation=rel,
        quotient=quotient,
        quotient_report=qreport,
        quotient_assignment=CoveringAssignment(families=families),
        witnesses=witnesses,
    )


def blurry_axiom_probe(site: BlurrySite, budget: int | None = None) -> Report:
    """Covering axioms on the quotient assignment (site.covering_axiom_findings).

    Preconditions: the partition passes gamma_check, the base assignment
    passes grothendieck_axiom_check, and the quotient has no saturation
    failures.  Violated preconditions make the probe Skipped, not failed.
    Class-level base change goes through declared base pullbacks: the class
    pulled back along a class cospan is read off any representative base
    cospan with a declared pullback (the quotient is thin, so the choice
    cannot change the answer), and the chosen one is recorded.  ``budget``
    caps the refinements of one family, on the base and the quotient alike.
    """
    rows = []
    gamma = gamma_check(site.cat, site.relation)
    if not gamma.ok:
        rows.append(
            reports.skipped("gamma_precondition", (), "partition is not product-compatible")
        )
    base_axioms = grothendieck_axiom_check(site.cat, site.assignment, budget)
    if not base_axioms.ok:
        rows.append(
            reports.skipped("base_axioms_precondition", (), "base assignment fails the axioms")
        )
    if not site.quotient_report.ok:
        rows.append(
            reports.skipped("quotient_saturation", (), "quotient composition is not total")
        )
    if rows:
        return Report.collect("blurry_probe", rows)

    cat, rel, quotient = site.cat, site.relation, site.quotient
    reps = class_representatives(cat, rel)

    def pull(class_family: frozenset[str], cg: str):
        pulled = set()
        found_rows = []
        cg_reps = reps[quotient.morphisms[cg]]
        for cf in sorted(class_family):
            found = next(
                (
                    (f, g)
                    for f in reps.get(quotient.morphisms.get(cf), ())
                    for g in cg_reps
                    if cat.target(f) == cat.target(g) and (f, g) in cat.pullbacks
                ),
                None,
            )
            if found is None:
                found_rows.append(
                    reports.unverifiable(
                        "pullbackStability",
                        (cf, cg),
                        "no representative cospan has a declared pullback",
                    )
                )
                continue
            f, g = found
            to_b = cat.pullbacks[found][2]
            pulled.add(class_morphism(rel.block_id(cat.source(to_b)), rel.block_id(cat.target(to_b))))
            found_rows.append(
                reports.info(
                    "stability_witness",
                    (cf, cg, f, g),
                    f"class pullback computed from the declared pullback of ({f}, {g})",
                )
            )
        blocked = any(r.kind == reports.UNVERIFIABLE for r in found_rows)
        return (None if blocked else frozenset(pulled)), found_rows

    rows = covering_axiom_findings(quotient, site.quotient_assignment, pull, "class ", budget)
    return Report.collect("blurry_probe", rows)


# =====================================================================
# powered composition
# =====================================================================


class PoweredBlurry(Record):
    """Levelwise class-level assignments, with loose levels exempt from probing."""

    def __init__(self, sites: tuple[BlurrySite, ...], loose_levels: frozenset[int], precondition_findings=()):
        vars(self).update(sites=sites, loose_levels=loose_levels, precondition_findings=precondition_findings)


def powered_blurry_compose(
    sites, layered=None, loose_levels=(), budget: int | None = None
) -> PoweredBlurry:
    """Bundle per-level blurry sites into one powered assignment.

    Non-loose levels must pass blurry_axiom_probe (under ``budget``);
    failures are recorded as Skipped findings on the bundle.  A layered
    category, when supplied, fixes the expected level count.
    """
    sites = tuple(sites)
    loose = frozenset(int(n) for n in loose_levels)
    if layered is not None and len(sites) != layered.depth():
        raise InputError(
            f"level mismatch: {len(sites)} blurry sites for {layered.depth()} layers"
        )
    unknown = sorted(n for n in loose if not 0 <= n < len(sites))
    if unknown:
        raise InputError(f"loose levels {unknown} name no level of {len(sites)} blurry sites")
    rows = []
    for n, site in enumerate(sites):
        if n in loose:
            rows.append(reports.info("loose_level", (str(n),), "declared loose; probe skipped"))
            continue
        probe = blurry_axiom_probe(site, budget)
        probe_skipped = any(f.kind == reports.SKIPPED for f in probe.findings)
        if not probe.ok or probe_skipped:
            rows.append(
                reports.skipped(
                    "level_probe",
                    (str(n),),
                    "level did not pass blurry_axiom_probe and is not declared loose",
                )
            )
    return PoweredBlurry(sites=sites, loose_levels=loose, precondition_findings=tuple(rows))


def powered_blurry_check(powered: PoweredBlurry, class_arrows) -> Report:
    """A ladder of class morphisms covers iff every level's class arrow does."""
    class_arrows = tuple(class_arrows)
    rows = list(powered.precondition_findings)
    if len(class_arrows) != len(powered.sites):
        rows.append(
            reports.structural(
                "ladder_length",
                (str(len(class_arrows)),),
                f"need one class morphism per level ({len(powered.sites)})",
            )
        )
        return Report.collect("powered_blurry", rows)
    for n, cm in enumerate(class_arrows):
        site = powered.sites[n]
        if cm not in site.quotient.morphisms:
            rows.append(
                reports.structural("class_arrow_known", (str(n), cm), "unknown class morphism")
            )
            continue
        block = site.quotient.target(cm)
        if not site.quotient_assignment.covers(cm, block):
            rows.append(
                reports.law(
                    "level_covering",
                    (str(n), cm),
                    f"class morphism is in no assigned class family of {block} at level {n}",
                )
            )
    return Report.collect("powered_blurry", rows)
