"""Finite categories labeled with weak equivalences, cofibrations, fibrations.

The labels are declared data checked against the axioms that make sense at
this scale: identity containment, two-out-of-three for the weak
equivalences, composition closure for the other two classes, and (optional,
for tiny categories) the lifting property by exhaustive square enumeration.
Factorization is deliberately not modeled.

On top of that sits the functor-of-points machinery: the set of full,
essentially surjective functors from a finite category into a labeled one,
enumerated exhaustively under a budget, with contravariant precomposition.
Quotients by object partitions keep a label on a class morphism whenever
some representative carries it, which means one class morphism can carry
several labels at once; the axioms are then re-checked on the quotient
rather than assumed to survive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import reports
from .fincat import (
    FinCat,
    Functor,
    InputError,
    ObjEquiv,
    ResourceBudgetError,
    check_functor,
    class_representatives,
    quotient_category,
    validate_partition,
)
from .reports import Report

CLASS_NAMES = ("cof", "fib", "weq")


class QuotientRejected(InputError):
    """Quotient has composability gaps; carries the saturation report."""

    def __init__(self, report: Report):
        super().__init__(f"quotient rejected: {report.render()}")
        self.report = report


@dataclass(frozen=True, eq=False)
class ModelLabeledCat:
    base: FinCat
    weq: frozenset[str] = frozenset()
    cof: frozenset[str] = frozenset()
    fib: frozenset[str] = frozenset()

    def classes(self) -> dict[str, frozenset[str]]:
        return {"cof": self.cof, "fib": self.fib, "weq": self.weq}


# =====================================================================
# axioms
# =====================================================================


def model_axiom_check(M: ModelLabeledCat, lifting: bool = False) -> Report:
    """Label axioms, exhaustively.

    Identity containment in all three classes; two-out-of-three for weq on
    every composable pair; composition closure for cof and fib.  With
    ``lifting``, every commutative square with an acyclic-cofibration left
    side and fibration right side must admit a diagonal, and dually; this is
    quadratic in morphism count twice over, so it is opt-in.
    """
    cat = M.base
    rows = []
    for label, cls in sorted(M.classes().items()):
        for m in sorted(cls):
            if m not in cat.morphisms:
                rows.append(reports.structural("class_member_known", (label, m), "unknown morphism"))
    if rows:
        return Report.collect("model_axioms", rows)

    for label, cls in sorted(M.classes().items()):
        for obj in cat.objects:
            if cat.identity(obj) not in cls:
                rows.append(
                    reports.law("identities_in_class", (label, cat.identity(obj)), "identity unlabeled")
                )

    for (g, f), h in sorted(cat.composition.items()):
        inside = [m for m in (f, g, h) if m in M.weq]
        if len(inside) == 2:
            outside = next(m for m in (f, g, h) if m not in M.weq)
            rows.append(
                reports.law(
                    "two_of_three",
                    (f, g, h),
                    f"{outside} is the only one of the triple outside weq",
                )
            )
        for label in ("cof", "fib"):
            cls = M.classes()[label]
            if f in cls and g in cls and h not in cls:
                rows.append(
                    reports.law(f"{label}_composition", (f, g), f"composite {h} left the class")
                )

    if lifting:
        rows.extend(_lifting_findings(M, left=M.cof & M.weq, right=M.fib, rule="lifting_left"))
        rows.extend(_lifting_findings(M, left=M.cof, right=M.fib & M.weq, rule="lifting_right"))
    return Report.collect("model_axioms", rows)


def _lifting_findings(M: ModelLabeledCat, left, right, rule: str):
    cat = M.base
    rows = []
    for l in sorted(left):
        for r in sorted(right):
            tops = cat.hom(cat.source(l), cat.source(r))
            bottoms = cat.hom(cat.target(l), cat.target(r))
            for t in tops:
                for b in bottoms:
                    if cat.compose(r, t) != cat.compose(b, l):
                        continue
                    diagonals = cat.hom(cat.target(l), cat.source(r))
                    if not any(
                        cat.compose(d, l) == t and cat.compose(r, d) == b for d in diagonals
                    ):
                        rows.append(
                            reports.law(rule, (l, r, t, b), "commutative square has no diagonal")
                        )
    return rows


# =====================================================================
# full essentially-surjective functor enumeration
# =====================================================================


@dataclass(frozen=True, eq=False)
class ParamFamily:
    """All parametrizations of a labeled category by a fixed source."""

    source: FinCat
    model: ModelLabeledCat
    members: tuple[Functor, ...]

    def keys(self) -> tuple:
        return tuple(_functor_key(f) for f in self.members)


def _functor_key(fun: Functor) -> tuple:
    return (
        tuple(sorted(fun.object_map.items())),
        tuple(sorted(fun.morphism_map.items())),
    )


def _named_family(source: FinCat, model: ModelLabeledCat, members) -> ParamFamily:
    """Members in canonical order, renamed fes0, fes1, ..."""
    named = tuple(
        Functor(
            name=f"fes{pos}",
            source=source,
            target=model.base,
            object_map=f.object_map,
            morphism_map=f.morphism_map,
        )
        for pos, f in enumerate(sorted(members, key=_functor_key))
    )
    return ParamFamily(source=source, model=model, members=named)


def enumerate_fes(source: FinCat, M: ModelLabeledCat, budget: int = 50_000) -> ParamFamily:
    """Every full, essentially surjective functor from source into M's base.

    Exhaustive over object maps, then over endpoint-compatible morphism
    maps, with identities forced.  The running candidate count is checked
    against the budget and overruns raise, never truncate.  Members come out
    in a canonical order independent of enumeration order.
    """
    tgt = M.base
    object_maps = itertools.product(tgt.objects, repeat=len(source.objects))
    non_identities = sorted(m for m in source.morphisms if m not in source.identities.values())

    members = []
    work = 0
    for images in object_maps:
        omap = dict(zip(source.objects, images))
        candidates = []
        feasible = True
        combos = 1
        for m in non_identities:
            options = tgt.hom(omap[source.source(m)], omap[source.target(m)])
            if not options:
                feasible = False
                break
            candidates.append(options)
            combos *= len(options)
        if not feasible:
            continue
        work += combos
        if work > budget:
            raise ResourceBudgetError(
                f"functor enumeration needs more than {budget} candidates; refusing to truncate"
            )
        for choice in itertools.product(*candidates):
            mmap = dict(zip(non_identities, choice))
            for obj in source.objects:
                mmap[source.identity(obj)] = tgt.identity(omap[obj])
            fun = Functor(name="candidate", source=source, target=tgt, object_map=omap, morphism_map=mmap)
            if check_functor(fun).ok:
                members.append(fun)
    return _named_family(source, M, members)


def validate_param_family(family: ParamFamily) -> Report:
    rows = []
    for fun in family.members:
        verdict = check_functor(fun)
        if not verdict.ok:
            rows.append(
                reports.law(
                    "member_fes",
                    (fun.name,),
                    f"functorial={verdict.functorial} full={verdict.full} "
                    f"es={verdict.essentially_surjective}",
                )
            )
    return Report.collect("param_family", rows)


def compose_functors(outer: Functor, inner: Functor) -> Functor:
    if inner.target is not outer.source and inner.target.name != outer.source.name:
        raise InputError("functors do not chain")
    return Functor(
        name=f"{outer.name}.{inner.name}",
        source=inner.source,
        target=outer.target,
        object_map={x: outer.object_map[inner.object_map[x]] for x in inner.source.objects},
        morphism_map={
            m: outer.morphism_map[inner.morphism_map[m]] for m in inner.source.morphisms
        },
    )


def precompose(G: Functor, family: ParamFamily) -> ParamFamily:
    """Contravariant action: each parametrization F becomes F after G.

    G must itself be full and essentially surjective (the action is defined
    on nothing larger), and every output member is re-verified rather than
    assumed to inherit both properties from its factors.
    """
    verdict = check_functor(G)
    if not verdict.ok:
        raise InputError(
            "precomposition needs a full, essentially surjective functor; "
            f"got functorial={verdict.functorial} full={verdict.full} "
            f"es={verdict.essentially_surjective}"
        )
    if G.target.name != family.source.name:
        raise InputError(
            f"functor lands in {G.target.name}, the family is parametrized by {family.source.name}"
        )
    composed = [compose_functors(F, G) for F in family.members]
    for fun in composed:
        if not check_functor(fun).ok:
            raise InputError(f"precomposed member {fun.name} lost fullness or surjectivity")
    return _named_family(G.source, family.model, composed)


# =====================================================================
# quotient labels
# =====================================================================


def class_types(M: ModelLabeledCat, rel: ObjEquiv, block_a: str, block_b: str) -> frozenset[str]:
    """Labels carried by representatives between two blocks.

    A label belongs to the result iff some representative morphism from a
    member of the first block to a member of the second carries it; several
    labels at once are possible, and no connecting morphism means the empty
    set.
    """
    bad = validate_partition(M.base, rel)
    if not bad.ok:
        raise InputError(f"invalid partition: {bad.render()}")
    for block in (block_a, block_b):
        if block not in rel.labels.values():
            raise InputError(f"unknown block: {block}")
    return _labels_of(M, class_representatives(M.base, rel).get((block_a, block_b), ()))


def _labels_of(M: ModelLabeledCat, morphisms) -> frozenset[str]:
    return frozenset(label for label, cls in M.classes().items() if any(m in cls for m in morphisms))


def quotient_model(M: ModelLabeledCat, rel: ObjEquiv) -> tuple[ModelLabeledCat, Report]:
    """Labeled thin quotient, axioms re-checked rather than assumed.

    A class morphism carries a label iff some representative does.  A
    quotient with composability gaps is rejected outright (QuotientRejected
    carries the saturation report); otherwise the returned report is the
    axiom check of the labeled quotient, whatever it says.
    """
    quotient, saturation = quotient_category(M.base, rel)
    if not saturation.ok:
        raise QuotientRejected(saturation)

    reps = class_representatives(M.base, rel)
    labels: dict[str, set[str]] = {name: set() for name in CLASS_NAMES}
    for cm, ends in quotient.morphisms.items():
        for label in _labels_of(M, reps[ends]):
            labels[label].add(cm)

    labeled = ModelLabeledCat(
        base=quotient,
        weq=frozenset(labels["weq"]),
        cof=frozenset(labels["cof"]),
        fib=frozenset(labels["fib"]),
    )
    return labeled, model_axiom_check(labeled)
