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

from . import reports
from .fincat import (
    DEFAULT_BUDGET,
    FinCat,
    Functor,
    InputError,
    ObjEquiv,
    ResourceBudgetError,
    check_functor,
    class_representatives,
    quotient_category,
)
from .records import Record
from .reports import Report
from .search import backtrack

CLASS_NAMES = ("cof", "fib", "weq")


class ModelLabeledCat(Record):
    def __init__(
        self, base: FinCat, weq: frozenset[str] = frozenset(), cof: frozenset[str] = frozenset(),
        fib: frozenset[str] = frozenset(),
    ):
        vars(self).update(base=base, weq=weq, cof=cof, fib=fib)

    def classes(self) -> dict[str, frozenset[str]]:
        return {"cof": self.cof, "fib": self.fib, "weq": self.weq}


# =====================================================================
# axioms
# =====================================================================


def validate_model(M: ModelLabeledCat) -> Report:
    """Structural findings of a labeling on a valid category: each label
    names only morphisms of the base."""
    rows = [
        reports.structural("class_member_known", (label, m), "unknown morphism")
        for label, cls in sorted(M.classes().items())
        for m in sorted(cls)
        if m not in M.base.morphisms
    ]
    return Report.collect("model", rows)


def model_axiom_check(M: ModelLabeledCat, lifting: bool = False) -> Report:
    """Label axioms, exhaustively, on valid input: a labeling that passes
    ``validate_model``.

    Identity containment in all three classes; two-out-of-three for weq on
    every composable pair; composition closure for cof and fib.  With
    ``lifting``, every commutative square with an acyclic-cofibration left
    side and fibration right side must admit a diagonal, and dually; this is
    quadratic in morphism count twice over, so it is opt-in.
    """
    cat = M.base
    rows = []
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


class ParamFamily(Record):
    """All parametrizations of a labeled category by a fixed source."""

    def __init__(self, source: FinCat, model: ModelLabeledCat, members: tuple[Functor, ...]):
        vars(self).update(source=source, model=model, members=members)

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


def enumerate_fes(source: FinCat, M: ModelLabeledCat, budget: int = DEFAULT_BUDGET) -> ParamFamily:
    """Every full, essentially surjective functor from source into M's base.

    Two searches on ``search.backtrack``.  The first maps the objects in
    ``source.objects`` order and drops a map as soon as a non-identity
    morphism with both ends mapped has no candidate image.  The work count
    is the number of candidate morphism maps: each object map adds the
    product of its non-identity hom-set sizes, before anything else is
    tested, and a count past the budget raises, never truncates.  An
    essentially surjective object map then gets its morphism maps:
    identities are forced, non-identities are assigned in sorted order, and
    each composite of the source is checked as soon as its last
    non-identity is assigned (one made of identities alone, at once).
    Fullness is tested on each complete map.  Verdicts are those of
    ``check_functor`` on categories whose ids resolve and whose identity
    tables are total; composition tables may have holes.  Members come out
    in a canonical order independent of enumeration order.
    """
    tgt = M.base
    hom, composite = tgt.hom, tgt.composition.get
    objects = source.objects
    slot = {obj: pos for pos, obj in enumerate(objects)}
    identity_ids = set(source.identities.values())
    arrows = sorted(m for m in source.morphisms if m not in identity_ids)
    ends = [(slot[source.source(m)], slot[source.target(m)]) for m in arrows]

    # object search: each non-identity is tested where its later end is mapped
    tested_at = [[] for _ in objects]
    for a, b in ends:
        tested_at[max(a, b)].append((a, b))
    combos = [1] * (len(objects) + 1)

    def mapped(prefix, image):
        pos = len(prefix)
        count = combos[pos]
        for a, b in tested_at[pos]:
            size = len(hom(image if a == pos else prefix[a], image if b == pos else prefix[b]))
            if not size:
                return False
            count *= size
        combos[pos + 1] = count
        return True

    # morphism search: value slots are the non-identities in sorted order,
    # then the identities of the objects, forced by the object map
    owner = {source.identity(obj): pos for pos, obj in enumerate(objects)}
    ref = {m: pos for pos, m in enumerate(arrows)}
    ref.update((m, len(arrows) + k) for k, m in enumerate(owner))
    checked_at = [[] for _ in arrows]
    at_once = []
    for (g, f), h in source.composition.items():
        if source.composable(g, f):
            entry = (ref[g], ref[f], ref[h])
            last = max((p for p in entry if p < len(arrows)), default=None)
            (at_once if last is None else checked_at[last]).append(entry)
    hom_refs = [
        (a, b, [ref[m] for m in source.hom(x, y)])
        for a, x in enumerate(objects)
        for b, y in enumerate(objects)
    ]
    values = [None] * len(ref)

    def functorial(prefix, image):
        pos = len(prefix)
        values[pos] = image
        for g, f, h in checked_at[pos]:
            if values[h] != composite((values[g], values[f])):
                return False
        return True

    surjective: dict[frozenset, bool] = {}
    members = []
    work = 0
    for images in backtrack([tgt.objects] * len(objects), mapped):
        work += combos[-1]
        if work > budget:
            raise ResourceBudgetError(
                f"functor enumeration needs more than {budget} candidates; refusing to truncate"
            )
        key = frozenset(images)
        if key not in surjective:
            # in sorted order, so the hom lookups made do not depend on the hash seed
            surjective[key] = all(any(tgt.isomorphic(x, d) for x in sorted(key)) for d in tgt.objects)
        if not surjective[key]:
            continue
        values[len(arrows):] = [tgt.identity(images[pos]) for pos in owner.values()]
        if any(values[h] != composite((values[g], values[f])) for g, f, h in at_once):
            continue
        needs = [(refs, hom(images[a], images[b])) for a, b, refs in hom_refs]
        if any(len(refs) < len(needed) for refs, needed in needs):
            continue
        omap = dict(zip(objects, images))
        for choice in backtrack([hom(images[a], images[b]) for a, b in ends], functorial):
            if all({values[r] for r in refs}.issuperset(needed) for refs, needed in needs if needed):
                mmap = dict(zip(arrows, choice))
                for obj in objects:
                    mmap[source.identity(obj)] = tgt.identity(omap[obj])
                members.append(
                    Functor(name="candidate", source=source, target=tgt, object_map=omap, morphism_map=mmap)
                )
    return _named_family(source, M, members)


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

    Valid input: G passes ``check_functor``, so it is full and essentially
    surjective (the action is defined on nothing larger).  Every output
    member is re-verified rather than assumed to inherit both properties
    from its factors.
    """
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
    set.  Valid input: ``rel`` passes ``validate_partition``.
    """
    for block in (block_a, block_b):
        if block not in rel.labels.values():
            raise InputError(f"unknown block: {block}")
    return _labels_of(M, class_representatives(M.base, rel).get((block_a, block_b), ()))


def _labels_of(M: ModelLabeledCat, morphisms) -> frozenset[str]:
    return frozenset(label for label, cls in M.classes().items() if any(m in cls for m in morphisms))


def quotient_model(M: ModelLabeledCat, rel: ObjEquiv) -> tuple[ModelLabeledCat | None, Report]:
    """Labeled thin quotient, axioms re-checked rather than assumed.

    A class morphism carries a label iff some representative does.  A
    quotient with composability gaps gives no labeled quotient (None) and
    its saturation report; otherwise the returned report is the axiom check
    of the labeled quotient, whatever it says.
    """
    quotient, saturation = quotient_category(M.base, rel)
    if not saturation.ok:
        return None, saturation

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
