"""Finite categories presented by explicit tables.

A category here is a closed combinatorial object: object ids, morphism ids
with endpoints, an identity table, and a *total* composition table over the
composable pairs.  Chosen pullbacks and products are declared data; they are
validated against their finite universal property by cone enumeration, never
computed.  Everything is immutable after construction and all checks are pure
functions returning reports.

Conventions
-----------
* ``composition[(g, f)]`` is "g after f", defined exactly when
  ``target(f) == source(g)``.
* A pullback entry ``(f, g) -> (apex, to_a, to_b)`` names the cospan legs
  ``f: A -> X``, ``g: B -> X`` and the chosen projections ``to_a: apex -> A``,
  ``to_b: apex -> B``.
* A product entry ``(a, b) -> (obj, to_a, to_b)`` is the binary product of
  objects ``a`` and ``b`` with its projections.
"""

from __future__ import annotations

import functools
import itertools

from . import reports
from .records import Record, Value
from .reports import Report


class InputError(Exception):
    """Malformed input data: unknown ids, broken preconditions, bad shapes."""


class ResourceBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its configured budget.

    Raised instead of silently truncating; the message carries the estimate
    and the budget so callers can rerun with a larger one.
    """


# =====================================================================
# core types
# =====================================================================


class FinCat(Record):
    def __init__(
        self,
        name: str,
        objects: tuple[str, ...],
        morphisms: dict[str, tuple[str, str]],
        identities: dict[str, str],
        composition: dict[tuple[str, str], str],
        pullbacks: dict[tuple[str, str], tuple[str, str, str]] | None = None,
        products: dict[tuple[str, str], tuple[str, str, str]] | None = None,
    ):
        vars(self).update(
            name=name, objects=objects, morphisms=morphisms, identities=identities, composition=composition,
            pullbacks={} if pullbacks is None else pullbacks, products={} if products is None else products,
        )

    # --- lookups ------------------------------------------------------

    def source(self, m: str) -> str:
        return self.morphisms[m][0]

    def target(self, m: str) -> str:
        return self.morphisms[m][1]

    def identity(self, obj: str) -> str:
        return self.identities[obj]

    def composable(self, after: str, first: str) -> bool:
        return self.target(first) == self.source(after)

    def compose(self, after: str, first: str) -> str:
        """Composite "after ∘ first"; raises InputError when undefined."""
        try:
            return self.composition[(after, first)]
        except KeyError:
            raise InputError(
                f"{self.name}: no composite for ({after} after {first})"
            ) from None

    def compose_or_none(self, after: str, first: str) -> str | None:
        return self.composition.get((after, first))

    def hom(self, src: str, tgt: str) -> tuple[str, ...]:
        return self._homs.get((src, tgt), ())

    def morphisms_into(self, tgt: str) -> tuple[str, ...]:
        return self._into.get(tgt, ())

    # Hom-sets and arrows into each object, sorted by id; built on first use,
    # since the tables never change after construction.

    @functools.cached_property
    def _homs(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return _index_sorted(self.morphisms, lambda ends: ends)

    @functools.cached_property
    def _into(self) -> dict[str, tuple[str, ...]]:
        return _index_sorted(self.morphisms, lambda ends: ends[1])

    def composable_pairs(self):
        for g, (gs, _gt) in self.morphisms.items():
            for f, (_fs, ft) in self.morphisms.items():
                if ft == gs:
                    yield g, f

    # --- isomorphism search ------------------------------------------

    def inverse_of(self, m: str) -> str | None:
        """Two-sided inverse found by exhaustive search, or None."""
        src, tgt = self.morphisms[m]
        for cand in self.hom(tgt, src):
            if (
                self.compose_or_none(cand, m) == self.identities.get(src)
                and self.compose_or_none(m, cand) == self.identities.get(tgt)
            ):
                return cand
        return None

    def is_iso(self, m: str) -> bool:
        return self.inverse_of(m) is not None

    def isomorphic(self, a: str, b: str) -> bool:
        if a == b:
            return True
        return any(self.is_iso(m) for m in self.hom(a, b))


def _index_sorted(morphisms: dict[str, tuple[str, str]], key) -> dict:
    index: dict = {}
    for m in sorted(morphisms):
        index.setdefault(key(morphisms[m]), []).append(m)
    return {k: tuple(ms) for k, ms in index.items()}


class Functor(Record):
    def __init__(self, name: str, source: FinCat, target: FinCat, object_map: dict, morphism_map: dict):
        vars(self).update(
            name=name, source=source, target=target, object_map=object_map, morphism_map=morphism_map
        )


class ObjEquiv(Record):
    """Partition of a category's objects into equivalence blocks."""

    def __init__(self, blocks: tuple[frozenset[str], ...]):
        vars(self).update(blocks=blocks)

    @functools.cached_property
    def labels(self) -> dict[str, str]:
        """Object -> label of the first block that holds it."""
        labels: dict[str, str] = {}
        for b in self.blocks:
            label = block_label(b)
            for obj in b:
                labels.setdefault(obj, label)
        return labels

    def block_id(self, obj: str) -> str:
        try:
            return self.labels[obj]
        except KeyError:
            raise InputError(f"object {obj!r} is in no block of the partition") from None

    def same(self, a: str, b: str) -> bool:
        return self.block_id(a) == self.block_id(b)


def block_label(block: frozenset[str]) -> str:
    return "[" + "+".join(sorted(block)) + "]"


def class_morphism(bx: str, by: str) -> str:
    """Id of the class morphism from block ``bx`` to block ``by`` in a thin quotient."""
    return f"{bx}->{by}"


def class_representatives(cat: FinCat, rel: ObjEquiv) -> dict[tuple[str, str], tuple[str, ...]]:
    """(block, block) -> the base morphisms between the two blocks, sorted by id.

    Only inhabited pairs are keys, in the order of their first morphism id.
    """
    return _index_sorted(cat.morphisms, lambda ends: (rel.block_id(ends[0]), rel.block_id(ends[1])))


def partition_from_blocks(blocks) -> ObjEquiv:
    """Canonicalize an iterable of member iterables into an ObjEquiv."""
    frozen = sorted((frozenset(b) for b in blocks), key=lambda b: sorted(b))
    return ObjEquiv(blocks=tuple(frozen))


def discrete_partition(cat: FinCat) -> ObjEquiv:
    return partition_from_blocks([{o} for o in cat.objects])


# =====================================================================
# category validation
# =====================================================================


def validate_category(cat: FinCat) -> Report:
    """Full structural and law check; an empty report means a valid category.

    Structural findings cover dangling ids and missing table entries; law
    findings cover the category axioms (composition domain exactness,
    identity laws, associativity) and the universal property of every
    declared pullback or product.
    """
    rows: list[reports.Finding] = []
    objset = set(cat.objects)

    if len(objset) != len(cat.objects):
        dupes = sorted({o for o in cat.objects if cat.objects.count(o) > 1})
        rows.append(reports.structural("object_ids_unique", dupes, "duplicate object ids"))

    refs_ok = True
    for m, (src, tgt) in sorted(cat.morphisms.items()):
        for end, label in ((src, "source"), (tgt, "target")):
            if end not in objset:
                rows.append(
                    reports.structural("morphism_endpoints", (m, end), f"unknown {label} object")
                )
                refs_ok = False

    for obj in cat.objects:
        ident = cat.identities.get(obj)
        if ident is None:
            rows.append(reports.structural("identity_total", (obj,), "object has no identity"))
            refs_ok = False
        elif ident not in cat.morphisms:
            rows.append(reports.structural("identity_total", (obj, ident), "identity id unknown"))
            refs_ok = False
        elif cat.morphisms[ident] != (obj, obj):
            rows.append(
                reports.structural("identity_endpoints", (obj, ident), "identity is not an endomorphism of its object")
            )
            refs_ok = False
    for obj in sorted(set(cat.identities) - objset):
        rows.append(reports.structural("identity_total", (obj,), "identity declared for unknown object"))
        refs_ok = False

    for (g, f), h in sorted(cat.composition.items()):
        for m in (g, f, h):
            if m not in cat.morphisms:
                rows.append(reports.structural("composition_refs", (g, f, m), "unknown morphism id in composition table"))
                refs_ok = False

    if not refs_ok:
        return Report.collect(cat.name, rows)

    # Composition domain: defined exactly on composable pairs.
    for g, f in cat.composable_pairs():
        if (g, f) not in cat.composition:
            rows.append(reports.law("composition_total", (g, f), "composable pair has no composite"))
    for (g, f), h in sorted(cat.composition.items()):
        if not cat.composable(g, f):
            rows.append(reports.law("composition_domain", (g, f), "composite declared for a non-composable pair"))
            continue
        want = (cat.source(f), cat.target(g))
        if cat.morphisms[h] != want:
            rows.append(
                reports.law("composite_endpoints", (g, f, h), f"composite endpoints {cat.morphisms[h]} != {want}")
            )

    def comp(g: str, f: str) -> str | None:
        return cat.composition.get((g, f))

    for m, (src, tgt) in sorted(cat.morphisms.items()):
        left = comp(cat.identities[tgt], m)
        if left is not None and left != m:
            rows.append(reports.law("identity_left", (m,), f"id∘{m} = {left}"))
        right = comp(m, cat.identities[src])
        if right is not None and right != m:
            rows.append(reports.law("identity_right", (m,), f"{m}∘id = {right}"))

    for h, (hs, _ht) in sorted(cat.morphisms.items()):
        for g in cat.morphisms_into(hs):
            for f in cat.morphisms_into(cat.source(g)):
                hg, gf = comp(h, g), comp(g, f)
                if hg is None or gf is None:
                    continue
                one, two = comp(hg, f), comp(h, gf)
                if one is not None and two is not None and one != two:
                    rows.append(
                        reports.law("associativity", (h, g, f), f"(h∘g)∘f = {one} but h∘(g∘f) = {two}")
                    )

    base = Report.collect(cat.name, rows)
    if cat.pullbacks or cat.products:
        base = base.merged_with(chosen_limit_check(cat))
    return base


# =====================================================================
# chosen limits
# =====================================================================


def chosen_limit_check(cat: FinCat) -> Report:
    """Validate every declared pullback and product by cone enumeration.

    For each declared limit, every cone over its diagram must factor through
    the chosen apex by exactly one mediating morphism.
    """
    rows: list[reports.Finding] = []

    def comp(g: str, f: str) -> str | None:
        return cat.composition.get((g, f))

    def cones(a: str, b: str):
        """Every pair of arrows (u, v) from one tip into a and into b."""
        return ((tip, u, v) for tip in cat.objects for u in cat.hom(tip, a) for v in cat.hom(tip, b))

    def universal(rule: str, prefix: tuple, apex: str, to_a: str, to_b: str, legs) -> None:
        """A law finding for each cone that does not factor through apex exactly once."""
        for tip, u, v in legs:
            mediators = [
                m
                for m in cat.hom(tip, apex)
                if comp(to_a, m) == u and comp(to_b, m) == v
            ]
            if len(mediators) != 1:
                why = "no mediator" if not mediators else f"mediators {mediators}"
                rows.append(reports.law(rule, prefix + (tip, u, v), f"cone ({u}, {v}) from {tip}: {why}"))

    for (a, b), (prod, to_a, to_b) in sorted(cat.products.items()):
        tag = (a, b, prod)
        if a not in set(cat.objects) or b not in set(cat.objects):
            rows.append(reports.structural("product_refs", tag, "unknown factor object"))
            continue
        if to_a not in cat.morphisms or to_b not in cat.morphisms:
            rows.append(reports.structural("product_refs", tag, "unknown projection id"))
            continue
        if cat.morphisms[to_a] != (prod, a) or cat.morphisms[to_b] != (prod, b):
            rows.append(reports.structural("product_projections", tag, "projection endpoints do not match the declared product"))
            continue
        universal("product_universal", (a, b), prod, to_a, to_b, cones(a, b))

    for (f, g), (apex, to_a, to_b) in sorted(cat.pullbacks.items()):
        tag = (f, g, apex)
        if f not in cat.morphisms or g not in cat.morphisms:
            rows.append(reports.structural("pullback_refs", tag, "unknown cospan leg"))
            continue
        if cat.morphisms[f][1] != cat.morphisms[g][1]:
            rows.append(reports.structural("pullback_cospan", tag, "cospan legs have different targets"))
            continue
        if to_a not in cat.morphisms or to_b not in cat.morphisms:
            rows.append(reports.structural("pullback_refs", tag, "unknown projection id"))
            continue
        a, b = cat.morphisms[f][0], cat.morphisms[g][0]
        if cat.morphisms[to_a] != (apex, a) or cat.morphisms[to_b] != (apex, b):
            rows.append(reports.structural("pullback_projections", tag, "projection endpoints do not match the cospan"))
            continue
        if comp(f, to_a) != comp(g, to_b) or comp(f, to_a) is None:
            rows.append(reports.law("pullback_square", tag, "chosen square does not commute"))
            continue
        commuting = ((t, u, v) for t, u, v in cones(a, b) if comp(f, u) is not None and comp(f, u) == comp(g, v))
        universal("pullback_universal", (f, g), apex, to_a, to_b, commuting)

    return Report.collect(cat.name, rows)


# =====================================================================
# functor checks
# =====================================================================


class FunctorReport(Value):
    def __init__(self, functorial: bool, full: bool, essentially_surjective: bool, report: Report):
        vars(self).update(
            functorial=functorial, full=full, essentially_surjective=essentially_surjective, report=report
        )

    @property
    def ok(self) -> bool:
        return self.functorial and self.full and self.essentially_surjective


def check_functor(fun: Functor) -> FunctorReport:
    """Check functoriality, fullness, and essential surjectivity.

    The three verdicts are independent: fullness asks that every hom-set
    between image objects is hit, essential surjectivity searches target
    objects for an isomorphic image object by exhaustive inverse search.
    """
    src, tgt = fun.source, fun.target
    rows: list[reports.Finding] = []

    functorial = True
    for obj in src.objects:
        if obj not in fun.object_map:
            rows.append(reports.structural("object_map_total", (obj,), "object not mapped"))
            functorial = False
        elif fun.object_map[obj] not in set(tgt.objects):
            rows.append(reports.structural("object_map_range", (obj, fun.object_map[obj]), "image object unknown"))
            functorial = False
    for m in src.morphisms:
        if m not in fun.morphism_map:
            rows.append(reports.structural("morphism_map_total", (m,), "morphism not mapped"))
            functorial = False
        elif fun.morphism_map[m] not in tgt.morphisms:
            rows.append(reports.structural("morphism_map_range", (m, fun.morphism_map[m]), "image morphism unknown"))
            functorial = False

    if functorial:
        for m, (a, b) in sorted(src.morphisms.items()):
            img = fun.morphism_map[m]
            want = (fun.object_map[a], fun.object_map[b])
            if tgt.morphisms[img] != want:
                rows.append(reports.law("endpoint_preservation", (m, img), f"image endpoints {tgt.morphisms[img]} != {want}"))
                functorial = False
        for obj in src.objects:
            img = fun.morphism_map.get(src.identities[obj])
            want = tgt.identities.get(fun.object_map[obj])
            if img != want:
                rows.append(reports.law("identity_preservation", (obj,), f"identity maps to {img}, expected {want}"))
                functorial = False
        for (g, f), h in sorted(src.composition.items()):
            if not src.composable(g, f):
                continue
            lhs = fun.morphism_map[h]
            rhs = tgt.compose_or_none(fun.morphism_map[g], fun.morphism_map[f])
            if lhs != rhs:
                rows.append(reports.law("composition_preservation", (g, f), f"F(g∘f) = {lhs} but F(g)∘F(f) = {rhs}"))
                functorial = False

    full = True
    if all(obj in fun.object_map for obj in src.objects):
        for a, b in itertools.product(src.objects, repeat=2):
            fa, fb = fun.object_map[a], fun.object_map[b]
            hit = {fun.morphism_map.get(m) for m in src.hom(a, b)}
            for needed in tgt.hom(fa, fb):
                if needed not in hit:
                    rows.append(reports.law("fullness", (a, b, needed), f"{needed}: {fa} -> {fb} is not in the image of Hom({a}, {b})"))
                    full = False
    else:
        full = False

    ess = True
    images = sorted({fun.object_map[o] for o in src.objects if o in fun.object_map})
    for d in tgt.objects:
        if not any(tgt.isomorphic(img, d) for img in images):
            rows.append(reports.law("essential_surjectivity", (d,), "no image object is isomorphic to it"))
            ess = False

    return FunctorReport(
        functorial=functorial,
        full=full,
        essentially_surjective=ess,
        report=Report.collect(fun.name, rows),
    )


# =====================================================================
# quotients
# =====================================================================


def validate_partition(cat: FinCat, rel: ObjEquiv) -> Report:
    rows: list[reports.Finding] = []
    seen: dict[str, int] = {}
    for idx, block in enumerate(rel.blocks):
        if not block:
            rows.append(reports.structural("blocks_nonempty", (str(idx),), "empty block"))
        for obj in sorted(block):
            if obj in seen:
                rows.append(reports.structural("blocks_disjoint", (obj,), "object occurs in two blocks"))
            seen[obj] = idx
            if obj not in set(cat.objects):
                rows.append(reports.structural("blocks_known", (obj,), "block member is not an object"))
    for obj in cat.objects:
        if obj not in seen:
            rows.append(reports.structural("blocks_exhaustive", (obj,), "object missing from the partition"))
    return Report.collect(f"partition on {cat.name}", rows)


def quotient_category(cat: FinCat, rel: ObjEquiv) -> tuple[FinCat, Report]:
    """Thin quotient by an object partition, plus its saturation report.

    Hom([X], [Y]) has at most one class morphism, present exactly when some
    representative morphism exists.  The saturation report flags composable
    class pairs whose composite class hom-set is uninhabited; the quotient is
    a category exactly when that report is empty.
    """
    bad = validate_partition(cat, rel)
    if not bad.ok:
        raise InputError(f"invalid partition: {bad.render()}")

    blocks = sorted({rel.block_id(o) for o in cat.objects})
    inhabited = class_representatives(cat, rel)

    morphisms = {
        class_morphism(bx, by): (bx, by) for (bx, by) in inhabited
    }
    identities = {b: class_morphism(b, b) for b in blocks}

    composition: dict[tuple[str, str], str] = {}
    saturation: list[reports.Finding] = []
    for (bx, by1) in sorted(inhabited):
        for (by2, bz) in sorted(inhabited):
            if by1 != by2:
                continue
            first = class_morphism(bx, by1)
            after = class_morphism(by2, bz)
            if (bx, bz) in inhabited:
                composition[(after, first)] = class_morphism(bx, bz)
                continue
            pair_witness = any(
                cat.target(f) == cat.source(g)
                for f in inhabited[(bx, by1)]
                for g in inhabited[(by2, bz)]
            )
            saturation.append(
                reports.law(
                    "quotient_composability",
                    (bx, by1, bz),
                    f"classes {first} and {after} compose to the uninhabited {class_morphism(bx, bz)}"
                    + ("" if not pair_witness else " despite a composable representative pair"),
                )
            )

    quotient = FinCat(
        name=f"{cat.name}/~",
        objects=tuple(blocks),
        morphisms=morphisms,
        identities=identities,
        composition=composition,
    )
    return quotient, Report.collect(quotient.name, saturation)


def push_forward_partition(fun: Functor, rel: ObjEquiv) -> ObjEquiv:
    """Smallest partition on the target identifying images of related objects.

    Closure by union-find; target objects outside the image stay singletons.
    """
    parent: dict[str, str] = {o: o for o in fun.target.objects}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for block in rel.blocks:
        members = sorted(block)
        for a, b in zip(members, members[1:]):
            union(fun.object_map[a], fun.object_map[b])

    grouped: dict[str, set[str]] = {}
    for o in fun.target.objects:
        grouped.setdefault(find(o), set()).add(o)
    return partition_from_blocks(grouped.values())


def induced_functor(fun: Functor, rel: ObjEquiv) -> tuple[Functor, Report]:
    """Functor between thin quotients induced by ``fun``.

    The target carries the pushed-forward partition.  The report confirms
    well-definedness: every source class morphism lands in an inhabited
    target class, independent of the chosen representative.
    """
    base = check_functor(fun)
    if not base.functorial:
        raise InputError(f"induced_functor needs a functor; got: {base.report.render()}")

    target_rel = push_forward_partition(fun, rel)
    q_src, _sat_src = quotient_category(fun.source, rel)
    q_tgt, _sat_tgt = quotient_category(fun.target, target_rel)

    object_map = {
        rel.block_id(obj): target_rel.block_id(fun.object_map[obj])
        for obj in fun.source.objects
    }

    reps = class_representatives(fun.source, rel)
    morphism_map: dict[str, str] = {}
    rows: list[reports.Finding] = []
    for cm, (bx, by) in sorted(q_src.morphisms.items()):
        image = class_morphism(object_map[bx], object_map[by])
        if image not in q_tgt.morphisms:
            rows.append(
                reports.law("induced_well_defined", (cm,), f"image class {image} is uninhabited")
            )
            continue
        morphism_map[cm] = image
        witnesses = list(reps[(bx, by)])
        images = sorted({fun.morphism_map[w] for w in witnesses})
        rows.append(
            reports.info(
                "induced_witness",
                (cm, image),
                f"representatives {witnesses} map into {images}; all land in {image}",
            )
        )

    induced = Functor(
        name=f"{fun.name}/~",
        source=q_src,
        target=q_tgt,
        object_map=object_map,
        morphism_map=morphism_map,
    )
    return induced, Report.collect(induced.name, rows)


# =====================================================================
# constructors
# =====================================================================


def poset_category(name: str, elements, leq_pairs, with_meets: bool = True) -> FinCat:
    """Category of a finite poset: one morphism a -> b for each a <= b.

    ``leq_pairs`` lists the strict relations; reflexivity is implied and the
    transitive closure is taken.  With ``with_meets``, every cospan whose two
    sources have a unique greatest lower bound gets a declared pullback, and
    every such object pair a declared product (in a poset both are the meet).
    """
    elements = tuple(elements)
    below: dict[str, set[str]] = {e: {e} for e in elements}
    for a, b in leq_pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in elements:
            grow = set()
            for a in below[b]:
                grow |= below[a]
            if not grow <= below[b]:
                below[b] |= grow
                changed = True

    def leq(a: str, b: str) -> bool:
        return a in below[b]

    def arrow(a: str, b: str) -> str:
        return f"id_{a}" if a == b else f"{a}<{b}"

    morphisms: dict[str, tuple[str, str]] = {}
    for b in elements:
        for a in below[b]:
            morphisms[arrow(a, b)] = (a, b)
    identities = {e: arrow(e, e) for e in elements}
    composition = {
        (arrow(b, c), arrow(a, b)): arrow(a, c)
        for a in elements
        for b in elements
        if leq(a, b)
        for c in elements
        if leq(b, c)
    }

    def meet(a: str, b: str) -> str | None:
        lower = [x for x in elements if leq(x, a) and leq(x, b)]
        tops = [x for x in lower if all(leq(y, x) for y in lower)]
        return tops[0] if len(tops) == 1 else None

    pullbacks: dict[tuple[str, str], tuple[str, str, str]] = {}
    products: dict[tuple[str, str], tuple[str, str, str]] = {}
    if with_meets:
        for a, b in itertools.product(elements, repeat=2):
            m = meet(a, b)
            if m is not None:
                products[(a, b)] = (m, arrow(m, a), arrow(m, b))
        for f, (a, x1) in morphisms.items():
            for g, (b, x2) in morphisms.items():
                if x1 != x2:
                    continue
                m = meet(a, b)
                if m is not None:
                    pullbacks[(f, g)] = (m, arrow(m, a), arrow(m, b))

    return FinCat(
        name=name,
        objects=elements,
        morphisms=morphisms,
        identities=identities,
        composition=composition,
        pullbacks=pullbacks,
        products=products,
    )
