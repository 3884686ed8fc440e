"""Integer-linearized objects and morphisms over a finite base category.

An object is a formal sum of base objects with nonzero integer coefficients,
indexed by distinct component indices.  A morphism is a coefficient table:
terms ``(row, col, coefficient, arrow)`` where ``arrow`` is a base morphism
from the row's base object to the column's.  Row marginals must reproduce the
source coefficients and column marginals the target coefficients, so
morphisms only exist between objects of equal total mass and composition is
a mass transport through each shared middle component.  Column-free tables
(the sections of the presheaf layer) are ZMorphisms too: they keep the row
marginal and skip the column one.  Only ``z_validate`` checks marginals and
the presheaf layer never runs it on its sections, so such a table is
restricted along a morphism by the same ``z_compose``.

Composition and term order
--------------------------
Per middle component, both coefficient splittings are laid out as
consecutive intervals along ``[0, |n|)`` and each emitted term is an
interval overlap (the transportation-problem northwest rule).  A morphism
stores its two layouts over the same ``ZTerm`` objects: ``into`` maps each
target component to its terms in target-side order (what ``terms_into``
reads), ``out_of`` maps each source component to its terms in source-side
order (what ``terms_out_of`` reads), and ``terms`` lists every term once.
Freshly constructed morphisms lay out both sides in canonical
``(row, col, arrow)`` order.  A composite keeps its provenance instead: each
column's layout is outer-major (each outer term's interval, subdivided by
inner terms), each row's inner-major.  Re-sorting composite terms by id
would break associativity: two parallel arrows whose composites with a third
arrow sort in the opposite order make the two bracketings pair different
masses.  Keeping provenance, every layout coincides with the positions the
masses already occupy, so both bracketings of a triple perform literally the
same atom-by-atom pairing and composition is associative by construction on
sign-coherent inputs.

Equality, rendering, and serialization use the normalized view (merge by
``(row, col, arrow)``, drop zeros, sort), computed once per morphism;
provenance only affects how a composite behaves inside further
compositions.

When either side of a middle has a single term, the coupling table is the
unique one with the required marginals, so it is used even without sign
coherence; identities have one term per component, which makes them exact
two-sided units for every morphism, mixed signs included.
"""

from __future__ import annotations

import functools
import itertools

from . import reports
from .fincat import FinCat, InputError
from .records import Record, Value
from .reports import Report


class SignIncoherent(InputError):
    """A middle component mixes signs and no explicit table was supplied."""


class MarginalMismatch(InputError):
    """Partition or table sums do not reproduce the required marginals."""


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


# =====================================================================
# objects and morphisms
# =====================================================================


class ZObject(Value):
    """Formal sum: tuple of (component index, base object id, coefficient)."""

    def __init__(self, components: tuple[tuple[int, str, int], ...]):
        seen = set()
        for idx, obj, coeff in components:
            if coeff == 0:
                raise InputError(f"component {idx} of [{obj}] has zero coefficient")
            if idx in seen:
                raise InputError(f"duplicate component index {idx}")
            seen.add(idx)
        vars(self).update(components=components)

    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _, _ in self.components)

    def piece(self, idx: int) -> ZObject:
        """The one-component sum holding component ``idx``."""
        for component in self.components:
            if component[0] == idx:
                return ZObject(components=(component,))
        raise InputError(f"no component with index {idx}")

    def base_object(self, idx: int) -> str:
        return self.piece(idx).components[0][1]

    def total_mass(self) -> int:
        return sum(coeff for _, _, coeff in self.components)

    def render(self) -> str:
        return " + ".join(f"{c}[{o}]#{i}" for i, o, c in self.components)


def z_object(parts) -> ZObject:
    """Build a ZObject from (index, base object, coefficient) triples."""
    return ZObject(components=tuple(sorted((int(i), str(o), int(c)) for i, o, c in parts)))


class ZTerm(Value):
    """One cell (row, col, coefficient, arrow).  Terms are never changed
    after construction; they are left unfrozen for build speed, since plain
    slot assignment is the cheapest constructor and composition builds many."""

    __slots__ = ("row", "col", "coefficient", "arrow")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, row: int, col: int, coefficient: int, arrow: str):
        self.row = row
        self.col = col
        self.coefficient = coefficient
        self.arrow = arrow

    def key(self) -> tuple:
        return (self.row, self.col, self.arrow)


def _normalize(cells) -> tuple[tuple[int, int, str, int], ...]:
    """Merge ((row, col, arrow), coefficient) cells by key, drop zeros, sort."""
    merged: dict[tuple[int, int, str], int] = {}
    for key, coeff in cells:
        merged[key] = merged.get(key, 0) + coeff
    return tuple(
        (row, col, arrow, coeff)
        for (row, col, arrow), coeff in sorted(merged.items())
        if coeff != 0
    )


def _group(terms, side: str) -> dict[int, tuple[ZTerm, ...]]:
    """Terms by their ``side`` ("row" or "col") component, order kept."""
    groups: dict[int, list[ZTerm]] = {}
    for t in terms:
        groups.setdefault(getattr(t, side), []).append(t)
    return {idx: tuple(ts) for idx, ts in groups.items()}


class ZMorphism(Record):
    """Coefficient table stored as its two layouts over the same terms.

    ``into`` maps a column to its terms in target-side order, ``out_of`` a
    row to its terms in source-side order.
    """

    def __init__(self, source: ZObject, target: ZObject, into: dict, out_of: dict):
        vars(self).update(source=source, target=target, into=into, out_of=out_of)

    @property
    def terms(self) -> tuple[ZTerm, ...]:
        """Every term once, row group by row group."""
        return tuple(itertools.chain.from_iterable(self.out_of.values()))

    def normal_form(self) -> tuple[tuple[int, int, str, int], ...]:
        return self._normal_form

    @functools.cached_property
    def _normal_form(self) -> tuple[tuple[int, int, str, int], ...]:
        # computed once: rendering, equality, hashing and serialization all read it
        return _normalize(((t.row, t.col, t.arrow), t.coefficient) for t in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZMorphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.normal_form() == other.normal_form()
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.normal_form()))

    def terms_into(self, col: int) -> tuple[ZTerm, ...]:
        """Target-side layout of the given component."""
        return self.into.get(col, ())

    def terms_out_of(self, row: int) -> tuple[ZTerm, ...]:
        """Source-side layout of the given component."""
        return self.out_of.get(row, ())

    def render(self) -> str:
        cells = ", ".join(
            f"({r},{c},{v},{a})" for r, c, a, v in self.normal_form()
        )
        return f"{{{cells}}}: {self.source.render()} -> {self.target.render()}"


def z_morphism(source: ZObject, target: ZObject, terms) -> ZMorphism:
    """Canonical constructor: merge duplicate cells, drop zeros, group terms.

    ``terms`` holds (row, col, coefficient, arrow) tuples.  Fresh morphisms
    lay out both sides in canonical (row, col, arrow) order.
    """
    cells = _normalize(((int(row), int(col), str(arrow)), int(coeff)) for row, col, coeff, arrow in terms)
    made = [ZTerm(row, col, coeff, arrow) for row, col, arrow, coeff in cells]
    return ZMorphism(source, target, into=_group(made, "col"), out_of=_group(made, "row"))


# =====================================================================
# validation
# =====================================================================


def z_validate(base: FinCat, phi: ZMorphism, subject: str = "zmorphism") -> Report:
    """Structural and marginal check of a coefficient table.

    Structural findings: unknown component indices, unknown arrows, arrows
    whose endpoints do not connect the referenced base objects.  Law
    findings: a row marginal differing from the source coefficient or a
    column marginal differing from the target coefficient.
    """
    src = {idx: obj for idx, obj, _ in phi.source.components}
    tgt = {idx: obj for idx, obj, _ in phi.target.components}
    rows: list[reports.Finding] = []
    for t in phi.terms:
        tag = (str(t.row), str(t.col), t.arrow)
        if t.row not in src:
            rows.append(reports.structural("term_row_known", tag, "unknown source component index"))
        if t.col not in tgt:
            rows.append(reports.structural("term_col_known", tag, "unknown target component index"))
        if t.arrow not in base.morphisms:
            rows.append(reports.structural("term_arrow_known", tag, "unknown base arrow"))

    # endpoints are compared only once every id resolves
    if not rows:
        for t in phi.terms:
            got, want = base.morphisms[t.arrow], (src[t.row], tgt[t.col])
            if got != want:
                tag = (str(t.row), str(t.col), t.arrow)
                rows.append(reports.structural("term_arrow_endpoints", tag, f"arrow endpoints {got} != {want}"))

    for idx, _obj, coeff in phi.source.components:
        got = sum(t.coefficient for t in phi.terms_out_of(idx))
        if got != coeff:
            rows.append(
                reports.law("row_marginal", (str(idx),), f"row sum {got} != source coefficient {coeff}")
            )
    for idx, _obj, coeff in phi.target.components:
        got = sum(t.coefficient for t in phi.terms_into(idx))
        if got != coeff:
            rows.append(
                reports.law("column_marginal", (str(idx),), f"column sum {got} != target coefficient {coeff}")
            )

    return Report.collect(subject, rows)


def sign_coherent(phi: ZMorphism) -> bool:
    """True when every cell's sign matches both its row and column mass."""
    norm = phi.normal_form()
    for idx, _obj, coeff in phi.source.components:
        if any(_sign(v) != _sign(coeff) for r, _c, _a, v in norm if r == idx):
            return False
    for idx, _obj, coeff in phi.target.components:
        if any(_sign(v) != _sign(coeff) for _r, c, _a, v in norm if c == idx):
            return False
    return True


# =====================================================================
# units and embeddings
# =====================================================================


def z_identity(base: FinCat, obj: ZObject) -> ZMorphism:
    """Diagonal table of identities; a two-sided unit for composition."""
    terms = []
    for idx, base_obj, coeff in obj.components:
        ident = base.identities.get(base_obj)
        if ident is None:
            raise InputError(f"base object {base_obj} has no identity")
        terms.append((idx, idx, coeff, ident))
    return z_morphism(obj, obj, terms)


def z_scalar_embed(base: FinCat, arrow: str, coefficient: int) -> ZMorphism:
    """Single-component morphism m[X] -> m[Y] carried by one base arrow."""
    if coefficient == 0:
        raise InputError("scalar embedding needs a nonzero coefficient")
    if arrow not in base.morphisms:
        raise InputError(f"unknown base arrow {arrow}")
    src, tgt = base.morphisms[arrow]
    return z_morphism(
        z_object([(1, src, coefficient)]),
        z_object([(1, tgt, coefficient)]),
        [(1, 1, coefficient, arrow)],
    )


# =====================================================================
# interval refinement
# =====================================================================


class RefinementTable(Value):
    """Joint splitting of two partitions of the same total.

    ``entries`` maps 1-based (row position, column position) to the signed
    mass shared by that row and column.
    """

    def __init__(self, rows: tuple[int, ...], cols: tuple[int, ...], entries: dict | None = None):
        vars(self).update(rows=rows, cols=cols, entries={} if entries is None else entries)

    def row_sums(self) -> tuple[int, ...]:
        out = [0] * len(self.rows)
        for (a, _b), v in self.entries.items():
            out[a - 1] += v
        return tuple(out)

    def col_sums(self) -> tuple[int, ...]:
        out = [0] * len(self.cols)
        for (_a, b), v in self.entries.items():
            out[b - 1] += v
        return tuple(out)


def _overlaps(rows, cols):
    """Northwest-corner walk of two runs of positive lengths with one total.

    Lays both runs out as consecutive intervals from 0 and yields
    ``(a, b, length)`` for each row interval ``a`` and column interval ``b``
    (0-based) that overlap, row by row and, within a row, column by column.
    """
    a = b = 0
    r, c = rows[0], cols[0]
    while True:
        length = r if r < c else c
        yield a, b, length
        r -= length
        c -= length
        if not r:
            a += 1
            if a == len(rows):
                return
            r = rows[a]
        if not c:
            b += 1
            c = cols[b]


def interval_refinement(rows, cols) -> RefinementTable:
    """Overlap table of two sign-coherent partitions of one total.

    Both sequences are laid out as consecutive intervals along
    ``[0, |total|)``; entry (a, b) is the overlap length of row interval a
    and column interval b, signed by the total's sign.  Raises
    MarginalMismatch when the sums differ and SignIncoherent when any entry
    lacks the total's sign.
    """
    rows = tuple(int(r) for r in rows)
    cols = tuple(int(c) for c in cols)
    total = sum(rows)
    if total != sum(cols):
        raise MarginalMismatch(f"row sum {total} != column sum {sum(cols)}")
    sgn = _sign(total)
    if sgn == 0:
        if rows or cols:
            raise SignIncoherent("zero total cannot carry nonzero entries")
        return RefinementTable(rows=rows, cols=cols, entries={})
    for label, seq in (("row", rows), ("column", cols)):
        for pos, val in enumerate(seq, start=1):
            if _sign(val) != sgn:
                raise SignIncoherent(f"{label} entry {pos} ({val}) does not carry the sign of {total}")

    overlaps = _overlaps([abs(r) for r in rows], [abs(c) for c in cols])
    entries = {(a + 1, b + 1): sgn * length for a, b, length in overlaps}
    return RefinementTable(rows=rows, cols=cols, entries=entries)


# =====================================================================
# composition
# =====================================================================


def _middle_table(middle_idx: int, table: RefinementTable, row_vals, col_vals) -> RefinementTable:
    """An explicit table for one middle, checked against both splittings."""
    if table.rows != row_vals or table.cols != col_vals:
        raise MarginalMismatch(
            f"middle {middle_idx}: explicit table is for partitions "
            f"{table.rows}/{table.cols}, not {row_vals}/{col_vals}"
        )
    outside = [(a, b) for a, b in table.entries if not (0 < a <= len(row_vals) and 0 < b <= len(col_vals))]
    if outside:
        raise MarginalMismatch(
            f"middle {middle_idx}: explicit table entry {outside[0]} lies outside "
            f"{len(row_vals)} rows x {len(col_vals)} columns"
        )
    if table.row_sums() != row_vals or table.col_sums() != col_vals:
        raise MarginalMismatch(f"middle {middle_idx}: explicit table does not reproduce its marginals")
    return table


def _terms(base: FinCat, pairs) -> list:
    """(inner term, outer term, composite term) for each nonzero (inner term, outer term, mass)."""
    compose = base.compose
    return [(it, ot, ZTerm(it.row, ot.col, v, compose(ot.arrow, it.arrow))) for it, ot, v in pairs if v]


def _explicit_cells(base: FinCat, middle_idx: int, table: RefinementTable, row_terms, col_terms) -> list:
    """(inner term, outer term, composite term) of each nonzero entry, by row then column.

    Arrows are composed in entry order, so the first missing composite
    raised is that of the first entry listed.
    """
    row_vals = tuple(t.coefficient for t in row_terms)
    col_vals = tuple(t.coefficient for t in col_terms)
    table = _middle_table(middle_idx, table, row_vals, col_vals)
    positions = [pos for pos, v in table.entries.items() if v]
    made = _terms(base, [(row_terms[a - 1], col_terms[b - 1], table.entries[a, b]) for a, b in positions])
    return [cell for _pos, cell in sorted(zip(positions, made))]


def _computed_cells(base: FinCat, middle_idx: int, middle_coeff: int, row_terms, col_terms) -> list:
    """(inner term, outer term, composite term) of each cell of one middle's table, by row then column.

    The table is the unique one when either side is a single term, else the
    interval overlaps of the two sign-coherent splittings.  Both splittings
    are checked before any arrow is composed.
    """
    row_vals = tuple(t.coefficient for t in row_terms)
    col_vals = tuple(t.coefficient for t in col_terms)
    if sum(row_vals) != middle_coeff or sum(col_vals) != middle_coeff:
        raise MarginalMismatch(
            f"middle {middle_idx}: splittings {row_vals}/{col_vals} do not sum to {middle_coeff}"
        )
    # a single interval on either side forces the unique marginal-correct table
    if len(row_terms) == 1:
        pairs = [(row_terms[0], ot, ot.coefficient) for ot in col_terms]
    elif len(col_terms) == 1:
        pairs = [(it, col_terms[0], it.coefficient) for it in row_terms]
    else:
        vals = row_vals + col_vals
        if (min(vals) <= 0) if middle_coeff > 0 else (max(vals) >= 0):
            raise SignIncoherent(
                f"middle {middle_idx} mixes signs ({row_vals} against {col_vals}); supply an explicit table"
            )
        sgn = _sign(middle_coeff)
        overlaps = _overlaps([abs(v) for v in row_vals], [abs(v) for v in col_vals])
        pairs = [(row_terms[a], col_terms[b], sgn * length) for a, b, length in overlaps]
    return _terms(base, pairs)


def _couple(base: FinCat, outer: ZMorphism, inner: ZMorphism, explicit) -> ZMorphism:
    """Pair inner's target-side layouts against outer's source-side layouts.

    Walks the middles in order, so the first error raised does not depend
    on the layouts.  Each new term joins the list of its outer term and of
    its inner term; the composite's ``into[col]`` joins those lists in
    ``outer.into[col]`` order, its ``out_of[row]`` in ``inner.out_of[row]``
    order.
    """
    by_outer: dict[int, list[ZTerm]] = {}
    by_inner: dict[int, list[ZTerm]] = {}
    for idx, _obj, coeff in inner.target.components:
        row_terms, col_terms = inner.terms_into(idx), outer.terms_out_of(idx)
        if explicit and idx in explicit:
            cells = _explicit_cells(base, idx, explicit[idx], row_terms, col_terms)
        else:
            cells = _computed_cells(base, idx, coeff, row_terms, col_terms)
        for it, ot, term in cells:
            by_outer.setdefault(id(ot), []).append(term)
            by_inner.setdefault(id(it), []).append(term)
    return ZMorphism(
        source=inner.source,
        target=outer.target,
        into={
            col: tuple(t for ot in terms for t in by_outer.get(id(ot), ()))
            for col, terms in outer.into.items()
        },
        out_of={
            row: tuple(t for it in terms for t in by_inner.get(id(it), ()))
            for row, terms in inner.out_of.items()
        },
    )


def z_compose(
    base: FinCat,
    outer: ZMorphism,
    inner: ZMorphism,
    explicit: dict[int, RefinementTable] | None = None,
) -> ZMorphism:
    """Composite "outer after inner" through their shared middle object.

    Per middle component the two splittings are refined by interval overlap
    (or by the forced table when either side is a single term, or by a
    supplied explicit table), and each refined mass is carried by the
    composite of its two arrows.  Raises SignIncoherent when a middle mixes
    signs without an explicit table, MarginalMismatch for tables or
    splittings that do not reproduce the marginals, and InputError when the
    middle objects differ.
    """
    if inner.target != outer.source:
        ours, theirs = set(inner.target.components), set(outer.source.components)
        diff = sorted(ours ^ theirs)
        what = f"first difference {diff[0]}" if diff else "same components"
        raise InputError(f"middle mismatch: target(inner) != source(outer); {what}")
    return _couple(base, outer, inner, explicit)


# =====================================================================
# column-free tables: ZMorphisms that skip the column marginal
# =====================================================================


def slice_correspondence(table: ZMorphism, idx: int) -> ZMorphism:
    """Component restriction: keep the rows of one source component."""
    row = table.terms_out_of(idx)
    return ZMorphism(table.source.piece(idx), table.target, into=_group(row, "col"), out_of={idx: row})


# =====================================================================
# bounded hom enumeration
# =====================================================================


def _sign_splits(mass: int, slots: int):
    """All ways to write ``mass`` as an ordered sum of ``slots`` parts that
    are each zero or of mass's sign (zero parts mean the slot is unused)."""
    if slots == 0:
        if mass == 0:
            yield ()
        return
    sgn = _sign(mass)
    for head in range(0, abs(mass) + 1):
        for rest in _sign_splits(sgn * (abs(mass) - head), slots - 1):
            yield (sgn * head,) + rest


def _row_splits(base: FinCat, src: ZObject, tgt: ZObject, same_sign_cols: bool):
    """Each row-strict choice of cells src -> tgt, one split per component.

    A source component's mass is split over its (column, arrow) slots, every
    part zero or of the row's sign; ``same_sign_cols`` keeps only the slots
    whose column has that sign too.  Yields (row, col, coefficient, arrow)
    cell lists; no column marginal is imposed.
    """
    per_component: list[list[tuple[tuple[int, int, int, str], ...]]] = []
    for idx, obj, coeff in src.components:
        slots = [
            (jdx, arrow)
            for jdx, jobj, jcoeff in tgt.components
            if not same_sign_cols or _sign(jcoeff) == _sign(coeff)
            for arrow in base.hom(obj, jobj)
        ]
        choices = [
            tuple(
                (idx, jdx, part, arrow)
                for (jdx, arrow), part in zip(slots, split)
                if part != 0
            )
            for split in _sign_splits(coeff, len(slots))
        ]
        per_component.append(choices)
    for combo in itertools.product(*per_component):
        yield [cell for group in combo for cell in group]


def enumerate_hom(base: FinCat, src: ZObject, tgt: ZObject) -> tuple[ZMorphism, ...]:
    """All sign-coherent morphisms src -> tgt, in a canonical order.

    Finite because sign coherence bounds each cell by its column mass.  The
    hom-set is empty whenever the total masses differ.
    """
    if src.total_mass() != tgt.total_mass():
        return ()
    out = []
    for terms in _row_splits(base, src, tgt, same_sign_cols=True):
        cols: dict[int, int] = {}
        for _r, c, v, _a in terms:
            cols[c] = cols.get(c, 0) + v
        if all(cols.get(jdx, 0) == jcoeff for jdx, _o, jcoeff in tgt.components):
            out.append(z_morphism(src, tgt, terms))
    out.sort(key=lambda m: m.normal_form())
    return tuple(out)


def enumerate_correspondences(base: FinCat, src: ZObject, tgt: ZObject) -> tuple[ZMorphism, ...]:
    """All row-strict column-free tables src -> tgt, in a canonical order."""
    out = [z_morphism(src, tgt, terms) for terms in _row_splits(base, src, tgt, same_sign_cols=False)]
    out.sort(key=lambda m: m.normal_form())
    return tuple(out)
