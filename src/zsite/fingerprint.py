"""Graded dimension fingerprints of formal sums.

A fingerprint is a finite sequence of nonnegative dimensions by degree,
normalized by stripping trailing zeros; tensoring is convolution (Poincare
polynomial multiplication).  Formal sums compare componentwise: same index
sets, same coefficients, and equal fingerprints per component.  The
coefficient stays bookkeeping data; it is never folded into the dimensions,
because a scalar multiple of a graded invariant has no single sensible
meaning here, so requests to evaluate one are refused loudly.
"""

from __future__ import annotations

from .fincat import InputError
from .records import Value
from .zlin import ZObject


class GradedDims(Value):
    """Dimension per degree, trailing zeros stripped; () is the zero object."""

    def __init__(self, dims: tuple[int, ...]):
        if any(d < 0 for d in dims):
            raise InputError(f"negative dimension in {dims}")
        if dims and dims[-1] == 0:
            raise InputError(f"unnormalized dims {dims}; use graded_dims()")
        vars(self).update(dims=dims)

    def top_degree(self) -> int:
        return len(self.dims) - 1

    def total(self) -> int:
        return sum(self.dims)


def graded_dims(values) -> GradedDims:
    dims = [int(v) for v in values]
    while dims and dims[-1] == 0:
        dims.pop()
    return GradedDims(dims=tuple(dims))


UNIT = graded_dims((1,))


def tensor_dims(a: GradedDims, b: GradedDims) -> GradedDims:
    """Convolution: the degree-n dimension of a tensor of graded objects."""
    if not a.dims or not b.dims:
        return graded_dims(())
    out = [0] * (len(a.dims) + len(b.dims) - 1)
    for p, x in enumerate(a.dims):
        for q, y in enumerate(b.dims):
            out[p + q] += x * y
    return graded_dims(out)


class ZInvariant(Value):
    """Per-component (coefficient, fingerprint) data of a formal sum."""

    def __init__(self, parts: tuple[tuple[int, int, GradedDims], ...]):
        vars(self).update(parts=parts)

    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _c, _d in self.parts)


def invariant_of(obj: ZObject, table: dict[str, GradedDims]) -> ZInvariant:
    """Look up each component's fingerprint; coefficients ride along as tags."""
    parts = []
    for idx, base_obj, coeff in obj.components:
        if base_obj not in table:
            raise InputError(f"no fingerprint for base object {base_obj}")
        parts.append((idx, coeff, table[base_obj]))
    return ZInvariant(parts=tuple(parts))


def z_equiv(left: ZObject, right: ZObject, table: dict[str, GradedDims]) -> bool:
    """Same index set, same coefficient per index, equal fingerprints per index."""
    return invariant_of(left, table) == invariant_of(right, table)


def positive_fold(inv: ZInvariant) -> GradedDims:
    """Tensor the fingerprints of the positive-coefficient parts, one factor each.

    The dimension-level shadow of comparing products: equivalent sums have
    equal folds because their parts already match one by one.
    """
    out = UNIT
    for _idx, coeff, dims in inv.parts:
        if coeff > 0:
            out = tensor_dims(out, dims)
    return out
