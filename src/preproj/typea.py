"""Type ~A specifics: the generators-and-relations presentation of the
corner algebra and the interior family of short exact sequences with the
type-A translation rule.
"""
from __future__ import annotations

from typing import NamedTuple

from .dynkin import ExtDynkinType
from .errors import DomainError
from .weights import FieldElem, Weight, ZERO, _check_length, _lattice, _unscale


class TypeAPresentation(NamedTuple):
    """Relations of the corner algebra of ~A_n:

        xz = (z + shift) x,   yz = (z - shift) y,
        xy = prod_{i=0}^{n} (z + lam_1 + ... + lam_i),
        yx = xy evaluated at z - shift,

    with shift = lam . delta; polynomial coefficients ascend in degree.
    """

    n: int
    shift: FieldElem
    xy: tuple[FieldElem, ...]
    yx: tuple[FieldElem, ...]


def presentation(n: int, w: Weight) -> TypeAPresentation:
    """The relations at weight w, computed at the integral weight D*w.

    D is the common denominator of w's parts (``weights._lattice``), so
    the polynomials are multiplied out on the (re, im) int pairs of D*w.  A
    monic polynomial of degree n + 1 whose roots are scaled by D has its z^k
    coefficient scaled by D^(n+1-k); dividing by that, and the shift by D,
    gives the relations at w.
    """
    _check_length(ExtDynkinType("A", n), w)
    d, pairs = _lattice(w)
    # every entry of delta is 1 for ~A_n, so D*shift is the sum of the pairs
    sr, si = sum(a for a, _ in pairs), sum(b for _, b in pairs)
    xy = yx = [(1, 0)]
    pr = pi = 0
    for a, b in [(0, 0)] + pairs[1:]:
        pr, pi = pr + a, pi + b
        xy = _times_root(xy, pr, pi)
        yx = _times_root(yx, pr - sr, pi - si)
    return TypeAPresentation(n, _unscale(sr, si, d),
                             tuple(_unscale(a, b, d ** (n + 1 - k)) for k, (a, b) in enumerate(xy)),
                             tuple(_unscale(a, b, d ** (n + 1 - k)) for k, (a, b) in enumerate(yx)))


def _times_root(poly: list[tuple[int, int]], cr: int, ci: int) -> list[tuple[int, int]]:
    """poly * (z + c), coefficients ascending in degree, on (re, im) int pairs."""
    return [(a * cr - b * ci + e, a * ci + b * cr + f)
            for (a, b), (e, f) in zip(poly + [(0, 0)], [(0, 0)] + poly)]


class TypeASequence(NamedTuple):
    """0 -> V_k -> V_i (+) V_j -> V_{i+j-k} -> 0 with V_{n+1} read as V_0."""

    n: int
    i: int
    j: int
    kernel: int
    cokernel: int

    @property
    def middle(self) -> tuple[int, int]:
        n1 = self.n + 1
        return (self.i % n1, self.j % n1)


def type_a_sequence(n: int, w: Weight, i: int, j: int, k: int) -> TypeASequence:
    """The interior member of the sequence family: requires i < k < j and
    vanishing weights strictly between i and j."""
    t = ExtDynkinType("A", n)
    _check_length(t, w)
    if not (0 <= i < j <= n + 1):
        raise DomainError(f"need 0 <= i < j <= n+1, got i={i}, j={j}")
    if not (i < k < j):
        raise DomainError(f"need i < k < j, got k={k}")
    for m in range(i + 1, j):
        if w[m] != ZERO:
            raise DomainError(f"weight at interior vertex {m} must vanish, got {w[m]}")
    return TypeASequence(n, i, j, k, i + j - k)
