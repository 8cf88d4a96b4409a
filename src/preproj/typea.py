"""Type ~A specifics: the generators-and-relations presentation of the
corner algebra and the interior family of short exact sequences with the
type-A translation rule.
"""
from __future__ import annotations

from typing import NamedTuple

from .dynkin import ExtDynkinType
from .errors import DomainError
from .weights import (FieldElem, ONE, Weight, ZERO, _check_length, _lattice, _unscale,
                      _weight, dot_delta)


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
    every product below multiplies int parts.  A monic polynomial of degree
    n + 1 whose roots are scaled by D has its z^k coefficient scaled by
    D^(n+1-k); dividing by that, and the shift by D, gives the relations at w.
    """
    t = ExtDynkinType("A", n)
    _check_length(t, w)
    d, pairs = _lattice(w)
    scaled = _weight(tuple(FieldElem(a, b) for a, b in pairs))
    shift = dot_delta(t, scaled)
    xy: list[FieldElem] = [ONE]
    yx: list[FieldElem] = [ONE]
    partial = ZERO
    for i in range(n + 1):
        partial = partial + scaled[i] if i >= 1 else partial
        # times the monic factors z + partial and z + partial - shift, in one pass each
        low = partial - shift
        xy = [x * partial + y for x, y in zip(xy + [ZERO], [ZERO] + xy)]
        yx = [x * low + y for x, y in zip(yx + [ZERO], [ZERO] + yx)]
    scale = [d ** (n + 1 - k) for k in range(n + 2)]
    return TypeAPresentation(n, _unscale(shift.re, shift.im, d),
                             tuple(_unscale(c.re, c.im, q) for c, q in zip(xy, scale)),
                             tuple(_unscale(c.re, c.im, q) for c, q in zip(yx, scale)))


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
