"""Weights on extended Dynkin quivers: ordered-field arithmetic, dual
reflections, quasi-dominance, and the numbers game used to find smooth
deformations.  Quasi-dominance and the numbers game share one firing loop,
which ends by theorem (finite type, or positive level), so neither has a
step cap.

A dual reflection is integral, so the firing loop plays on the lattice
D*w, where D is the common denominator of every part of w (``_lattice``):
it fires on (re, im) int pairs and divides by D once at the end.  Scaling
by D > 0 keeps the lex order, so the firing word is the one the field
arithmetic gives.
"""
from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .dynkin import (_DIGITS, ExtDynkinType, Frozen, _require_extended, build_extended, cartan,
                     delta_vector)
from .errors import DomainError, InternalInconsistency


def _canon(x: int | Fraction) -> int | Fraction:
    """An exact rational in canonical form: an int when it is integral."""
    return x if x.__class__ is int else (x.numerator if x.denominator == 1 else x)


def _exact(x) -> int | Fraction:
    """A part given to the public constructor, checked and canonical."""
    if not isinstance(x, (int, Fraction)):
        raise DomainError(f"a field element part must be an exact rational, not {x!r}")
    return _canon(x)


@functools.total_ordering
class FieldElem(Frozen):
    """An immutable element a + b*i with exact rational a, b.

    Each part is an int when it is integral and a Fraction otherwise, so
    arithmetic on integral elements never builds a Fraction.  The public
    constructor checks that each part is an exact rational and brings it to
    that form; arithmetic builds its already canonical results with the
    trusted ``_make``, and returns an operand, or its negative, for a zero
    term of a sum or a factor of 1 or -1; a negative that is 1 or -1 is the
    shared ``ONE`` or ``MINUS_ONE``.  Every operator takes a field element,
    int or Fraction (``_operand``); text enters only through ``of``.  The
    total order is lexicographic on (re, im): it extends the order on the
    rationals, is translation invariant, and every element is below some
    integer, which is all the theory needs from it.
    """

    __slots__ = _args = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        self._set(re=re if re.__class__ is int else _exact(re),
                  im=im if im.__class__ is int else _exact(im))

    @staticmethod
    def of(x) -> "FieldElem":
        o = x if x.__class__ is FieldElem else _operand(x)
        if o is not None:
            return o
        if isinstance(x, str):
            return parse_field_elem(x)
        raise DomainError(f"cannot coerce {x!r} to a field element")

    def __add__(self, other) -> "FieldElem":
        if other.__class__ is FieldElem:
            o = other
        elif (o := _operand(other)) is None:
            return NotImplemented
        if not (o.re or o.im):
            return self
        if not (self.re or self.im):
            return o
        if not self.im and not o.im:
            return _make(_canon(self.re + o.re))
        return _make(_canon(self.re + o.re), _canon(self.im + o.im))

    __radd__ = __add__

    def __neg__(self) -> "FieldElem":
        return _negative(self.re, self.im)

    def __sub__(self, other) -> "FieldElem":
        o = _operand(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other) -> "FieldElem":
        o = _operand(other)
        return NotImplemented if o is None else o + -self

    def __mul__(self, other) -> "FieldElem":
        if other.__class__ is not FieldElem:
            if isinstance(other, int):
                if other == 1:
                    return self
                if other == -1:
                    return _negative(self.re, self.im)
                return _make(_canon(self.re * other), _canon(self.im * other))
            if (other := _operand(other)) is None:
                return NotImplemented
        sr, si, o_r, oi = self.re, self.im, other.re, other.im
        if not oi:
            if o_r == 1:
                return self
            if o_r == -1:
                return _negative(sr, si)
        if not si:
            if sr == 1:
                return other
            if sr == -1:
                return _negative(o_r, oi)
            if not oi:
                return _make(_canon(sr * o_r))
        return _make(_canon(sr * o_r - si * oi), _canon(sr * oi + si * o_r))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElem":
        if other.__class__ is FieldElem:
            o = other
        elif (o := _operand(other)) is None:
            return NotImplemented
        # Fraction(p, q), never p / q: int operands must not give a float
        if not o.im:
            if not o.re:
                raise ZeroDivisionError("division by zero field element")
            return self * _make(_canon(Fraction(1, o.re)))
        norm = o.re * o.re + o.im * o.im
        return self * _make(_canon(Fraction(o.re, norm)), _canon(Fraction(-o.im, norm)))

    def __rtruediv__(self, other) -> "FieldElem":
        o = _operand(other)
        return NotImplemented if o is None else o / self

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldElem and (other := _operand(other)) is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # a rational element equals its real part, so it hashes as that
        return hash((self.re, self.im) if self.im else self.re)

    def _key(self) -> tuple[int | Fraction, int | Fraction]:
        return (self.re, self.im)

    def __lt__(self, other) -> bool:
        o = other if other.__class__ is FieldElem else _operand(other)
        return NotImplemented if o is None else self._key() < o._key()

    def __str__(self) -> str:
        return format_field_elem(self)

    def __repr__(self) -> str:
        return f"FieldElem({str(self)!r})"


_set_re, _set_im = FieldElem.re.__set__, FieldElem.im.__set__


def _operand(x) -> FieldElem | None:
    """x as a field element when it is one, an int (a bool included) or a
    Fraction; None for anything else, which every operator answers with
    NotImplemented, so that Python raises TypeError."""
    if isinstance(x, FieldElem):
        return x
    return _make(_canon(x)) if isinstance(x, (int, Fraction)) else None


def _make(re: int | Fraction, im: int | Fraction = 0) -> FieldElem:
    """The trusted constructor: both parts must already be canonical."""
    x = object.__new__(FieldElem)
    _set_re(x, re)
    _set_im(x, im)
    return x


def _negative(re: int | Fraction, im: int | Fraction) -> FieldElem:
    """-(re + im*i) for canonical parts; a result of 1 or -1 is the shared
    ONE or MINUS_ONE."""
    if not im and (re == 1 or re == -1):
        return ONE if re == -1 else MINUS_ONE
    return _make(-re, -im)


ZERO = FieldElem()
ONE = FieldElem(1)
MINUS_ONE = FieldElem(-1)

_UNSIGNED = rf"{_DIGITS}(?:/{_DIGITS})?"
_ELEM_RE = re.compile(
    rf"^\s*(?:(?P<re>[+-]?{_UNSIGNED})(?:\s*(?P<im1>[+-]\s*(?:{_UNSIGNED})?)\s*i)?"
    rf"|(?P<im2>[+-]?(?:{_UNSIGNED})?)\s*i)\s*$")


def parse_field_elem(text: str) -> FieldElem:
    """Parse "a", "a/b", "a/b+c/d i", or a pure imaginary like "-i"."""
    m = _ELEM_RE.match(text)
    if not m:
        raise DomainError(f"cannot parse field element {text!r}")
    try:
        return _field_elem_of(m)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in field element {text!r}") from None


def _field_elem_of(m: re.Match) -> FieldElem:
    if m.group("im2") is not None:
        im = re.sub(r"\s", "", m.group("im2"))
        if im in ("", "+"):
            im = "1"
        elif im == "-":
            im = "-1"
        return _make(0, _canon(Fraction(im)))
    re_part = _canon(Fraction(m.group("re")))
    im_part = 0
    if m.group("im1") is not None:
        s = re.sub(r"\s", "", m.group("im1"))
        if s in ("+", "-"):
            s += "1"
        im_part = _canon(Fraction(s))
    return _make(re_part, im_part)


def format_field_elem(x: FieldElem) -> str:
    if x.im == 0:
        return str(x.re)
    im = f"{abs(x.im)}i" if abs(x.im) != 1 else "i"
    sign = "+" if x.im > 0 else "-"
    if x.re == 0:
        return f"{'-' if x.im < 0 else ''}{im}"
    return f"{x.re}{sign}{im}"


class Weight(Frozen):
    """An immutable label from the field at each vertex 0..n.

    The public constructor checks that the entries are a tuple of field
    elements; ``of`` coerces any values, and the weights the program
    computes are built with the trusted ``_weight``."""

    __slots__ = _args = ("entries",)

    def __init__(self, entries: tuple[FieldElem, ...]):
        if entries.__class__ is not tuple or any(x.__class__ is not FieldElem for x in entries):
            raise DomainError(f"weight entries must be a tuple of field elements, not {entries!r}")
        self._set(entries=entries)

    @staticmethod
    def of(values) -> "Weight":
        return _weight(tuple(FieldElem.of(v) for v in values))

    def __getitem__(self, i: int) -> FieldElem:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return format_weight(self)


_set_entries = Weight.entries.__set__


def _weight(entries: tuple[FieldElem, ...]) -> Weight:
    """The trusted constructor: entries must be a tuple of field elements."""
    w = object.__new__(Weight)
    _set_entries(w, entries)
    return w


def parse_weight(text: str) -> Weight:
    return Weight.of([parse_field_elem(p) for p in text.split(",")])


def format_weight(w: Weight) -> str:
    return ",".join(format_field_elem(x) for x in w.entries)


def _check_length(t: ExtDynkinType, w: Weight) -> None:
    _require_extended(t)
    if w.__class__ is not Weight:
        raise DomainError(f"weight must be a Weight, not {w!r}")
    if len(w) != t.n + 1:
        raise DomainError(f"weight has {len(w)} entries but {t} has {t.n + 1} vertices")


def epsilon0(t: ExtDynkinType) -> Weight:
    return Weight.of([1] + [0] * _require_extended(t).n)


def dot_delta(t: ExtDynkinType, w: Weight) -> FieldElem:
    _check_length(t, w)
    total = ZERO
    for x, di in zip(w.entries, cartan(t).delta):
        total = total + x * di
    return total


def is_quasi_dominant(t: ExtDynkinType, w: Weight) -> bool:
    _check_length(t, w)
    return all(x._key() >= (0, 0) for x in w.entries[1:])


def dual_reflection(t: ExtDynkinType, w: Weight, i: int) -> Weight:
    """r_i(w)_j = w_j - C~_{ij} w_i; preserves w . delta and the lattice.

    Every edge of a supported type is simple (C~_ij is -1 for a neighbour
    j), so w_i is negated, w_i is added to each neighbour, and every other
    entry is kept as it is.
    """
    _check_length(t, w)
    if not 0 <= i <= t.n:
        raise DomainError(f"vertex {i} out of range for {t}")
    entries = list(w.entries)
    wi = entries[i]
    entries[i] = -wi
    for j in build_extended(t).neighbours(i):
        entries[j] = entries[j] + wi
    return _weight(tuple(entries))


def apply_reflections(t: ExtDynkinType, w: Weight, seq: list[int]) -> Weight:
    for i in seq:
        w = dual_reflection(t, w, i)
    return w


class WeightClass(NamedTuple):
    """Classification flags for O^lambda; singular/smooth require
    quasi-dominance and are None otherwise."""

    commutative: bool
    quasi_dominant: bool
    dominant: bool
    singular: bool | None
    smooth: bool | None


def classify_weight(t: ExtDynkinType, w: Weight) -> WeightClass:
    qd = is_quasi_dominant(t, w)
    dom = qd and w[0]._key() >= (0, 0)
    commutative = not dot_delta(t, w)
    singular = smooth = None
    if qd:
        singular = any(not w[i] for i in range(1, t.n + 1))
        smooth = not singular
    return WeightClass(commutative, qd, dom, singular, smooth)


# the largest entry of a configuration resolve_to_smooth tries
CANDIDATE_MAX_ENTRY = 3


def _lattice(w: Weight) -> tuple[int, list[tuple[int, int]]]:
    """The common denominator D > 0 of every re and im part of w, and D*w
    as (re, im) int pairs.  Dual reflections keep D*w integral, and D > 0
    keeps the lex order on (re, im)."""
    entries = w.entries
    d = math.lcm(*(x.re.denominator for x in entries), *(x.im.denominator for x in entries))
    return d, [(x.re.numerator * (d // x.re.denominator), x.im.numerator * (d // x.im.denominator))
               for x in entries]


def _unscale(re: int, im: int, d: int) -> FieldElem:
    """(re + im*i) / d for ints re, im and d > 0, in canonical form."""
    if d == 1:
        return _make(re, im)
    return _make(_canon(Fraction(re, d)), _canon(Fraction(im, d)))


def _fire(t: ExtDynkinType, w: Weight, vertices: range) -> tuple[Weight, list[int]]:
    """The numbers game on the given vertices: fire the smallest entry while
    it is negative; ``min`` keeps the first of equal entries, so ties go to
    the smallest index.  Returns the terminal weight and the firing
    sequence.  Each caller admits only games that end, so there is no step
    cap.

    The game plays on the int pairs of D*w (``_lattice``): a firing at i
    negates entry i and adds it to each neighbour, exactly as
    ``dual_reflection`` does, and since D > 0 every comparison, and so the
    word, is the one on w.  The terminal weight is divided by D once."""
    d, keys = _lattice(w)
    start = keys.copy()
    nbrs = build_extended(t).adjacency()
    key = keys.__getitem__
    fired: list[int] = []
    while True:
        i = min(vertices, key=key)
        if keys[i] >= (0, 0):
            break
        a, b = keys[i]
        keys[i] = (-a, -b)
        for j in nbrs[i]:
            c, e = keys[j]
            keys[j] = (c + a, e + b)
        fired.append(i)
    if not fired:
        return w, fired
    # an entry the game left as it was keeps its object, so the result holds
    # no more new elements than the game changed
    return _weight(tuple(x if k == k0 else _unscale(*k, d)
                         for x, k, k0 in zip(w.entries, keys, start))), fired


def quasi_dominantize(t: ExtDynkinType, w: Weight) -> tuple[Weight, list[int]]:
    """Reflect at non-extending vertices until the weight is quasi-dominant.

    Plays the finite-type numbers game on vertices 1..n.  Each firing
    removes one positive root of the Dynkin part from the inversion set, in
    any ordered Q-vector space (the Gaussian lex order included), so the
    word has at most n*h/2 letters.
    """
    _check_length(t, w)
    return _fire(t, w, range(1, t.n + 1))


def numbers_game(t: ExtDynkinType, w: Weight) -> tuple[Weight, list[int]]:
    """Fire negative vertices (any index, most negative first) until none
    remain.  Returns the terminal weight and the firing sequence.

    The weight must have positive level, Re(w . delta) > 0.  Then the real
    parts play a legal real game at positive level, which ends (Mozes;
    Eriksson's strong convergence), and a vertex with real part 0 fires
    only after that, on a proper and hence finite-type subdiagram.
    """
    level = dot_delta(t, w)
    if not level.re > 0:
        raise DomainError(f"the numbers game needs a weight of positive level, not {level}")
    return _fire(t, w, range(t.n + 1))


def _candidate_positives(t: ExtDynkinType):
    """Integer weights with all non-extending entries positive, on the
    level-1 hyperplane, ordered by total size.  The only one of total n is
    all ones there, the Schedler configuration, so it comes first."""
    n = t.n
    d = delta_vector(t)
    for total in range(n, CANDIDATE_MAX_ENTRY * n + 1):
        for comp in _compositions(total, n):
            yield Weight.of([1 - sum(c * d[i + 1] for i, c in enumerate(comp))] + list(comp))


def _compositions(total: int, parts: int):
    if parts == 1:
        if 1 <= total <= CANDIDATE_MAX_ENTRY:
            yield (total,)
        return
    for first in range(1, CANDIDATE_MAX_ENTRY + 1):
        rest = total - first
        if parts - 1 <= rest <= (parts - 1) * CANDIDATE_MAX_ENTRY:
            for tail in _compositions(rest, parts - 1):
                yield (first,) + tail


def resolve_to_smooth(t: ExtDynkinType) -> tuple[list[int], Weight]:
    """A reflection sequence rho with rho(eps_0)_i > 0 for all i >= 1.

    Plays the numbers game from small all-positive integer configurations
    mu on the level-1 hyperplane, in the order of ``_candidate_positives``;
    when the game ends at eps_0 the reversed firing sequence is the wanted
    rho.  At positive level every game ends, and the all-2 configuration
    (1 - 2 sum_{i>=1} delta_i, 2, ..., 2) is a candidate whose game ends at
    eps_0, so the loop always returns.
    """
    eps = epsilon0(t)
    for mu in _candidate_positives(t):
        terminal, fired = numbers_game(t, mu)
        if terminal == eps:
            seq = list(reversed(fired))
            if apply_reflections(t, eps, seq) != mu:
                raise InternalInconsistency("replay of the numbers game missed its start")
            return seq, mu
    raise InternalInconsistency(f"no candidate for {t}, the all-2 one included, reached eps_0")
