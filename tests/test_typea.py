import random
from fractions import Fraction

import pytest

from oracles import poly_shift
from preproj.dynkin import DynkinType, nakayama
from preproj.errors import DomainError
from preproj.typea import presentation, type_a_sequence
from preproj.weights import FieldElem, Weight, ZERO


def coeffs(*vals):
    return tuple(FieldElem.of(v) for v in vals)


def test_presentation_commutative_example():
    p = presentation(3, Weight.of([-1, 0, 0, 1]))
    assert p.shift == ZERO
    assert p.xy == coeffs(0, 0, 0, 1, 1)          # z^3 (z + 1)
    assert p.yx == p.xy


def test_presentation_noncommutative_example():
    p = presentation(3, Weight.of([0, 0, 0, 1]))
    assert p.shift == FieldElem.of(1)             # xz = (z+1) x
    assert p.xy == coeffs(0, 0, 0, 1, 1)
    assert p.yx == coeffs(0, -1, 3, -3, 1)        # z (z-1)^3


def test_presentation_kleinian_normal_form():
    for n in range(2, 7):
        p = presentation(n, Weight.of([0] * (n + 1)))
        assert p.shift == ZERO
        assert p.xy == p.yx == coeffs(*([0] * (n + 1) + [1]))  # z^(n+1)


def test_yx_is_shifted_xy_random():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.randint(2, 8)
        w = Weight.of([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(n + 1)])
        p = presentation(n, w)
        assert p.yx == poly_shift(p.xy, -p.shift)
        assert len(p.xy) == n + 2


def test_sequence_example_interior():
    # ~A5 with the only nonzero inner weight at vertex 2
    w = Weight.of([5, 0, 1, 0, 0, 0])
    s = type_a_sequence(5, w, 2, 6, 3)
    assert (s.kernel, s.cokernel) == (3, 5)
    assert s.middle == (2, 0)                     # V_6 read as V_0


def test_sequence_midpoint_fixed():
    w = Weight.of([0, 1, 0, 1, 0])
    s = type_a_sequence(4, w, 1, 3, 2)
    assert s.kernel == s.cokernel == 2


def test_sequence_a3_example():
    w = Weight.of([0, 0, 0, 1])
    s = type_a_sequence(3, w, 0, 3, 1)
    assert (s.kernel, s.middle, s.cokernel) == (1, (0, 3), 2)


def test_sequence_preconditions():
    w = Weight.of([0, 0, 1, 0, 0, 0])
    with pytest.raises(DomainError):
        type_a_sequence(5, w, 1, 4, 2)            # lambda_2 != 0 inside
    with pytest.raises(DomainError):
        type_a_sequence(5, w, 3, 3, 3)            # i < j violated
    with pytest.raises(DomainError):
        type_a_sequence(5, w, 2, 6, 6)            # k not interior


def test_translation_matches_nakayama_on_component():
    # k -> i+j-k is the Nakayama involution of A_{j-i-1} moved to
    # the vertex window {i+1, ..., j-1}
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(2, 8)
        i = rng.randint(0, n - 1)
        j = rng.randint(i + 2, n + 1)
        w = Weight.of([1 if (m <= i or m >= j) else 0 for m in range(n + 1)])
        comp = list(range(i + 1, j))
        nak = nakayama(DynkinType("A", len(comp))).as_dict()
        for k in comp:
            s = type_a_sequence(n, w, i, j, k)
            transported = comp[nak[comp.index(k) + 1] - 1]
            assert s.cokernel == transported
