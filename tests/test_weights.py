import copy
import functools
import hashlib
import itertools
import operator
import pickle
import random
from fractions import Fraction

import pytest

from oracles import (as_pair, det_int, fuzz_text, pair_product, reference_fire,
                     reference_parse_field_elem, reference_presentation, schedler_configuration)
from preproj import weights
from preproj.dynkin import ExtDynkinType, cartan, delta_vector
from preproj.errors import DomainError, InternalInconsistency
from preproj.weights import (FieldElem, MINUS_ONE, ONE, Weight, ZERO, _candidate, _candidate_parts,
                             _check_length, _unscale, apply_reflections,
                             classify_weight, dot_delta,
                             dual_reflection, epsilon0, format_field_elem,
                             format_weight, is_quasi_dominant, numbers_game,
                             parse_field_elem, parse_weight,
                             quasi_dominantize, resolve_to_smooth)
from preproj.typea import presentation

ALL_EXTENDED = ([ExtDynkinType("A", n) for n in range(2, 9)]
                + [ExtDynkinType("D", n) for n in range(4, 9)]
                + [ExtDynkinType("E", n) for n in (6, 7, 8)])


def rand_elem(rng):
    return FieldElem(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                     Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


def reference_order(a, b) -> int:
    """-1, 0 or 1 from the (re, im) tuples, real part first; a plain number
    x is (x, 0)."""
    ka, kb = ((x.re, x.im) if isinstance(x, FieldElem) else (x, 0) for x in (a, b))
    return (ka > kb) - (ka < kb)


def order_of(a, b) -> int:
    """-1, 0 or 1 as the field's own operators give it, each of which must
    agree with the others."""
    lt, eq, gt = a < b, a == b, a > b
    assert (a <= b, a >= b) == (lt or eq, gt or eq) and lt + eq + gt == 1, (a, b)
    return gt - lt


def test_compare_examples():
    assert order_of(FieldElem.of("i"), ZERO) == 1          # imaginary tie-break
    assert order_of(FieldElem(Fraction(1), Fraction(-5)),
                    FieldElem(Fraction(0), Fraction(100))) == 1  # real part wins
    x = rand_elem(random.Random(1))
    assert order_of(x, x) == 0


def test_order_axioms_random():
    rng = random.Random(7)
    for _ in range(500):
        a, b, c = (rand_elem(rng) for _ in range(3))
        assert order_of(a, b) == reference_order(a, b)
        # totality and antisymmetry
        assert (order_of(a, b), order_of(b, a)) in ((0, 0), (1, -1), (-1, 1))
        # translation invariance
        assert order_of(a, b) == order_of(a + c, b + c)
        # agreement with the integers and an integer upper bound
        m, k = rng.randint(-30, 30), rng.randint(-30, 30)
        assert order_of(FieldElem.of(m), FieldElem.of(k)) == (m > k) - (m < k)
        assert a < a.re.numerator // a.re.denominator + 1


def test_parse_format_roundtrip():
    for text in ("0", "-1", "3/2", "1/2+3/4i", "-i", "2-i", "5i"):
        x = parse_field_elem(text)
        assert parse_field_elem(format_field_elem(x)) == x
    with pytest.raises(DomainError):
        parse_field_elem("zebra")


def test_parse_zero_denominator_is_domain_error():
    for text in ("1/0", "1/2+1/0 i", "1/0i", "0/0"):
        with pytest.raises(DomainError, match="zero denominator"):
            parse_field_elem(text)


def test_dual_reflection_a2_example():
    t = ExtDynkinType("A", 2)
    assert dual_reflection(t, epsilon0(t), 0) == Weight.of([-1, 1, 1])


def test_reflection_fixes_zero_coordinate():
    t = ExtDynkinType("D", 5)
    w = Weight.of([3, 1, 0, 2, 1, 4])
    assert dual_reflection(t, w, 2) == w


def test_reflection_is_involution():
    rng = random.Random(3)
    for _ in range(200):
        t = rng.choice(ALL_EXTENDED)
        w = Weight.of([rand_elem(rng) for _ in range(t.n + 1)])
        i = rng.randrange(t.n + 1)
        assert dual_reflection(t, dual_reflection(t, w, i), i) == w


def test_reflection_preserves_dot_delta():
    rng = random.Random(11)
    for _ in range(1000):
        t = rng.choice(ALL_EXTENDED)
        w = Weight.of([rand_elem(rng) for _ in range(t.n + 1)])
        i = rng.randrange(t.n + 1)
        assert dot_delta(t, dual_reflection(t, w, i)) == dot_delta(t, w)


def test_classify_weight_examples():
    t3 = ExtDynkinType("A", 3)
    c = classify_weight(t3, Weight.of([-1, 0, 0, 1]))
    assert (c.commutative, c.quasi_dominant, c.singular) == (True, True, True)
    nc = classify_weight(t3, Weight.of([0, 0, 0, 1]))
    assert (nc.commutative, nc.quasi_dominant, nc.singular) == (False, True, True)
    e = classify_weight(t3, epsilon0(t3))
    assert (e.commutative, e.quasi_dominant, e.singular) == (False, True, True)
    not_qd = classify_weight(t3, Weight.of([0, -1, 0, 0]))
    assert not_qd.singular is None and not_qd.smooth is None


def field_class(t, w):
    """classify_weight's flags by their definition, in FieldElem arithmetic."""
    level = sum((x * di for x, di in zip(w.entries, delta_vector(t))), ZERO)
    qd = all(x >= ZERO for x in w.entries[1:])
    singular = any(x == ZERO for x in w.entries[1:]) if qd else None
    return (level == ZERO, qd, qd and w[0] >= ZERO, singular,
            None if singular is None else not singular)


@pytest.mark.parametrize("t", ALL_EXTENDED, ids=str)
def test_classify_weight_matches_the_field_definition(t):
    """Seeded rational and Gaussian weights, each also moved to level zero
    (w_0 = -sum_{i>=1} delta_i w_i, since delta_0 = 1), made quasi-dominant
    and made nonnegative, so that every flag takes both values."""
    rng = random.Random(f"classify-{t}")
    d = delta_vector(t)
    seen = set()
    for kind in ("rational", "gaussian") * 10:
        w = Weight.of([corpus_entry(rng, kind) if rng.random() < 0.7 else 0
                       for _ in range(t.n + 1)])
        flat = Weight((-sum((x * di for x, di in zip(w.entries[1:], d[1:])), ZERO),)
                      + w.entries[1:])
        for v in (w, flat, quasi_dominantize(t, w)[0], quasi_dominantize(t, flat)[0],
                  Weight.of([x if x >= ZERO else -x for x in w.entries])):
            want = field_class(t, v)
            assert tuple(classify_weight(t, v)) == want, str(v)
            assert is_quasi_dominant(t, v) == want[1]
            seen.add(want)
    assert {flags[0] for flags in seen} == {True, False}
    assert {flags[2] for flags in seen} == {True, False}


def test_quasi_dominantize_examples():
    t = ExtDynkinType("A", 2)
    w, seq = quasi_dominantize(t, Weight.of([1, -1, 1]))
    assert (w, seq) == (Weight.of([0, 1, 0]), [1])
    t4 = ExtDynkinType("D", 4)
    assert quasi_dominantize(t4, epsilon0(t4)) == (epsilon0(t4), [])


def test_quasi_dominantize_replay_property():
    rng = random.Random(23)
    for _ in range(300):
        t = rng.choice(ALL_EXTENDED)
        w = Weight.of([Fraction(rng.randint(-6, 6)) for _ in range(t.n + 1)])
        out, seq = quasi_dominantize(t, w)
        assert is_quasi_dominant(t, out)
        assert all(i != 0 for i in seq)
        assert apply_reflections(t, w, seq) == out


def positive_roots(t):
    return t.n * t.dynkin.coxeter_number // 2


def test_quasi_dominantize_word_is_at_most_the_positive_roots():
    # each firing removes a positive root of the Dynkin part from the
    # inversion set, in the Gaussian lex order too
    rng = random.Random(29)
    for t in ALL_EXTENDED:
        for gaussian in (False, True):
            for _ in range(20):
                entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(t.n + 1)]
                if gaussian:
                    entries = [FieldElem(x, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                               for x in entries]
                w = Weight.of(entries)
                out, seq = quasi_dominantize(t, w)
                assert len(seq) <= positive_roots(t), (t, str(w))
                assert is_quasi_dominant(t, out) and apply_reflections(t, w, seq) == out


def test_quasi_dominantize_bound_is_sharp():
    # from a strictly antidominant weight the game plays the longest element
    for t in ALL_EXTENDED:
        for tail in (-1, FieldElem(0, -1)):
            out, seq = quasi_dominantize(t, Weight.of([0] + [tail] * t.n))
            assert len(seq) == positive_roots(t), t
            assert all(out[i] > ZERO for i in range(1, t.n + 1))


def test_numbers_game_rejects_level_at_most_zero_at_once(monkeypatch):
    def no_firing(*args):
        raise AssertionError("a vertex fired before the level check")

    monkeypatch.setattr("preproj.weights._fire", no_firing)
    t = ExtDynkinType("A", 2)
    for w in ([1, -1, 0], [-1, 0, 0], [0, 0, 0], ["i", "-i", 0], ["-1+5i", 0, 0]):
        with pytest.raises(DomainError, match="positive level"):
            numbers_game(t, Weight.of(w))
    e8 = ExtDynkinType("E", 8)
    # delta_8 = 3, so the level is 2 - 3 = -1
    with pytest.raises(DomainError, match="positive level"):
        numbers_game(e8, Weight.of([2] + [0] * 7 + [-1]))


def test_numbers_game_ends_at_positive_real_level_with_gaussian_weights():
    rng = random.Random(31)
    for t in ALL_EXTENDED:
        d = delta_vector(t)
        for _ in range(6):
            entries = [FieldElem(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(t.n + 1)]
            # set the real part of w_0 so that the real level is 1 or 2
            rest = sum((x.re * di for x, di in zip(entries[1:], d[1:])), 0)
            entries[0] = FieldElem(rng.randint(1, 2) - rest, entries[0].im)
            w = Weight.of(entries)
            assert dot_delta(t, w).re > 0
            out, fired = numbers_game(t, w)
            assert all(x >= ZERO for x in out.entries), (t, str(w))
            assert apply_reflections(t, w, fired) == out
            assert dot_delta(t, out) == dot_delta(t, w)


def test_resolve_to_smooth_a2():
    t = ExtDynkinType("A", 2)
    seq, mu = resolve_to_smooth(t)
    assert seq == [0] and mu == Weight.of([-1, 1, 1])


# (type, word length, sha256 prefix of the comma-joined word, mu) as
# resolve_to_smooth returned them before reflections were made sparse
FROZEN_SMOOTH = [
    ("~A2", 1, "5feceb66ffc86f38", "-1,1,1"),
    ("~A3", 8, "ae2b3c970e108944", "-3,1,2,1"),
    ("~A4", 10, "1726f90140b78b8a", "-3,1,1,1,1"),
    ("~A5", 29, "a3219772466569d1", "-5,1,1,2,1,1"),
    ("~A6", 35, "05a7f1af75c3b1c9", "-5,1,1,1,1,1,1"),
    ("~A7", 72, "d91b1c30600f5053", "-7,1,1,1,2,1,1,1"),
    ("~A8", 84, "93261b23deb77cda", "-7,1,1,1,1,1,1,1,1"),
    ("~D4", 16, "400390a4860794b7", "-4,1,1,1,1"),
    ("~D5", 40, "cf9ea3cac81e9349", "-6,1,1,1,1,1"),
    ("~D6", 104, "952cb558addeb104", "-10,1,1,2,1,1,1"),
    ("~D7", 180, "a38b21c4a2c7ade1", "-12,1,1,1,1,2,1,1"),
    ("~D8", 224, "7f12fbcf5f9bce74", "-12,1,1,1,1,1,1,1,1"),
    ("~E6", 120, "caa76f52fa5bde88", "-10,1,1,1,1,1,1"),
    ("~E7", 385, "ded3bdb3538baaf9", "-18,1,1,1,1,1,1,2"),
    ("~E8", 1120, "6fff482b66c60029", "-28,1,1,1,1,1,1,1,1"),
]


def test_resolve_to_smooth_all_types():
    assert [str(t) for t in ALL_EXTENDED] == [name for name, *_ in FROZEN_SMOOTH]
    for t, (_, length, word_hash, mu_text) in zip(ALL_EXTENDED, FROZEN_SMOOTH):
        seq, mu = resolve_to_smooth(t)
        assert dot_delta(t, mu) == ONE
        assert all(mu[i] > ZERO for i in range(1, t.n + 1))
        assert all(x.im == 0 and x.re.denominator == 1 for x in mu.entries)
        assert apply_reflections(t, epsilon0(t), seq) == mu
        joined = ",".join(map(str, seq)).encode()
        assert (len(seq), hashlib.sha256(joined).hexdigest()[:16], format_weight(mu)) == (
            length, word_hash, mu_text), t


CLASS_TYPES = ([ExtDynkinType("A", n) for n in range(2, 13)]
               + [ExtDynkinType("D", n) for n in range(4, 13)]
               + [ExtDynkinType("E", n) for n in (6, 7, 8)])


def test_class_rows_are_det_c_times_c_inverse():
    # C row_j = det(C) e_j for every vertex j >= 1 with delta_j = 1
    for t in CLASS_TYPES:
        c = cartan(t).cartan
        det, rows = weights._class_rows(t)
        assert det == det_int(c), t
        specials = [j for j in range(1, t.n + 1) if cartan(t).delta[j] == 1]
        assert len(rows) == len(specials), t
        for j, row in zip(specials, rows):
            image = [sum(a * x for a, x in zip(r, row)) for r in c]
            assert image == [det if i == j else 0 for i in range(1, t.n + 1)], (t, j)


def test_class_test_agrees_with_the_game():
    # the first 40 candidates of each type, 876 in all: the game ends at
    # eps_0 exactly for the candidates in eps_0's class
    checked = reached = 0
    for t in CLASS_TYPES:
        eps = epsilon0(t)
        for parts in itertools.islice(_candidate_parts(t.n), 40):
            mu = _candidate(delta_vector(t), parts)
            in_class = weights._in_eps0_class(t, parts)
            assert in_class == (numbers_game(t, mu)[0] == eps), (t, str(mu))
            checked += 1
            reached += in_class
    assert (checked, reached) == (876, 241)


def test_resolve_to_smooth_plays_one_game(monkeypatch):
    # only the first candidate in eps_0's class plays, and its word is still
    # replayed through dual_reflection
    games, reflections = [], []
    game, reflect = weights.numbers_game, weights.dual_reflection
    monkeypatch.setattr(weights, "numbers_game",
                        lambda t, w: games.append(str(w)) or game(t, w))
    monkeypatch.setattr(weights, "dual_reflection",
                        lambda t, w, i: reflections.append(i) or reflect(t, w, i))
    for t in ALL_EXTENDED + [ExtDynkinType("A", 31)]:
        games.clear()
        reflections.clear()
        seq, mu = resolve_to_smooth(t)
        assert games == [format_weight(mu)], t
        assert reflections == seq, t


def test_a_game_in_eps0_class_that_misses_eps0_is_an_inconsistency(monkeypatch):
    t = ExtDynkinType("D", 5)
    monkeypatch.setattr(weights, "numbers_game", lambda t, w: (w, []))
    with pytest.raises(InternalInconsistency, match="in eps_0's class, ended at -6,1,1,1,1,1"):
        resolve_to_smooth(t)


def test_all_two_configuration_ends_at_eps0():
    # resolve_to_smooth's loop ends: the all-2 configuration is one of its
    # candidates, and its numbers game reaches eps_0 on every type
    for t in ALL_EXTENDED:
        d = delta_vector(t)
        all_two = Weight.of([1 - 2 * sum(d[1:])] + [2] * t.n)
        assert (2,) * t.n in _candidate_parts(t.n), t
        assert _candidate(d, (2,) * t.n) == all_two, t
        terminal, fired = numbers_game(t, all_two)
        assert terminal == epsilon0(t), t
        assert apply_reflections(t, all_two, fired) == terminal


def test_schedler_configuration_values():
    t = ExtDynkinType("A", 4)
    assert schedler_configuration(t) == Weight.of([-3, 1, 1, 1, 1])
    t6 = ExtDynkinType("E", 6)
    d = delta_vector(t6)
    assert schedler_configuration(t6)[0] == FieldElem.of(1 - sum(d[1:]))


def test_schedler_reachability():
    # numbers game from the special configuration ends at eps_0 for these
    for fam, n in [("A", 2), ("A", 4), ("A", 6), ("D", 4), ("D", 5),
                   ("D", 8), ("E", 6), ("E", 8)]:
        t = ExtDynkinType(fam, n)
        terminal, fired = numbers_game(t, schedler_configuration(t))
        assert terminal == epsilon0(t), t
        assert apply_reflections(t, schedler_configuration(t), fired) == terminal


def test_weight_parse_errors():
    # parsing takes any length; every consumer applies the one length rule
    with pytest.raises(DomainError, match="^weight has 3 entries but ~A4 has 5 vertices$"):
        _check_length(ExtDynkinType("A", 4), parse_weight("1,2,3"))
    assert format_weight(parse_weight("1,-1/2,0,1/2+1/3i")) == "1,-1/2,0,1/2+1/3i"


@pytest.mark.parametrize("call", [
    lambda t, w: classify_weight(t, w), lambda t, w: quasi_dominantize(t, w),
    lambda t, w: numbers_game(t, w), lambda t, w: dual_reflection(t, w, 1),
    lambda t, w: is_quasi_dominant(t, w), lambda t, w: presentation(t.n, w)],
    ids=["classify_weight", "quasi_dominantize", "numbers_game", "dual_reflection",
         "is_quasi_dominant", "presentation"])
def test_a_weight_that_is_not_a_weight_is_rejected(call):
    # the one length rule is also the one rule for what a weight is
    t = ExtDynkinType("A", 4)
    for entries in ([1] * 5, (ONE,) * 5, "1,1,1,1,1"):
        with pytest.raises(DomainError, match="weight must be a Weight"):
            call(t, entries)
    call(t, Weight.of([1] * 5))


def test_field_elem_arithmetic_matches_pair_formula():
    rng = random.Random(5)
    for _ in range(300):
        k = rng.randint(-9, 9)
        q = FieldElem(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        g = rand_elem(rng)
        kk = (Fraction(k), Fraction(0))
        for x in (q, g):
            a = as_pair(x)
            assert as_pair(x * k) == as_pair(k * x) == pair_product(a, kk)
            assert as_pair(x * Fraction(k, 7)) == pair_product(a, (Fraction(k, 7), Fraction(0)))
            assert as_pair(x + k) == as_pair(k + x) == (a[0] + k, a[1])
            assert as_pair(x - k) == (a[0] - k, a[1])
            assert as_pair(k - x) == (k - a[0], -a[1])
            for y in (q, g):
                b = as_pair(y)
                assert as_pair(x * y) == as_pair(y * x) == pair_product(a, b)
                assert as_pair(x + y) == as_pair(y + x) == (a[0] + b[0], a[1] + b[1])
                assert as_pair(x - y) == (a[0] - b[0], a[1] - b[1])


def pair_quotient(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return pair_product(a, (b[0] / norm, -b[1] / norm))


def assert_canonical(x):
    """Each part is an int exactly when its denominator is 1, never a float."""
    for part in (x.re, x.im):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (Fraction(part).denominator == 1)


def test_field_elem_parts_are_canonical():
    rng = random.Random(9)
    scalars = [0, 1, -3, 4, Fraction(6, 3), Fraction(-1, 2), Fraction(3, 4)]
    elems = [ZERO, ONE, -ONE, ZERO - ONE, FieldElem(0, 1), FieldElem(0, -1),
             FieldElem.of(-2), FieldElem.of(Fraction(1, 2)),
             FieldElem(2, -3), FieldElem(Fraction(1, 2), 3), FieldElem(0, Fraction(-1, 3)),
             # built directly with integral Fraction parts, which the constructor makes int
             FieldElem(Fraction(4), Fraction(0)), FieldElem(Fraction(4), Fraction(2)),
             FieldElem(Fraction(-1), Fraction(0)), FieldElem(Fraction(0), Fraction(0))]
    elems += [rand_elem(rng) for _ in range(4)]
    for x in scalars:
        assert_canonical(FieldElem.of(x))
    for x in elems:
        assert_canonical(x)
        a = as_pair(x)
        for y in scalars + elems:
            b = as_pair(FieldElem.of(y))
            for got, want in ((x + y, (a[0] + b[0], a[1] + b[1])),
                              (y + x, (a[0] + b[0], a[1] + b[1])),
                              (x - y, (a[0] - b[0], a[1] - b[1])),
                              (y - x, (b[0] - a[0], b[1] - a[1])),
                              (x * y, pair_product(a, b)), (y * x, pair_product(a, b))):
                assert_canonical(got)
                assert as_pair(got) == want
            if any(b):
                got = x / y
                assert_canonical(got)
                assert as_pair(got) == pair_quotient(a, b)
            if any(a) and isinstance(y, FieldElem):
                got = y / x
                assert_canonical(got)
                assert as_pair(got) == pair_quotient(b, a)


def test_field_elem_is_immutable_and_checks_its_parts():
    x = FieldElem(Fraction(4), Fraction(0))
    assert (type(x.re), type(x.im)) == (int, int) and x == FieldElem(4)
    for attr in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, attr, 5)
    with pytest.raises(AttributeError):
        del x.re
    assert x == FieldElem(4)
    y = FieldElem(Fraction(-1, 2), 3)
    for z in (copy.deepcopy(y), pickle.loads(pickle.dumps(y))):
        assert z == y and hash(z) == hash(y) and z is not y
    # a factor of one or a zero term gives back the operand, which immutability makes safe
    assert ONE * y is y and y * ONE is y and ZERO + y is y and y + ZERO is y and y - ZERO is y
    for bad in (0.5, "1", None):
        with pytest.raises(DomainError):
            FieldElem(bad)
        with pytest.raises(DomainError):
            FieldElem(1, bad)


def test_negatives_of_one_are_the_shared_constants():
    # a product by -1 or a negation whose result is 1 or -1 builds nothing
    assert MINUS_ONE == FieldElem(-1) and type(MINUS_ONE.re) is int
    assert -ONE is MINUS_ONE and -MINUS_ONE is ONE
    assert -FieldElem(1) is MINUS_ONE and -FieldElem(Fraction(-2, 2)) is ONE
    for x, want in ((ONE, MINUS_ONE), (FieldElem(1), MINUS_ONE),
                    (MINUS_ONE, ONE), (FieldElem(-1), ONE)):
        assert x * MINUS_ONE is want and MINUS_ONE * x is want
        assert x * FieldElem(-1) is want and x * -1 is want and -1 * x is want
    # every other negative keeps its value and canonical parts
    for x in (ZERO, FieldElem(2), FieldElem(Fraction(1, 2)), FieldElem(0, 1),
              FieldElem(1, 1), FieldElem(-1, Fraction(1, 3)), FieldElem(Fraction(-3, 2), -1)):
        want = (-as_pair(x)[0], -as_pair(x)[1])
        for got in (-x, x * -1, -1 * x, x * MINUS_ONE, MINUS_ONE * x):
            assert_canonical(got)
            assert as_pair(got) == want


def test_field_elem_integral_parts_compare_and_hash_alike():
    assert ZERO.re == 0 and type(ZERO.re) is int and type(ONE.re) is int
    assert FieldElem(Fraction(3)) == FieldElem(3)
    assert hash(FieldElem(Fraction(3))) == hash(FieldElem(3))
    assert hash(FieldElem(Fraction(3), Fraction(-2))) == hash(FieldElem(3, -2))
    half = ONE / FieldElem(2)
    assert half == FieldElem(Fraction(1, 2)) and str(half) == "1/2"
    assert type(half.re) is Fraction and type(half.im) is int
    assert type((half + half).re) is int


def test_equal_field_elems_hash_alike_and_strings_are_not_elems():
    rng = random.Random(61)
    pool = []
    for _ in range(80):
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else 0
        x = FieldElem(re, im)
        # the plain number a rational element equals, as an int where integral
        pool += [x] if im else [x, re, re.numerator if re.denominator == 1 else re]
    equal = 0
    for a in pool:
        for b in pool:
            if a == b:
                assert b == a and hash(a) == hash(b), (a, b)
                equal += isinstance(a, FieldElem) != isinstance(b, FieldElem)
    assert equal > 100
    assert 1 in {ONE} and len({ONE, 1, Fraction(1)}) == 1
    for x in pool:
        if isinstance(x, FieldElem):
            assert x != str(x) and not x == str(x) and str(x) not in {x}
    assert ONE != "1" and FieldElem(0, 1) != "i" and FieldElem(0, 1) != 1


def test_order_takes_the_numbers_equality_takes_and_nothing_else():
    rng = random.Random(67)
    pool = []
    for _ in range(60):
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if rng.random() < 0.4 else 0
        pool.append(FieldElem(re, im))
    # the plain numbers a rational element stands for, as int and Fraction
    numbers = [n for x in pool if not x.im
               for n in (x.re, Fraction(x.re), x.re.numerator // x.re.denominator)]
    assert len(numbers) > 60
    ops = (("<", lambda a, b: a < b, lambda c: c < 0),
           ("<=", lambda a, b: a <= b, lambda c: c <= 0),
           (">", lambda a, b: a > b, lambda c: c > 0),
           (">=", lambda a, b: a >= b, lambda c: c >= 0))
    for a in pool:
        for b in pool + numbers:
            c = reference_order(a, b)
            assert reference_order(a, FieldElem.of(b)) == c
            for name, op, want in ops:
                assert op(a, b) == want(c), (name, a, b)
                assert op(b, a) == want(-c), (name, b, a)
        for other in (str(a), "1", 0.5, float(a.re), None):
            for name, op, _ in ops:
                with pytest.raises(TypeError):
                    op(a, other)
                with pytest.raises(TypeError):
                    op(other, a)
    assert not ONE == "1" and ONE != "1"


def test_every_operator_takes_field_elems_ints_and_fractions_and_nothing_else():
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "==": operator.eq, "<": operator.lt}
    elems = (ONE, MINUS_ONE, ZERO, FieldElem(Fraction(-3, 2), 2), FieldElem(0, Fraction(1, 3)))
    for a in elems:
        for b in (2, -1, 0, True, False, Fraction(1, 2), Fraction(-4, 2)):
            for name, op in ops.items():
                for x, y in ((a, b), (b, a)):
                    if name == "/" and not y:
                        continue
                    got, want = op(x, y), op(FieldElem.of(x), FieldElem.of(y))
                    assert got == want and type(got) is type(want), (x, name, y)
                    if isinstance(got, FieldElem):
                        assert_canonical(got)
        # text enters through FieldElem.of; an operator takes no text, float or None
        for bad in ("1", "2i", str(a), 0.5, 2.0, float(a.re), None):
            for name, op in ops.items():
                if name == "==":
                    assert not op(a, bad) and not op(bad, a)
                    continue
                with pytest.raises(TypeError):
                    op(a, bad)
                with pytest.raises(TypeError):
                    op(bad, a)
    assert not ONE == "1" and ONE != "1"


def test_parse_gives_canonical_parts():
    for text in ("6/3", "4/2+6/3i", "-2/4 i", "3", "i", "-i", "0/5", "1/2-8/4i"):
        x = parse_field_elem(text)
        assert_canonical(x)
        assert parse_field_elem(format_field_elem(x)) == x


def test_parse_whitespace_inside_imaginary_part():
    assert parse_field_elem("1 +\t7i") == FieldElem(1, 7)
    assert parse_field_elem("-\t i") == FieldElem(0, -1)


def bench_shaped_entry(rng):
    """A seeded entry shaped like those of the weights benchmark: 0 (about a
    third), a small integer or a/b, plus a nonzero c/d i in one of four."""
    def fraction():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    roll = rng.random()
    if roll < 0.35:
        return "0"
    re_part = Fraction(rng.randint(-3, 3)) if roll < 0.75 else fraction()
    if rng.random() < 0.75:
        return str(re_part)
    im_part = fraction()
    return f"{re_part}{'+' if im_part > 0 else '-'}{abs(im_part)}i"


def parse_outcome(parse, text):
    """The value and part types parse gives text, or its DomainError text."""
    try:
        x = parse(text)
    except DomainError as e:
        return "DomainError", str(e)
    return x.re, type(x.re), x.im, type(x.im)


PARSE_EDGE_CASES = ("0/5", "-0", "007/014", "+i", "-3/4i", "1 +\t7i", "-\t i", "2/4+6/8i")


def test_parse_field_elem_matches_the_reference():
    rng = random.Random(43)
    texts = ([bench_shaped_entry(rng) for _ in range(20000)]
             + [fuzz_text(rng) for _ in range(10000)] + list(PARSE_EDGE_CASES))
    kinds = set()
    for text in texts:
        got = parse_outcome(parse_field_elem, text)
        assert got == parse_outcome(reference_parse_field_elem, text), text
        kinds.add(got[1] if got[0] == "DomainError" else (got[1], got[3]))
    # both error kinds and every combination of part types were compared
    assert {(int, int), (int, Fraction), (Fraction, int), (Fraction, Fraction)} <= kinds
    assert {e.partition(" field element ")[0] for e in kinds if isinstance(e, str)} == {
        "cannot parse", "zero denominator in"}


def test_unscale_parts_are_canonical():
    cases = [((0, 0, 3), (0, 0)), ((6, 0, 3), (2, 0)), ((0, 5, 10), (0, Fraction(1, 2))),
             ((-4, 6, 2), (-2, 3)), ((1, -2, 4), (Fraction(1, 4), Fraction(-1, 2))),
             ((3, 7, 1), (3, 7)), ((-9, 0, 6), (Fraction(-3, 2), 0))]
    for (re_part, im_part, d), want in cases:
        x = _unscale(re_part, im_part, d)
        assert (x.re, x.im) == want
        assert_canonical(x)


def test_parse_field_elem_fuzz():
    rng = random.Random(41)
    parsed = 0
    for _ in range(3000):
        text = fuzz_text(rng)
        try:
            x = parse_field_elem(text)
        except DomainError:
            continue
        parsed += 1
        assert_canonical(x)
        assert parse_field_elem(format_field_elem(x)) == x, text
    assert parsed > 100


def test_parse_weight_fuzz():
    rng = random.Random(42)
    parsed = 0
    for _ in range(1000):
        text = ",".join(fuzz_text(rng) if rng.random() < 0.3 else rng.choice(("0", "-1", "2/4", "i"))
                        for _ in range(rng.randint(1, 4)))
        try:
            w = parse_weight(text)
        except DomainError:
            continue
        parsed += 1
        for x in w.entries:
            assert_canonical(x)
        assert parse_weight(format_weight(w)) == w, text
    assert parsed > 200


def dense_reflection(cext, w, i):
    """(r_i w)_j = w_j - C~_ij w_i over every j, on (re, im) pairs."""
    wi = w[i]
    return [(w[j][0] - cext[i][j] * wi[0], w[j][1] - cext[i][j] * wi[1])
            for j in range(len(w))]


@pytest.mark.parametrize("t", ALL_EXTENDED, ids=str)
def test_dual_reflection_matches_dense_formula(t):
    cext = cartan(t).cartan_ext
    rng = random.Random(f"reflect-{t}")
    for k in range(12):
        if k % 2:
            w = Weight.of([rand_elem(rng) for _ in range(t.n + 1)])
        else:
            w = Weight.of([Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                           for _ in range(t.n + 1)])
        for i in range(t.n + 1):
            got = dual_reflection(t, w, i)
            assert [as_pair(x) for x in got.entries] == dense_reflection(
                cext, [as_pair(x) for x in w.entries], i)



# coprime denominators up to 10^9+7: their lcm makes D*w entries of ~120 bits
LARGE_DENOMINATORS = (999999937, 10**9 + 7, 10**9 + 9, 2**31 - 1)
CORPUS_KINDS = ("integral", "rational", "large", "gaussian", "gaussian-large")


def corpus_entry(rng, kind):
    if kind == "integral":
        return Fraction(rng.randint(-6, 6))
    if kind.endswith("large"):
        q = rng.choice(LARGE_DENOMINATORS)
        part = lambda: Fraction(rng.randint(-3 * q, 3 * q), q)
    else:
        part = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return FieldElem(part(), part()) if kind.startswith("gaussian") else part()


def corpus_weights(t):
    """Two seeded weights of each kind, then the strictly antidominant ones,
    which play the longest word of the Dynkin part."""
    rng = random.Random(f"lattice-{t}")
    for kind in CORPUS_KINDS:
        for _ in range(2):
            yield rng, Weight.of([corpus_entry(rng, kind) for _ in range(t.n + 1)])
    for tail in (-1, FieldElem(0, -1), Fraction(-1, 10**9 + 7)):
        yield rng, Weight.of([0] + [tail] * t.n)


def at_positive_level(rng, t, w):
    """w with the real part of w_0 set so that the real level is 1, 2, 1/2 or 7/3."""
    d = delta_vector(t)
    rest = sum((x.re * di for x, di in zip(w.entries[1:], d[1:])), 0)
    level = rng.choice((1, 2, Fraction(1, 2), Fraction(7, 3)))
    return Weight((FieldElem(level - rest, w[0].im),) + w.entries[1:])


@functools.cache
def corpus_rows(t):
    """(w, quasi_dominantize(w), game weight, numbers_game of it, and on ~A
    the presentation at both weights) for each corpus weight of t."""
    rows = []
    for rng, w in corpus_weights(t):
        g = at_positive_level(rng, t, w)
        pres = ((presentation(t.n, w), presentation(t.n, g)) if t.family == "A" else ())
        rows.append((w, quasi_dominantize(t, w), g, numbers_game(t, g), pres))
    return rows


@pytest.mark.parametrize("t", ALL_EXTENDED, ids=str)
def test_lattice_game_and_presentation_match_the_field_references(t):
    for w, qd, g, game, pres in corpus_rows(t):
        assert qd == reference_fire(t, w, range(1, t.n + 1)), str(w)
        assert game == reference_fire(t, g, range(t.n + 1)), str(g)
        for x in qd[0].entries + game[0].entries:
            assert_canonical(x)
        for p, start in zip(pres, (w, g)):
            assert (p.shift, p.xy, p.yx) == reference_presentation(t, start), str(start)
            for x in (p.shift,) + p.xy + p.yx:
                assert_canonical(x)


def test_lattice_game_without_a_firing_returns_its_weight():
    t = ExtDynkinType("E", 6)
    w = Weight.of([Fraction(-1, 3)] + [Fraction(1, 10**9 + 7)] * 6)
    assert quasi_dominantize(t, w) == (w, []) and quasi_dominantize(t, w)[0] is w


def corpus_text():
    lines = []
    for t in ALL_EXTENDED:
        for w, (qd, word), g, (end, fired), pres in corpus_rows(t):
            lines.append(";".join([str(t), str(w), str(qd), str(word), str(g), str(end),
                                   str(fired)] + [f"{p.shift}|{p.xy}|{p.yx}" for p in pres]))
    return "\n".join(lines)


# sha256 of corpus_text() as the field-arithmetic firing loop and presentation
# gave it, before both moved to the integer lattice
FROZEN_LATTICE_CORPUS = "0485740707548210d6f75722d28b1937a4b17d857e7b8bcf71363b9154b6652d"


def test_lattice_corpus_output_is_frozen():
    assert hashlib.sha256(corpus_text().encode()).hexdigest() == FROZEN_LATTICE_CORPUS
