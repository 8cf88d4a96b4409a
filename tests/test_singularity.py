import random
from fractions import Fraction

import pytest

from oracles import (figure1_dynkin_edges, is_involution, positive_roots, preserves,
                     root_descriptor)
from preproj.dynkin import ExtDynkinType, build_dynkin, build_extended
from preproj.errors import DomainError
from preproj.singularity import (descriptor, equivalent, q_lambda_decompose,
                                 translation_permutation)
from preproj.weights import FieldElem, Weight, epsilon0, is_quasi_dominant, quasi_dominantize

ALL_EXTENDED = ([ExtDynkinType("A", n) for n in range(2, 9)]
                + [ExtDynkinType("D", n) for n in range(4, 9)]
                + [ExtDynkinType("E", n) for n in (6, 7, 8)])


def test_a5_worked_example():
    t = ExtDynkinType("A", 5)
    d = q_lambda_decompose(t, Weight.of([0, 0, 1, 0, 0, 0]))
    assert d.i_lambda == (1, 3, 4, 5)
    assert [(str(dt), vs) for dt, vs, _ in d.components] == [
        ("A1", (1,)), ("A3", (3, 4, 5))]
    pi = translation_permutation(d).permutation.as_dict()
    assert pi == {1: 1, 3: 5, 4: 4, 5: 3}


def test_eps0_keeps_whole_dynkin_part():
    t = ExtDynkinType("E", 7)
    d = q_lambda_decompose(t, epsilon0(t))
    assert [str(dt) for dt, _, _ in d.components] == ["E7"]
    assert translation_permutation(d).permutation.as_dict() == {
        i: i for i in range(1, 8)}


def test_e6_eps0_translation():
    t = ExtDynkinType("E", 6)
    d = q_lambda_decompose(t, epsilon0(t))
    assert translation_permutation(d).permutation.as_dict() == {
        1: 1, 2: 6, 3: 5, 4: 4, 5: 3, 6: 2}


def test_d6_derived_example():
    t = ExtDynkinType("D", 6)
    d = q_lambda_decompose(t, Weight.of([7, 0, 0, 0, 1, 0, 0]))
    assert [(str(dt), vs) for dt, vs, _ in d.components] == [
        ("A3", (1, 2, 3)), ("A1", (5,)), ("A1", (6,))]


def test_d4_component_translation_is_identity():
    t = ExtDynkinType("E", 6)
    d = q_lambda_decompose(t, Weight.of([1, 0, 1, 0, 0, 0, 1]))
    assert descriptor(d).types == ("D4",)
    pi = translation_permutation(d).permutation.as_dict()
    assert pi == {1: 1, 3: 3, 4: 4, 5: 5}


def test_rejects_non_quasi_dominant():
    t = ExtDynkinType("A", 3)
    with pytest.raises(DomainError):
        q_lambda_decompose(t, Weight.of([0, -1, 0, 0]))


def test_descriptor_equivalence_example():
    t = ExtDynkinType("A", 3)
    d1 = q_lambda_decompose(t, Weight.of([-1, 0, 0, 1]))
    d2 = q_lambda_decompose(t, Weight.of([0, 0, 0, 1]))
    assert descriptor(d1).types == descriptor(d2).types == ("A2",)
    assert equivalent(d1, d2)


def test_descriptor_inequivalence():
    t = ExtDynkinType("A", 3)
    one_a2 = q_lambda_decompose(t, Weight.of([0, 0, 0, 1]))
    two_a1 = q_lambda_decompose(t, Weight.of([0, 0, 1, 0]))
    assert descriptor(two_a1).types == ("A1", "A1")
    assert not equivalent(one_a2, two_a1)


def test_smooth_vs_most_singular_not_equivalent():
    t = ExtDynkinType("E", 8)
    smooth = q_lambda_decompose(t, Weight.of([0] + [1] * 8))
    assert descriptor(smooth).types == ()
    assert not equivalent(smooth, q_lambda_decompose(t, epsilon0(t)))


def random_quasi_dominant(rng, t):
    entries = [Fraction(rng.randint(-5, 5))]
    for _ in range(t.n):
        entries.append(Fraction(0) if rng.random() < 0.5
                       else Fraction(rng.randint(1, 4), rng.randint(1, 2)))
    return Weight.of(entries)


def test_translation_properties_random():
    rng = random.Random(101)
    for _ in range(300):
        t = rng.choice(ALL_EXTENDED)
        w = random_quasi_dominant(rng, t)
        d = q_lambda_decompose(t, w)
        pi = translation_permutation(d).permutation
        m = pi.as_dict()
        assert sorted(m) == list(d.i_lambda)
        assert is_involution(pi)
        q = build_extended(t)
        adj = {v: tuple(x for x in q.neighbours(v) if x in m) for v in m}
        assert preserves(pi, adj)
        for _, verts, _ in d.components:
            assert {m[v] for v in verts} == set(verts)
        assert sum(len(vs) for _, vs, _ in d.components) == len(d.i_lambda)


def test_equivalence_relation_properties():
    rng = random.Random(55)
    decs = []
    for _ in range(40):
        t = rng.choice(ALL_EXTENDED)
        decs.append(q_lambda_decompose(t, random_quasi_dominant(rng, t)))
    for a in decs:
        assert equivalent(a, a)
    for a in decs[:15]:
        for b in decs[:15]:
            assert equivalent(a, b) == equivalent(b, a)
            for c in decs[:15]:
                if equivalent(a, b) and equivalent(b, c):
                    assert equivalent(a, c)


@pytest.mark.parametrize("t", ALL_EXTENDED, ids=str)
def test_oracle_figure1_diagram_is_the_dynkin_quiver(t):
    edges = figure1_dynkin_edges(t.family, t.n)
    adjacency = {v: tuple(sorted({j for i, j in edges if i == v} | {i for i, j in edges if j == v}))
                 for v in range(1, t.n + 1)}
    assert adjacency == build_dynkin(t.dynkin).adjacency()


def test_descriptor_is_the_root_system_orthogonal_to_the_weight():
    # Phi_lambda, the positive roots orthogonal to lambda, is read off the
    # weight as given; quasi_dominantize's Weyl group element carries it to
    # the root system of the subgraph on I_lambda, so the types agree
    rng = random.Random(1013)
    sizes = {"A": lambda n: n * (n + 1) // 2, "D": lambda n: n * (n - 1),
             "E": {6: 36, 7: 63, 8: 120}.get}
    not_quasi_dominant, seen = 0, set()
    for t in ALL_EXTENDED:
        roots = positive_roots(t.n, figure1_dynkin_edges(t.family, t.n))
        assert len(roots) == sizes[t.family](t.n)
        for k in range(40):
            gaussian = k % 4 == 0
            entries = [0 if rng.random() < 0.5
                       else FieldElem(rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0)
                       for _ in range(t.n + 1)]
            w = Weight.of(entries)
            not_quasi_dominant += not is_quasi_dominant(t, w)
            types = root_descriptor(t, w, roots)
            assert types == descriptor(q_lambda_decompose(t, quasi_dominantize(t, w)[0])).types, \
                (t, w)
            seen.add(types)
    assert not_quasi_dominant > 400 and len(seen) > 30
