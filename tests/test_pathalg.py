import copy
import hashlib
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (as_pair, brute_filtered_member, brute_graded_dims, brute_graded_member,
                     brute_product, brute_scale, element_pairs, oracle_relations, pair_product,
                     parse_element, paths_by_degree, rank_of_rows, unit, walk)
from preproj import pathalg
from preproj.dynkin import (DynkinType, ExtDynkinType, VertexPermutation, build_dynkin,
                            build_extended, nakayama)
from preproj.errors import DomainError, InternalInconsistency
from preproj.fixtures import (H_E, MAP_FIXTURES, dim_pi_total,
                              dim_vertex_module, erdmann_a_entry)
from preproj.pathalg import (MembershipCertificate,
                             Path, PathElement, check_certificate, format_element,
                             graded_dims_pi, hom_matrix, ideal_member,
                             model_for, multiply, parse_path,
                             relation_set, trivial_path,
                             verify_zero_product)
from preproj.weights import FieldElem, ONE, Weight, ZERO, epsilon0

ALL_EXTENDED = ([ExtDynkinType("A", n) for n in range(2, 9)]
                + [ExtDynkinType("D", n) for n in range(4, 9)]
                + [ExtDynkinType("E", n) for n in (6, 7, 8)])


def elem(t, text):
    return parse_element(build_extended(t), text)


# -- paths as keys -------------------------------------------------------------

def test_paths_built_separately_are_one_key():
    q = build_extended(ExtDynkinType("D", 5))
    ra1 = q.arrow("~a1")
    walks = [parse_path(q, "a0.~a1.a1"), Path(0, (q.arrow("a0"), ra1, q.arrow("a1"))),
             trivial_path(0).then(q.arrow("a0")).then(ra1).then(q.arrow("a1")),
             parse_path(q, "a0").concat(parse_path(q, "~a1.a1")),
             # arrows rebuilt by value rather than taken from the quiver
             Path(0, tuple(a.reversed_arrow().reversed_arrow()
                           for a in parse_path(q, "a0.~a1.a1").arrows))]
    table = {walks[0]: 1}
    for p in walks:
        assert p == walks[0] and hash(p) == hash(walks[0])
        table[p] = table.get(p, 0) + 1
    assert table == {walks[0]: 1 + len(walks)}


def test_joins_are_checked_and_stored_endpoints_match_a_walk():
    for t in (ExtDynkinType("A", 2), ExtDynkinType("D", 5), ExtDynkinType("E", 6)):
        q = build_extended(t)
        paths = [p for ps in paths_by_degree(q, 3).values() for p in ps]
        for p in paths:
            assert (p.target, len(p)) == walk(p.source, p.arrows)
            fresh = Path(p.source, p.arrows)
            assert fresh == p and hash(fresh) == hash(p) and fresh.target == p.target
            for a in q.arrows:
                if a.tail == p.target:
                    assert (p.then(a).target, len(p.then(a))) == walk(p.source, p.arrows + (a,))
                else:
                    with pytest.raises(DomainError):
                        p.then(a)
                    with pytest.raises(DomainError):
                        Path(p.source, p.arrows + (a,))
        for p in paths[::7]:
            for r in paths:
                if r.source != p.target:
                    with pytest.raises(DomainError):
                        p.concat(r)
                    continue
                pr = p.concat(r)
                assert (pr.target, len(pr)) == walk(p.source, p.arrows + r.arrows)
                assert pr == Path(p.source, p.arrows + r.arrows)
                assert hash(pr) == hash(Path(p.source, p.arrows + r.arrows))
        with pytest.raises(AttributeError):
            paths[0].target = 5
        p = paths[-1]
        assert pickle.loads(pickle.dumps(p)) == p and hash(copy.deepcopy(p)) == hash(p)


def test_reversed_arrow_twice_is_the_arrow():
    for t in ALL_EXTENDED:
        for a in build_extended(t).arrows:
            back = a.reversed_arrow().reversed_arrow()
            assert back is not a and back == a and hash(back) == hash(a)
            assert a.reversed_arrow() != a


def test_paths_of_different_types_with_shared_names_differ():
    seen: dict[str, list] = {}
    for t in ALL_EXTENDED:
        for a in build_extended(t).arrows:
            seen.setdefault(a.name, []).append(a)
    pairs = 0
    for arrows in seen.values():
        for a in arrows:
            for b in arrows:
                if (a.tail, a.head) == (b.tail, b.head):
                    continue
                pairs += 1
                pa, pb = Path(a.tail, (a,)), Path(b.tail, (b,))
                assert a != b and pa != pb
                assert len({pa: 0, pb: 1}) == 2
    assert pairs > 0


# -- multiplication ----------------------------------------------------------

def test_unit_multiplication():
    t = ExtDynkinType("A", 2)
    q = build_extended(t)
    a0 = PathElement.of_path(parse_path(q, "a0"))
    assert multiply(unit(0), a0) == a0
    assert multiply(a0, unit(1)) == a0


def test_non_composable_product_is_zero():
    t = ExtDynkinType("A", 2)
    q = build_extended(t)
    a0 = PathElement.of_path(parse_path(q, "a0"))  # 0 -> 1
    a2 = PathElement.of_path(parse_path(q, "a2"))  # 2 -> 0
    assert not multiply(a0, a2)


def test_free_concatenation_before_reduction():
    t = ExtDynkinType("A", 2)
    q = build_extended(t)
    loop = PathElement.of_path(parse_path(q, "a0.~a0"))
    sq = multiply(loop, loop)
    assert list(sq.terms) == [parse_path(q, "a0.~a0.a0.~a0")]


def test_multiply_associative_random():
    rng = random.Random(5)
    t = ExtDynkinType("D", 4)
    q = build_extended(t)
    paths = paths_by_degree(q, 3)
    pool = [p for d in range(4) for p in paths[d]]

    def rand_elem():
        src = rng.choice(q.vertices)
        cands = [p for p in pool if p.source == src]
        tgts = {p.target for p in cands}
        tgt = rng.choice(sorted(tgts))
        picks = [p for p in cands if p.target == tgt]
        return PathElement({p: rng.choice([1, -1, 2]) for p in
                            rng.sample(picks, min(2, len(picks)))})

    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        ab = multiply(a, b)
        if ab:
            assert ab.degree <= a.degree + b.degree


def test_multiply_and_scale_match_brute_force_expansion():
    """Products and multiples built by the trusted constructor equal the
    term-by-term expansion over (re, im) pairs, keep no zero coefficient
    and share one source and one target, as the public constructor checks."""
    rng = random.Random(12)
    coefs = [ONE, -ONE, FieldElem(2), FieldElem(Fraction(-1, 3)), FieldElem(0, 1),
             FieldElem(Fraction(1, 2), -1)]
    for t in (ExtDynkinType("A", 3), ExtDynkinType("D", 4)):
        q = build_extended(t)
        pool = [p for ps in paths_by_degree(q, 3).values() for p in ps]

        def rand_elem(src, tgt):
            picks = [p for p in pool if p.source == src and p.target == tgt]
            return PathElement({p: rng.choice(coefs)
                                for p in rng.sample(picks, min(rng.randint(1, 3), len(picks)))})

        for _ in range(300):
            u, v, w = (rng.choice(q.vertices) for _ in range(3))
            a = rand_elem(u, v)
            b = rand_elem(v if rng.random() < 0.8 else w, w)
            c = rng.choice(coefs + [ZERO])
            for got, want in ((multiply(a, b), brute_product(a, b)),
                              (a.scale(c), brute_scale(a, c))):
                assert element_pairs(got) == want
                assert all(got.terms.values())
                assert len({(p.source, walk(p.source, p.arrows)[0]) for p in got.terms}) <= 1
                assert PathElement(dict(got.terms)) == got
    # (e + L)(x L.r - x r) with L a loop: the two products L.r cancel
    q = build_extended(ExtDynkinType("A", 3))
    e, loop, r = trivial_path(0), parse_path(q, "a0.~a0"), parse_path(q, "a0")
    x = FieldElem(Fraction(1, 2), -1)
    a, b = PathElement({e: ONE, loop: ONE}), PathElement({loop.concat(r): x, r: -x})
    got = multiply(a, b)
    assert element_pairs(got) == brute_product(a, b)
    assert list(got.terms) == [r, loop.concat(loop).concat(r)]


def test_element_format_roundtrip():
    t = ExtDynkinType("D", 5)
    q = build_extended(t)
    x = elem(t, "1 * a0.~a1 : 0->1  +  -3/2 * a0.~a2.a5.~a5.a2.~a1 : 0->1")
    assert parse_element(q, format_element(x)) == x
    assert parse_element(q, "0") == PathElement()


def test_mixed_endpoints_rejected():
    t = ExtDynkinType("A", 2)
    q = build_extended(t)
    with pytest.raises(DomainError):
        PathElement({parse_path(q, "a0"): 1, parse_path(q, "a1"): 1})
    # one shared endpoint is not enough: a0: 0->1, ~a2: 0->2, ~a0: 1->0, a2: 2->0
    for mixed in (("a0", "~a2"), ("~a0", "a2")):
        with pytest.raises(DomainError):
            PathElement({parse_path(q, name): ONE for name in mixed})
        with pytest.raises(DomainError):
            PathElement.sum(PathElement.of_path(parse_path(q, name)) for name in mixed)


def test_constructor_coerces_coefficients_like_of_path():
    q = build_extended(ExtDynkinType("A", 2))
    p = parse_path(q, "a0.~a0")
    for coef, want in (("1", 1), (True, 1), (Fraction(1, 2), "1/2"), ("1+i", "1+i")):
        x = PathElement({p: coef})
        assert x == PathElement.of_path(p, want)
        assert all(c.__class__ is FieldElem for c in x.terms.values())
    assert str(PathElement({p: True})) == "1 * a0.~a0 : 0->0"
    # a zero is dropped after coercion, so the string "0" is dropped too
    for zero in (0, "0", "0/5", False, ZERO):
        assert PathElement({p: zero}).terms == {}
    for bad in (0.5, [1], None):
        with pytest.raises(DomainError):
            PathElement({p: bad})


def test_path_elements_have_no_hash():
    # the terms of an element are a mutable dict, so nothing may key on them
    for x in (PathElement(), PathElement.of_path(trivial_path(0), "1/2")):
        with pytest.raises(TypeError):
            hash(x)


def test_sum_keeps_the_terms_of_repeated_addition_in_order():
    q = build_extended(ExtDynkinType("D", 4))
    p1, p2, p3 = (parse_path(q, f"~a{k}.a{k}") for k in (0, 1, 3))  # loops at 2
    x = PathElement({p1: 1, p2: 1})
    y = PathElement({p1: -1, p3: 1})
    z = PathElement({p1: 2})
    # p1 cancels in x + y, so its later term comes last
    total = PathElement.sum([x, y, z])
    assert list(total.terms.items()) == [(p2, 1), (p3, 1), (p1, 2)]
    assert list((x + y + z).terms.items()) == list(total.terms.items())
    assert x - x == PathElement() == PathElement.sum([])
    assert (x + y) - y == x

    def pairwise(parts):
        out = {}
        for part in parts:
            for p, c in part.terms.items():
                out[p] = out.get(p, 0) + c
            out = {p: c for p, c in out.items() if c}
        return out

    rng = random.Random(11)
    pool = [parse_path(q, f"~a{k}.a{k}") for k in (0, 1, 3, 4)] + [trivial_path(2)]
    for _ in range(200):
        parts = [PathElement({p: rng.choice([1, -1, 2, -2])
                              for p in rng.sample(pool, rng.randint(1, 3))})
                 for _ in range(rng.randint(0, 5))]
        assert list(PathElement.sum(iter(parts)).terms.items()) == list(pairwise(parts).items())
        if pairwise(parts):
            with pytest.raises(DomainError):
                PathElement.sum(parts + [PathElement.of_path(parse_path(q, "a0"))])


# -- graded dimensions -------------------------------------------------------

def test_graded_dims_against_brute_force():
    for t in (DynkinType("A", 2), DynkinType("A", 3), DynkinType("D", 4)):
        dims, _ = graded_dims_pi(t)
        padded = list(dims) + [0] * (7 - len(dims))
        assert padded[:7] == brute_graded_dims(build_dynkin(t), 6)


def test_dim_totals_small():
    assert graded_dims_pi(DynkinType("A", 2))[1] == 4
    assert graded_dims_pi(DynkinType("D", 4))[1] == 28
    assert graded_dims_pi(DynkinType("E", 6))[1] == 156


def test_top_degree_is_coxeter_minus_two():
    for t in (DynkinType("A", 4), DynkinType("D", 5), DynkinType("E", 6)):
        dims, _ = graded_dims_pi(t)
        h = t.coxeter_number
        assert len(dims) == h - 1      # degrees 0 .. h-2
        assert dims[h - 2] > 0


def test_hom_matrix_a3():
    assert hom_matrix(DynkinType("A", 3)) == ((1, 1, 1), (1, 2, 1), (1, 1, 1))


def test_hom_matrix_erdmann_for_a_types():
    for n in range(1, 9):
        h = hom_matrix(DynkinType("A", n))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert h[i - 1][j - 1] == erdmann_a_entry(n, i, j)


def test_hom_matrix_d4_rows():
    h = hom_matrix(DynkinType("D", 4))
    assert [sum(r) for r in h] == [6, 10, 6, 6]
    assert graded_dims_pi(DynkinType("D", 4))[1] == 28


def test_hom_matrix_d_row_description():
    # row i <= n-2: (2, 4, ..., 2(i-1), 2i, ..., 2i, i, i);
    # rows n-1, n: (1, 2, ..., n-2, k, l) with k + l = n - 1
    for n in range(4, 9):
        h = hom_matrix(DynkinType("D", n))
        for i in range(1, n - 1):
            row = ([2 * j for j in range(1, i)]
                   + [2 * i] * (n - i - 1) + [i, i])
            assert list(h[i - 1]) == row, (n, i)
        for i in (n - 1, n):
            assert list(h[i - 1][: n - 2]) == list(range(1, n - 1))
            assert h[i - 1][n - 2] + h[i - 1][n - 1] == n - 1


def test_hom_matrix_e6_printed():
    assert hom_matrix(DynkinType("E", 6)) == H_E[6]
    assert H_E[6][3] == (6, 4, 8, 12, 8, 4)


def test_hom_symmetry_and_nakayama_invariance():
    types = ([DynkinType("A", n) for n in range(1, 7)]
             + [DynkinType("D", n) for n in (4, 5, 6)]
             + [DynkinType("E", 6), DynkinType("E", 7)])
    for t in types:
        h = hom_matrix(t)
        nak = nakayama(t).as_dict()
        n = t.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert h[i - 1][j - 1] == h[j - 1][i - 1]
                assert h[i - 1][j - 1] == h[nak[i] - 1][nak[j] - 1]
        assert sum(sum(r) for r in h) == dim_pi_total(t)
        for i in range(1, n + 1):
            assert sum(h[i - 1]) == dim_vertex_module(t, i)


# -- ideal membership --------------------------------------------------------

def test_relation_is_its_own_certificate():
    t = ExtDynkinType("D", 4)
    rels = relation_set(build_extended(t), dict(enumerate(Weight.of([0] * 5).entries)))
    res = ideal_member(t, Weight.of([0] * 5), rels[2])
    assert isinstance(res, MembershipCertificate)
    assert list(res.terms) == [(1, trivial_path(2), 2, trivial_path(2))]


def test_firstses_membership_with_certificate():
    t = ExtDynkinType("D", 4)
    w0 = Weight.of([0] * 5)
    f = elem(t, "1 * a4.~a0.a0.~a3 : 4->3  +  1 * a4.~a1.a1.~a3 : 4->3")
    res = ideal_member(t, w0, f)
    assert isinstance(res, MembershipCertificate)
    assert check_certificate(t, res)


def test_firstses_sign_flip_not_member():
    t = ExtDynkinType("D", 4)
    w0 = Weight.of([0] * 5)
    f = elem(t, "1 * a4.~a0.a0.~a3 : 4->3  +  -1 * a4.~a1.a1.~a3 : 4->3")
    res = ideal_member(t, w0, f)
    assert res is None
    # independent oracle: the degree-4 graded span misses this element
    assert not brute_graded_member(build_extended(t), f)


def test_membership_agrees_with_brute_force_randomly():
    rng = random.Random(17)
    t = ExtDynkinType("A", 3)
    q = build_extended(t)
    w0 = Weight.of([0] * 4)
    paths = paths_by_degree(q, 4)
    for _ in range(40):
        d = rng.choice([2, 3, 4])
        src = rng.choice(q.vertices)
        cands = [p for p in paths[d] if p.source == src]
        if not cands:
            continue
        tgt = rng.choice(sorted({p.target for p in cands}))
        picks = [p for p in cands if p.target == tgt]
        f = PathElement({p: rng.choice([1, -1, 2]) for p in
                         rng.sample(picks, min(3, len(picks)))})
        res = ideal_member(t, w0, f)
        assert isinstance(res, MembershipCertificate) == brute_graded_member(q, f)
        if isinstance(res, MembershipCertificate):
            assert check_certificate(t, res)


def _element_of(pairs):
    """A {(source, arrows): (re, im)} dict as a PathElement."""
    return PathElement({Path(s, arrows): FieldElem(*c) for (s, arrows), c in pairs.items()})


def _oracle_expansion(rels, u, rel, w):
    """u rho w over (re, im) pairs, by brute_product alone."""
    left = _element_of(brute_product(PathElement.of_path(u), rels[rel]))
    return brute_product(left, PathElement.of_path(w))


def certificate_corpus():
    """(type, weight, element) for seeded random ideal members
    sum k u rho_v w, with u and w walks of length <= 5, on five types at
    weight 0, a rational weight and a Gaussian weight; each member is built
    from the oracle's relations, never by the engine."""
    for t in (ExtDynkinType("A", 3), ExtDynkinType("D", 5), ExtDynkinType("D", 6),
              ExtDynkinType("E", 6), ExtDynkinType("E", 7)):
        rng = random.Random(f"certificate-corpus-{t}")
        q = build_extended(t)
        walks = [p for ps in paths_by_degree(q, 5).values() for p in ps]
        starting = {v: [p for p in walks if p.source == v] for v in q.vertices}
        rational = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(t.n + 1)]
        gaussian = [FieldElem(x, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                    for x in rational]
        for w in (Weight.of([0] * (t.n + 1)), Weight.of(rational), Weight.of(gaussian)):
            rels = oracle_relations(t, w)
            for _ in range(5):
                u = rng.choice(walks)
                right = rng.choice(starting[u.target])
                terms = [(u, right)]
                for _ in range(rng.randint(0, 2)):
                    u2 = rng.choice(starting[u.source])
                    ends = [p for p in starting[u2.target] if p.target == right.target]
                    if ends:
                        terms.append((u2, rng.choice(ends)))
                total = {}
                for u2, w2 in terms:
                    k = rng.choice((1, -1, 2, -3, Fraction(1, 2)))
                    for key, c in _oracle_expansion(rels, u2, u2.target, w2).items():
                        x = pair_product(c, (Fraction(k), 0))
                        s = total.get(key, (0, 0))
                        total[key] = (s[0] + x[0], s[1] + x[1])
                x = _element_of({k: c for k, c in total.items() if c != (0, 0)})
                if x:
                    yield t, w, x


# sha256 of every certificate term of certificate_corpus(), taken before the
# certificate was read off in one top-down pass over the table entries
CERTIFICATE_CORPUS_SHA256 = "4fb486c73e991927ba1c6612bb53ee1995295015b78914afee9f68a5fbc97eba"


def test_certificate_corpus_is_frozen_and_expands_by_the_oracle():
    lines, members = [], 0
    for t, w, x in certificate_corpus():
        cert = ideal_member(t, w, x)
        assert cert is not None, (str(t), str(w), str(x))
        rels = oracle_relations(t, w)
        total = {}
        for c, u, v, right in cert.terms:
            for key, y in _oracle_expansion(rels, u, v, right).items():
                y = pair_product(y, as_pair(c))
                s = total.get(key, (0, 0))
                total[key] = (s[0] + y[0], s[1] + y[1])
        assert {k: c for k, c in total.items() if c != (0, 0)} == element_pairs(x)
        lines += [f"{t};{w};{x}"] + [f"{c};{u};{v};{right}" for c, u, v, right in cert.terms]
        members += 1
    assert members == 75
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CERTIFICATE_CORPUS_SHA256


def test_cap_below_degree_rejected():
    t = ExtDynkinType("D", 4)
    w0 = Weight.of([0] * 5)
    f = elem(t, "1 * a4.~a0.a0.~a3 : 4->3")
    with pytest.raises(DomainError, match="above the cap 2"):
        verify_zero_product(t, w0, [[f]], [[unit(3)]], degree_cap=2)
    assert verify_zero_product(t, w0, [[f]], [[unit(3)]], degree_cap=4).failed_entry == (0, 0)
    # a cap is None or an int >= 0, and a bool is not an int here
    zero = [[unit(3)]], [[unit(2)]]
    assert verify_zero_product(t, w0, *zero, degree_cap=0).ok
    for cap in (-1, -5, True, False, 2.0, "2"):
        with pytest.raises(DomainError, match="degree cap"):
            verify_zero_product(t, w0, *zero, degree_cap=cap)


def test_membership_with_nonzero_weight():
    # rho-type element deformed by eps0: member exactly for matching weight
    t = ExtDynkinType("D", 4)
    we = epsilon0(t)
    rels = relation_set(build_extended(t), dict(enumerate(we.entries)))
    res = ideal_member(t, we, rels[0])
    assert isinstance(res, MembershipCertificate) and check_certificate(t, res)
    # the same element is NOT in the ideal at weight 0
    res0 = ideal_member(t, Weight.of([0] * 5), rels[0])
    assert res0 is None


@pytest.mark.parametrize("t", ALL_EXTENDED, ids=str)
def test_relation_set_matches_oracle(t):
    rng = random.Random(f"relations-{t}")
    q = build_extended(t)
    for k in range(6):
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(t.n + 1)]
        if k % 2:
            entries = [FieldElem(x, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                       for x in entries]
        w = Weight.of(entries)
        expected = oracle_relations(t, w)
        assert relation_set(q, {v: w[v] for v in q.vertices}) == expected
        models = model_for(t, w)
        assert sorted(models) == list(q.vertices)
        lam = {v: x for v, x in enumerate(w.entries) if x}
        for v, m in models.items():
            # every summand reads rho_w off the quiver's table and lambda_w
            # off the algebra's one table of nonzero entries
            assert m.source == v and m.quiver is q and m.lam is models[0].lam and m.lam == lam


def test_filtered_dims_match_graded_dims():
    # gr Pi^lambda = Pi: layer dimensions do not depend on the weight
    t = ExtDynkinType("D", 4)
    m0 = model_for(t, Weight.of([0] * 5))
    me = model_for(t, epsilon0(t))
    mg = model_for(t, Weight.of([1, "1/2", 0, "2/3", 5]))
    # and they are the Hilbert series of ~D4 (Crawley-Boevey-Holland)
    for v in range(5):
        want = [sum(u.values()) for u in pathalg._hilbert(build_extended(t), v, 8)]
        for m in (m0, me, mg):
            m[v].extend_to(8)
            assert [len(layer) for layer in m[v].layers[:9]] == want


def test_deformed_models_share_the_weight0_elimination():
    t = ExtDynkinType("D", 5)
    m0 = model_for(t, Weight.of([0] * 6))
    deformed = [model_for(t, epsilon0(t)), model_for(t, Weight.of([1, "1/2", 0, "2/3", 5, -1])),
                model_for(t, Weight.of(["1+i", 0, "-i", 0, 0, 2]))]
    tails = 0
    for v in range(6):
        deformed[0][v].extend_to(4)
        deformed[1][v].extend_to(6)
        deformed[2][v].extend_to(3)
        assert m0[v].graded is None and m0[v].max_degree() >= 6
        for m in deformed:
            m = m[v]
            assert m.graded is m0[v]
            assert m.basis is m0[v].basis and m.steps is m0[v].steps
            assert all(m.layers[d] is m0[v].layers[d] for d in range(m.max_degree() + 1))
            # only a pivot symbol of its layer's step has a tail, low keeps
            # only nonzero tails, and a tail is added to the shared weight-0
            # entry; every other entry is the weight-0 dict itself
            for key, below in m.low.items():
                assert below and key in m.steps[len(m.basis[key[0]]) + 1].prov
                assert m.mul[key] == {**m0[v].mul[key], **below}
            assert all(m.mul[key] is m0[v].mul[key] for key in m.mul if key not in m.low)
            tails += len(m.low)
    assert tails
    zero_models = [k for k in pathalg._MODELS if k[0] == t and not any(k[1])]
    assert zero_models == [(t, (ZERO,) * 6)]


def test_model_for_keys_by_the_coerced_weight():
    t = ExtDynkinType("A", 3)
    halves = [model_for(t, Weight.of([half, 0, 0, 1]))
              for half in ("1/2", Fraction(1, 2), FieldElem.of("1/2"))]
    assert halves[0] is halves[1] is halves[2]
    zeros = [model_for(t, Weight.of([0, zero, 0, 0])) for zero in (0, "0", "0/5")]
    assert zeros[0] is zeros[1] is zeros[2] is model_for(t, Weight.of([0] * 4))
    assert halves[0] is not zeros[0]


@pytest.mark.parametrize("entries", [3, 7])
def test_model_for_rejects_a_weight_of_the_wrong_length(entries):
    # ~D4 has 5 vertices; a short weight must not index past its end and a
    # long one must not be recorded in a certificate
    t = ExtDynkinType("D", 4)
    f = elem(t, "1 * a4.~a0.a0.~a3 : 4->3")
    with pytest.raises(DomainError, match=f"weight has {entries} entries but ~D4 has 5 vertices"):
        ideal_member(t, Weight.of([0] * entries), f)


@pytest.mark.parametrize("entries", [[0] * 5, (0,) * 5, [ZERO] * 5, (ZERO,) * 5])
def test_model_for_rejects_a_weight_that_is_not_a_weight(entries):
    # a list would be recorded in the certificate, whose check reads the
    # entries of a Weight
    t = ExtDynkinType("D", 4)
    f = elem(t, "1 * a4.~a0.a0.~a3 : 4->3")
    for call in (lambda: model_for(t, entries), lambda: ideal_member(t, entries, f)):
        with pytest.raises(DomainError, match="weight must be a Weight"):
            call()
    cert = ideal_member(t, Weight.of(entries), f)
    assert cert is None or check_certificate(t, cert)


def test_membership_rejects_another_quivers_arrows():
    d4, w = ExtDynkinType("D", 4), Weight.of([0] * 5)
    d5 = build_extended(ExtDynkinType("D", 5))
    # ~D4 has no a5; ~A4's a3 runs 3->4 where ~A3's runs 3->0, so the same
    # id leaves vertex 3 of ~A3 with other endpoints
    foreign = [(d4, w, PathElement.of_path(parse_path(d5, "a5.~a5")), "no arrow named 'a5'"),
               (ExtDynkinType("A", 3), Weight.of([0] * 4),
                PathElement.of_path(parse_path(build_extended(ExtDynkinType("A", 4)), "a3")),
                "a3: 3->4 is not an arrow of ~A3"),
               (d4, w, PathElement.of_path(trivial_path(9)), "vertex 9 is not in ~D4")]
    for t, u, x, message in foreign:
        with pytest.raises(DomainError, match=message):
            ideal_member(t, u, x)
        with pytest.raises(DomainError, match=message):
            verify_zero_product(t, u, [[x]], [[PathElement.of_path(trivial_path(x.target))]])
    # an arrow equal to one of ~D4's own is read as that arrow
    own = ideal_member(d4, w, elem(d4, "1 * a0.~a0 : 0->0"))
    assert own.terms and ideal_member(d4, w, PathElement.of_path(parse_path(d5, "a0.~a0"))) == own


def test_membership_takes_only_elements():
    # a Path is not a PathElement, though PathElement.of_path makes one of it
    t, w = ExtDynkinType("D", 4), Weight.of([0] * 5)
    e0 = PathElement.of_path(trivial_path(0))
    for x in (trivial_path(0), parse_path(build_extended(t), "a0.~a0"), ONE, 0):
        with pytest.raises(DomainError, match="a PathElement is required here"):
            ideal_member(t, w, x)
        for psi, phi in (([[x]], [[e0]]), ([[e0]], [[x]]), ([[e0, e0]], [[e0], [x]])):
            with pytest.raises(DomainError, match="a PathElement is required here"):
                verify_zero_product(t, w, psi, phi)


def test_check_certificate_rejects_a_term_whose_paths_miss_its_vertex():
    fixture = next(f for f in MAP_FIXTURES if f.fixture_id == "D4-A3")
    t = fixture.type
    cert = next(c for c in verify_zero_product(t, fixture.zero_weight(), *fixture.matrices())
                .certificates if c.terms)
    assert check_certificate(t, cert)
    c, u, v, w = cert.terms[0]
    other = next(k for k in build_extended(t).vertices if k != v)
    # an appended term at another vertex expands to 0, so only the vertex check sees it
    for terms in (cert.terms + ((ONE, u, other, w),), ((c, u, other, w),) + cert.terms[1:],
                  cert.terms + ((ONE, trivial_path(9), 9, trivial_path(9)),)):
        assert not check_certificate(t, cert._replace(terms=terms))


def test_element_sums_take_only_elements():
    x = PathElement.of_path(trivial_path(0))
    for bad in (1, ONE, "1", None, trivial_path(0)):
        for op in (lambda: x + bad, lambda: bad + x, lambda: x - bad, lambda: bad - x,
                   lambda: PathElement() + bad):
            with pytest.raises(TypeError):
                op()
    assert x - x == PathElement() and x + x == x.scale(2)


DYNKIN_TO_E8 = ([DynkinType("A", n) for n in range(1, 21)]
                + [DynkinType("D", n) for n in range(4, 17)]
                + [DynkinType("E", n) for n in (6, 7, 8)])


def test_engine_layers_are_the_hilbert_series():
    # the engine's weight-0 summand of every vertex, counted by degree and
    # target, is the recurrence that dims reads, and its layer h - 1 is empty
    for t in DYNKIN_TO_E8:
        q, h = build_dynkin(t), t.coxeter_number
        for v in q.vertices:
            m = pathalg.QuotientModel(q, v, {}, None)
            m.extend_to(h - 1)
            series = pathalg._hilbert(q, v, h - 1)
            assert not series[h - 1] and not m.layers[h - 1], (t, v)
            for d, layer in enumerate(m.layers):
                assert dict(Counter(m.basis[b].target for b in layer)) == series[d], (t, v, d)


def test_a_wrong_nakayama_permutation_is_an_inconsistency(monkeypatch):
    # the hand-written table and the recurrence check each other: with the
    # identity, A3's vertex 1 ends at vertex 3, not at 1; D4's is the identity
    monkeypatch.setattr(pathalg, "nakayama",
                        lambda t: VertexPermutation.of({i: i for i in range(1, t.n + 1)}))
    for f in (graded_dims_pi, hom_matrix):
        with pytest.raises(InternalInconsistency, match=r"Pi\(A3\) at vertex 1 contradicts"):
            f(DynkinType("A", 3))
    assert graded_dims_pi(DynkinType("D", 4))[1] == 28


def test_a_query_builds_only_the_summand_it_lives_in(monkeypatch):
    # an element from vertex s builds layers in summand s, at its own weight
    # and at weight 0, whose elimination it shares, and in no other summand
    monkeypatch.setattr(pathalg, "_MODELS", {})
    t = ExtDynkinType("E", 8)
    q = build_extended(t)
    w = Weight.of([1, "1/2", 0, "2/3", 5, -1, 0, "1+i", 2])
    zero = Weight.of([0] * 9)
    s = 5
    rho = relation_set(q, dict(enumerate(w.entries)))[s]
    x = multiply(rho, PathElement.of_path(parse_path(q, "~a4.a3")))
    assert x.source == s and x.degree == 4
    cert = ideal_member(t, w, x)
    assert cert is not None and check_certificate(t, cert)
    with pytest.raises(DomainError, match="does not lie in the summand of vertex 0"):
        model_for(t, w)[0].nf(x)
    keys = {(t, tuple(w.entries)), (t, (ZERO,) * 9)}
    assert set(pathalg._MODELS) == keys
    for models in (model_for(t, w), model_for(t, zero)):
        assert models[s].max_degree() >= x.degree
        assert [v for v, m in models.items() if m.max_degree() > 0] == [s]
    assert set(pathalg._MODELS) == keys


def test_summands_built_in_any_order_agree(monkeypatch):
    # basis paths, normal forms and certificates of each summand do not
    # depend on which summands, or which weight, were built before it
    t = ExtDynkinType("D", 5)
    q = build_extended(t)
    zero, w = Weight.of([0] * 6), Weight.of(["1+i", 0, "-1/2", 0, 3, 1])
    paths = paths_by_degree(q, 4)
    rels = {str(u): relation_set(q, dict(enumerate(u.entries))) for u in (zero, w)}

    def record(order):
        monkeypatch.setattr(pathalg, "_MODELS", {})
        out = {}
        for u, v in order:
            m = model_for(t, u)[v]
            m.extend_to(6)
            basis = [str(b) for b in m.basis if len(b) <= 6]
            nfs = [(str(p), [(k, str(c)) for k, c in m.nf_path(p).items()])
                   for d in range(5) for p in paths[d] if p.source == v]
            a = q.arrows_from(v)[0]
            x = multiply(PathElement.of_path(Path(v, (a,))), rels[str(u)][a.head])
            cert = ideal_member(t, u, x)
            assert check_certificate(t, cert)
            out[(str(u), v)] = (basis, nfs, [(str(c), str(l), r, str(g))
                                             for c, l, r, g in cert.terms])
        return out

    ascending = [(u, v) for u in (zero, w) for v in q.vertices]
    first = record(ascending)
    assert first == record(ascending[::-1])
    shuffled = list(ascending)
    random.Random(5).shuffle(shuffled)
    assert first == record(shuffled)


@pytest.mark.parametrize("t", [ExtDynkinType("A", 2), ExtDynkinType("A", 3),
                               ExtDynkinType("D", 4)], ids=str)
def test_deformed_normal_forms_against_brute_force(t):
    # p minus its normal form, read back as paths, lies in the ideal of
    # Pi^lambda; adding one basis representative takes it out again
    rng = random.Random(f"filtered-{t}")
    q = build_extended(t)
    paths = paths_by_degree(q, 4)
    for gaussian in (False, True):
        entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(t.n + 1)]
        if gaussian:
            entries = [FieldElem(x, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                       for x in entries]
        w = Weight.of(entries)
        weight = {v: w[v] for v in q.vertices}
        models = model_for(t, w)
        for d in range(5):
            for p in paths[d]:
                model = models[p.source]
                rem = {p: ONE}
                for bid, c in model.nf_path(p).items():
                    rep = model.basis[bid]
                    rem[rep] = rem.get(rep, ZERO) - c
                x = PathElement(rem)
                assert brute_filtered_member(q, weight, x), (str(w), str(p))
                reps = [b for b in model.basis if len(b) <= d
                        and (b.source, b.target) == (p.source, p.target)]
                if reps:
                    y = PathElement.sum([x, PathElement.of_path(rng.choice(reps))])
                    assert not brute_filtered_member(q, weight, y), (str(w), str(p))


def test_elimination_clears_pivots_brought_in_by_earlier_rows():
    # the third row meets pivot 5 first; clearing it with the first row
    # brings in column 3, a pivot by then, so the row vanishes
    sym_rows = [{5: ONE, 3: ONE}, {3: ONE}, {5: ONE}]
    rows, nulls = pathalg.eliminate(sym_rows)
    assert list(rows) == [5, 3]
    assert [sym for sym, _ in rows.values()] == [{5: 1}, {3: 1}]
    assert [prov for _, prov in rows.values()] == [{0: 1, 1: -1}, {1: 1}]
    assert nulls == [{0: -1, 1: 1, 2: 1}]
    # tails whose null combination vanishes reduce like the symbols; the
    # row of pivot 5 loses its tail, so only pivot 3 keeps one
    prov = {pk: p for pk, (_, p) in rows.items()}
    assert pathalg._reduced_tails([{7: ONE}, {7: ONE}, {}], prov, nulls) == {3: {7: 1}}
    with pytest.raises(InternalInconsistency):
        pathalg._reduced_tails([{7: ONE}, {}, {}], prov, nulls)


def test_elimination_is_reduced_and_tracks_provenance():
    rng = random.Random(23)
    systems = []
    for _ in range(60):
        width = rng.randint(1, 8)
        sym_rows = [{k: FieldElem(rng.randint(-2, 2)) for k in rng.sample(range(width),
                                                                      rng.randint(1, width))}
                    for _ in range(rng.randint(1, 9))]
        sym_rows = [{k: x for k, x in r.items() if x} for r in sym_rows]
        # every prefix, up to the whole system, is one more input: the rows
        # are kept reduced as they come, so each prefix must end reduced
        systems += [sym_rows[:n] for n in range(1, len(sym_rows) + 1)]
    for sym_rows in systems:
        rows, nulls = pathalg.eliminate(sym_rows)
        assert len(rows) == rank_of_rows(sym_rows) == len(sym_rows) - len(nulls)
        assert all(max(sym) == pk for pk, (sym, _) in rows.items())
        for sym, _ in rows.values():
            assert sym[max(sym)] == 1 and all(sym.values())
            assert not (set(sym) - {max(sym)}) & set(rows)
        for prov, want in [(prov, sym) for sym, prov in rows.values()] + [(n, {}) for n in nulls]:
            got = {}
            for r, c in prov.items():
                for k, x in sym_rows[r].items():
                    got[k] = got.get(k, ZERO) + c * x
            assert {k: x for k, x in got.items() if x} == want


# -- weight 0 over Z -----------------------------------------------------------

def test_elimination_of_int_rows_inverts_a_pivot_as_a_fraction():
    # pivots of -2 and then 4: the rows go over to Fractions, never to floats
    for sym_rows in ([{0: 1, 3: 2}, {1: -1, 3: -2}], [{2: 4, 5: -2}, {5: 2}, {2: 3}]):
        rows, nulls = pathalg.eliminate(sym_rows)
        values = [x for sym, prov in rows.values() for x in (*sym.values(), *prov.values())]
        values += [x for prov in nulls for x in prov.values()]
        assert {x.__class__ for x in values} == {int, Fraction}
        assert all(sym[pk] == 1 for pk, (sym, _) in rows.items())
        for prov, want in [(prov, sym) for sym, prov in rows.values()] + [(n, {}) for n in nulls]:
            got = {}
            for r, c in prov.items():
                for k, x in sym_rows[r].items():
                    got[k] = got.get(k, 0) + c * x
            assert {k: x for k, x in got.items() if x} == want


def test_weight0_tables_are_on_ints():
    summands = [m for t in (ExtDynkinType("D", 5), ExtDynkinType("E", 6))
                for m in model_for(t, Weight.of([0] * (t.n + 1))).values()]
    for m in summands:
        m.extend_to(8)
    q8 = build_dynkin(DynkinType("D", 8))
    for v in q8.vertices:
        summands.append(pathalg.QuotientModel(q8, v, {}, None))
        summands[-1].extend_to(13)
    for m in summands:
        values = [x for entry in m.mul.values() for x in entry.values()]
        values += [x for step in m.steps for p in (*step.prov.values(), *step.nulls)
                   for x in p.values()]
        assert values and {x.__class__ for x in values} <= {int, Fraction}
        # a normal form starts at its first term, so it stays on ints too
        nfs = [m.nf_path(p) for p in paths_by_degree(m.quiver, 4)[4] if p.source == m.source]
        assert {x.__class__ for nf in nfs for x in nf.values()} == {int}


@pytest.mark.parametrize("gaussian", [False, True], ids=["zero", "gaussian"])
def test_certificates_have_field_coefficients(gaussian):
    # the tables are on ints, the coefficients of a certificate field elements
    t = ExtDynkinType("D", 5)
    q = build_extended(t)
    rng = random.Random(29)
    w = Weight.of([FieldElem(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
                   if gaussian else 0 for _ in q.vertices])
    rels = relation_set(q, dict(enumerate(w.entries)))
    paths = paths_by_degree(q, 3)
    for _ in range(12):
        u = rng.choice(paths[rng.randint(0, 3)])
        right = rng.choice([p for p in paths[rng.randint(0, 3)] if p.source == u.target])
        x = multiply(multiply(PathElement.of_path(u), rels[u.target]),
                     PathElement.of_path(right)).scale(rng.choice([1, -2, "1/3"]))
        cert = ideal_member(t, w, x)
        assert cert.terms and check_certificate(t, cert)
        assert all(c.__class__ is FieldElem for c, *_ in cert.terms)


def test_check_certificate_rejects_another_quivers_arrow_and_wrong_terms():
    d4, d5 = build_extended(ExtDynkinType("D", 4)), build_extended(ExtDynkinType("D", 5))
    t, w0 = ExtDynkinType("D", 4), Weight.of([0] * 5)
    rels = relation_set(d4, dict(enumerate(w0.entries)))
    # ~D5's a4 (3->4) has the id of ~D4's a4 (4->2) but not its endpoints:
    # the words of u.rho_4 and of the element agree, the arrows do not
    for name, own in (("a0", True), ("a4", False)):
        a = d5.arrow(name)
        assert a.id == d4.arrow(name).id and (a == d4.arrow(name)) is own
        u = Path(a.tail, (a,))
        x = multiply(PathElement.of_path(u), rels[a.head])
        cert = MembershipCertificate(w0, x, ((ONE, u, a.head, trivial_path(a.head)),))
        assert check_certificate(t, cert) is own
    # a flipped coefficient or a dropped term breaks the sum
    fixture = next(f for f in MAP_FIXTURES if f.fixture_id == "D4-A3")
    cert = max(verify_zero_product(t, w0, *fixture.matrices()).certificates,
               key=lambda c: len(c.terms))
    assert len(cert.terms) >= 2 and check_certificate(t, cert)
    for k in range(len(cert.terms)):
        c, u, v, w = cert.terms[k]
        flipped = cert.terms[:k] + ((-c, u, v, w),) + cert.terms[k + 1:]
        assert not check_certificate(t, cert._replace(terms=flipped))
        assert not check_certificate(t, cert._replace(terms=cert.terms[:k] + cert.terms[k + 1:]))


# -- zero products -----------------------------------------------------------

def test_verify_zero_product_identity_sanity():
    t = ExtDynkinType("D", 4)
    w0 = Weight.of([0] * 5)
    rels = relation_set(build_extended(t), dict(enumerate(w0.entries)))
    rep = verify_zero_product(t, w0, [[rels[2]]], [[unit(2)]])
    assert rep.ok and len(rep.certificates) == 1


def test_verify_zero_product_shape_check():
    t = ExtDynkinType("D", 4)
    a0 = elem(t, "1 * a0 : 0->2")
    # every psi row has len(phi) entries and every phi row len(phi[0])
    for psi, phi in (([[unit(2)]], []), ([], [[a0]]), ([[a0], []], [[a0]]),
                     ([[a0], [a0, a0]], [[a0]]), ([[a0, a0]], [[a0], [a0, a0]]),
                     ([[a0, a0]], [[a0, a0], [a0]])):
        with pytest.raises(DomainError, match="matrix shapes are not composable"):
            verify_zero_product(t, Weight.of([0] * 5), psi, phi)


def test_verify_zero_product_reports_failure_entry():
    t = ExtDynkinType("D", 4)
    w0 = Weight.of([0] * 5)
    q = build_extended(t)
    psi = [[PathElement.of_path(parse_path(q, "a4.~a0"))]]
    phi = [[PathElement.of_path(parse_path(q, "a0.~a3"))]]
    rep = verify_zero_product(t, w0, psi, phi)
    assert not rep.ok and rep.failed_entry == (0, 0)


@pytest.mark.parametrize("fixture", MAP_FIXTURES, ids=lambda f: f.fixture_id)
def test_printed_map_pairs_certify(fixture):
    psi, phi = fixture.matrices()
    for w in (fixture.zero_weight(), fixture.component_weight()):
        rep = verify_zero_product(fixture.type, w, psi, phi)
        assert rep.ok, (fixture.fixture_id, rep.failed_entry)
        for cert in rep.certificates:
            assert check_certificate(fixture.type, cert)
