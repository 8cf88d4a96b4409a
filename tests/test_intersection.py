from preproj.dynkin import ExtDynkinType, build_extended, cartan
from preproj.fixtures import e_type_sequences
from preproj.intersection import ext_dims, intersection_matrix, smooth_resolution
from preproj.knitting import knit
from preproj.weights import ONE, ZERO, dot_delta

ALL_EXTENDED = ([ExtDynkinType("A", n) for n in range(2, 9)]
                + [ExtDynkinType("D", n) for n in range(4, 9)]
                + [ExtDynkinType("E", n) for n in (6, 7, 8)])


def test_ext_dims_three_cases():
    t = ExtDynkinType("D", 5)
    assert (ext_dims(t, 3, 3).hom, ext_dims(t, 3, 3).ext1, ext_dims(t, 3, 3).ext2) == (1, 0, 1)
    adj = ext_dims(t, 2, 3)
    assert (adj.hom, adj.ext1, adj.ext2) == (0, 1, 0)
    far = ext_dims(t, 1, 4)
    assert (far.hom, far.ext1, far.ext2) == (0, 0, 0)


def test_intersection_matrix_d4():
    g = intersection_matrix(ExtDynkinType("D", 4))
    assert g.entries == ((-2, 1, 0, 0), (1, -2, 1, 1), (0, 1, -2, 0), (0, 1, 0, -2))


def test_gamma_is_minus_cartan_everywhere():
    for t in ALL_EXTENDED:
        g = intersection_matrix(t)
        c = cartan(t).cartan
        assert g.entries == tuple(tuple(-x for x in row) for row in c)
        for i in range(t.n):
            assert g.entries[i][i] == -2
            for j in range(t.n):
                assert g.entries[i][j] == g.entries[j][i]
                assert g.entries[i][j] == ext_dims(t, i + 1, j + 1).intersection_multiplicity()


def test_smooth_resolution_bundle():
    for t in (ExtDynkinType("A", 2), ExtDynkinType("D", 5), ExtDynkinType("E", 6)):
        res = smooth_resolution(t)
        assert dot_delta(t, res.mu) == ONE
        assert all(res.mu[i] > ZERO for i in range(1, t.n + 1))
        assert res.gamma.entries == intersection_matrix(t).entries
    a2 = smooth_resolution(ExtDynkinType("A", 2))
    assert (list(a2.reflections), [str(x) for x in a2.mu.entries]) == ([0], ["-1", "1", "1"])


def test_neighbour_sequences_close_loop_with_knitting():
    # vertices adjacent to 0: knit with S = boundary reproduces the shape
    for t in [ExtDynkinType("D", n) for n in range(4, 9)] + \
             [ExtDynkinType("E", n) for n in (6, 7, 8)]:
        q = build_extended(t)
        for i in range(1, t.n + 1):
            middle = q.neighbours(i)
            if 0 not in middle:
                continue
            r = knit(t, set(middle), i)
            assert r.kernel == i
            assert r.middle_multiset() == middle


def test_family_i_fixtures_match_boundaries():
    # the A1-subquiver block of each E-type proposition is the boundary list
    for n in (6, 7, 8):
        t = ExtDynkinType("E", n)
        q = build_extended(t)
        for f in e_type_sequences(n)[:n]:
            assert f.kernel == f.target
            assert f.middle == q.neighbours(f.target)
