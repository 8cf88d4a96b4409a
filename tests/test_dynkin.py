import hashlib
import inspect
import itertools
import random

import pytest

from oracles import (brute_canonical_map, det_int, graph_automorphisms, is_involution,
                     preserves, quiver_relations)
import preproj
from preproj import dynkin, weights
from preproj.dynkin import (MAX_RANK, DynkinType, ExtDynkinType, build_dynkin, build_extended,
                            cartan, classify_components, dynkin_adjacency, nakayama,
                            parse_type)
from preproj.errors import DomainError, InternalInconsistency
from preproj.pathalg import PathElement, relation_set, trivial_path
from preproj.weights import Weight

ALL_EXTENDED = ([ExtDynkinType("A", n) for n in range(2, 9)]
                + [ExtDynkinType("D", n) for n in range(4, 9)]
                + [ExtDynkinType("E", n) for n in (6, 7, 8)])


def arrows_of(t):
    return {(a.name, a.tail, a.head) for a in build_extended(t).ordinary_arrows}


def test_d4_star_labelling():
    assert arrows_of(ExtDynkinType("D", 4)) == {
        ("a0", 0, 2), ("a1", 1, 2), ("a3", 3, 2), ("a4", 4, 2)}


def test_e6_labelling():
    assert arrows_of(ExtDynkinType("E", 6)) == {
        ("a0", 0, 1), ("a1", 4, 1), ("a2", 2, 3),
        ("a3", 4, 3), ("a4", 4, 5), ("a5", 6, 5)}


def test_a2_cycle():
    assert arrows_of(ExtDynkinType("A", 2)) == {
        ("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 0)}


def test_every_ordinary_arrow_has_reverse():
    for t in ALL_EXTENDED:
        q = build_extended(t)
        names = {a.name for a in q.arrows}
        for a in q.ordinary_arrows:
            assert "~" + a.name in names
            rev = q.arrow("~" + a.name)
            assert (rev.tail, rev.head) == (a.head, a.tail)


def test_rejects_bad_ranks():
    with pytest.raises(DomainError):
        ExtDynkinType("A", 1)  # doubled edge, unsupported
    with pytest.raises(DomainError):
        ExtDynkinType("D", 3)
    with pytest.raises(DomainError):
        ExtDynkinType("E", 9)
    with pytest.raises(DomainError):
        DynkinType("A", 0)
    with pytest.raises(DomainError):
        DynkinType("E", 9)
    # a rank is an int: not a float, a bool or a list, even of an int value
    for cls, family, n in ((ExtDynkinType, "D", 4.0), (DynkinType, "A", True),
                           (ExtDynkinType, "D", [4])):
        with pytest.raises(DomainError, match="a rank must be an int"):
            cls(family, n)
    # 20 is the largest rank a fixture, a test or a bench item uses
    assert MAX_RANK >= 20
    for family in "AD":
        assert ExtDynkinType(family, MAX_RANK).n == DynkinType(family, MAX_RANK).n == MAX_RANK
        for cls in (DynkinType, ExtDynkinType):
            with pytest.raises(DomainError, match=f"n <= {MAX_RANK}, got {MAX_RANK + 1}"):
                cls(family, MAX_RANK + 1)


def test_parse_and_serialize():
    assert str(parse_type("~D5")) == "~D5"
    assert parse_type("A5") == DynkinType("A", 5)
    with pytest.raises(DomainError):
        parse_type("F4")
    # '²' passes str.isdigit but not int()
    for text in ("E²", "~D²", "A1²"):
        with pytest.raises(DomainError):
            parse_type(text)


def test_cartan_a2():
    assert cartan(ExtDynkinType("A", 2)).cartan == ((2, -1), (-1, 2))


def test_delta_e8():
    assert cartan(ExtDynkinType("E", 8)).delta == (1, 2, 3, 4, 5, 6, 4, 2, 3)


def test_delta_d4_in_kernel():
    cd = cartan(ExtDynkinType("D", 4))
    assert cd.delta == (1, 1, 2, 1, 1)
    for row in cd.cartan_ext:
        assert sum(r * d for r, d in zip(row, cd.delta)) == 0


def test_cartan_invariants_all_types():
    for t in ALL_EXTENDED:
        cd = cartan(t)
        assert cd.delta[0] == 1
        assert det_int(cd.cartan) != 0
        assert det_int(cd.cartan_ext) == 0


def test_nakayama_a3():
    assert nakayama(DynkinType("A", 3)).as_dict() == {1: 3, 2: 2, 3: 1}


def test_nakayama_d4_identity():
    assert nakayama(DynkinType("D", 4)).as_dict() == {i: i for i in range(1, 5)}


def test_nakayama_e6_from_automorphism_group():
    # the labelled E6 tree has exactly one non-identity automorphism
    adj = dynkin_adjacency(DynkinType("E", 6))
    autos = graph_automorphisms(adj)
    assert len(autos) == 2
    nontrivial = next(m for m in autos if any(m[v] != v for v in m))
    assert nakayama(DynkinType("E", 6)).as_dict() == nontrivial
    assert nontrivial == {1: 1, 2: 6, 3: 5, 4: 4, 5: 3, 6: 2}


def test_nakayama_is_adjacency_preserving_involution():
    types = ([DynkinType("A", n) for n in range(1, 9)]
             + [DynkinType("D", n) for n in range(4, 9)]
             + [DynkinType("E", n) for n in (6, 7, 8)])
    for t in types:
        nak = nakayama(t)
        assert is_involution(nak)
        assert preserves(nak, dynkin_adjacency(t))


def test_classify_e6_d4_component():
    q = build_extended(ExtDynkinType("E", 6))
    comps = classify_components(q, {1, 3, 4, 5})
    assert len(comps) == 1
    dt, verts, canon = comps[0]
    assert (str(dt), verts) == ("D4", (1, 3, 4, 5))
    assert canon[4] == 2  # the centre maps to the canonical centre


def test_classify_a5_example():
    q = build_extended(ExtDynkinType("A", 5))
    comps = classify_components(q, {1, 3, 4, 5})
    assert [(str(dt), verts) for dt, verts, _ in comps] == [
        ("A1", (1,)), ("A3", (3, 4, 5))]


def test_classify_empty():
    q = build_extended(ExtDynkinType("D", 6))
    assert classify_components(q, set()) == []


def test_classify_rejects_extending_vertex():
    q = build_extended(ExtDynkinType("D", 4))
    with pytest.raises(DomainError):
        classify_components(q, {0, 1})


def test_classify_rejects_a_component_of_no_ade_shape():
    # the whole extended diagram is a cycle (~A) or a tree with too many
    # branches or too long arms, so no A_m, D_m or E_m matches it
    for t in ALL_EXTENDED:
        q = build_extended(t)
        everything = set(q.vertices)
        with pytest.raises(InternalInconsistency):
            classify_components(q.full_subquiver(everything), everything)


def test_classify_order_independent():
    q = build_extended(ExtDynkinType("D", 8))
    keep = [1, 2, 3, 5, 6, 7, 8]
    assert (classify_components(q, set(keep))
            == classify_components(q, set(reversed(keep))))


def test_classify_canonical_map_is_isomorphism():
    for t in ALL_EXTENDED:
        q = build_extended(t)
        keep = set(range(1, t.n + 1)) - {max(2, t.n // 2)}
        for dt, verts, canon in classify_components(q, keep):
            canon_adj = dynkin_adjacency(dt)
            for v in verts:
                nbrs = {w for w in q.neighbours(v) if w in verts}
                assert {canon[w] for w in nbrs} == set(canon_adj[canon[v]])


def assert_canonical_maps(q, keep):
    for dt, verts, canon in classify_components(q, keep):
        sub = {v: tuple(w for w in q.neighbours(v) if w in verts) for v in verts}
        assert canon == brute_canonical_map(sub, dynkin_adjacency(dt)), (q.type, keep)


def test_classify_canonical_map_is_smallest_on_every_small_subset():
    # every vertex subset of the extended types with n <= 6
    for t in ALL_EXTENDED:
        if t.n > 6:
            continue
        q = build_extended(t)
        for size in range(t.n + 1):
            for keep in itertools.combinations(range(1, t.n + 1), size):
                assert_canonical_maps(q, set(keep))


def test_cached_components_equal_an_uncached_classification(monkeypatch):
    # every subset I of 1..n of the 15 types, 1,452 in all: the shared quiver
    # caches its components, an equal quiver that is not the shared one and
    # the untyped copy classify uncached, and all three agree in types,
    # vertices and canonical maps; each connected set is searched once
    monkeypatch.setattr(dynkin, "_COMPONENTS", {})
    searches = []
    search = dynkin._canonical_isomorphism
    monkeypatch.setattr(dynkin, "_canonical_isomorphism",
                        lambda sub, canon: searches.append(1) or search(sub, canon))
    subsets = 0
    for t in ALL_EXTENDED:
        q = build_extended(t)
        untyped = q.full_subquiver(set(q.vertices))
        twin = dynkin.LabelledDoubleQuiver(q.vertices, q.arrows, t)
        for size in range(t.n + 1):
            for keep in itertools.combinations(range(1, t.n + 1), size):
                subsets += 1
                cached = classify_components(q, set(keep))
                assert cached == classify_components(untyped, set(keep)), (t, keep)
                assert cached == classify_components(twin, set(keep)), (t, keep)
        cache = dynkin._COMPONENTS[t]
        assert all(len(classify_components(untyped, set(key))) == 1 for key in cache), t
        if t.family == "A":
            assert len(cache) == t.n * (t.n + 1) // 2, t
        before = len(searches)
        for size in range(t.n + 1):
            for keep in itertools.combinations(range(1, t.n + 1), size):
                classify_components(q, set(keep))
        assert len(searches) == before, t
    assert subsets == 1452
    assert set(dynkin._COMPONENTS) == set(ALL_EXTENDED)


def test_only_the_shared_quiver_of_a_type_reads_the_cache():
    # a quiver built with ~D5's type but ~A5's arrows: {2, 3, 4, 5} is D4 on
    # the shared ~D5 and a path A4 on this one
    t = ExtDynkinType("D", 5)
    keep = {2, 3, 4, 5}
    assert [str(dt) for dt, _, _ in classify_components(build_extended(t), keep)] == ["D4"]
    a5 = build_extended(ExtDynkinType("A", 5))
    other = dynkin.LabelledDoubleQuiver(a5.vertices, a5.arrows, t)
    assert [str(dt) for dt, _, _ in classify_components(other, keep)] == ["A4"]


def test_a_returned_canonical_map_is_a_copy():
    q = build_extended(ExtDynkinType("D", 8))
    keep = {1, 2, 3, 5, 6, 7, 8}
    first = classify_components(q, keep)
    want = [(dt, verts, dict(canon)) for dt, verts, canon in first]
    for _, verts, canon in first:
        canon.clear()
        canon[verts[0]] = -1
    assert classify_components(q, keep) == want
    assert classify_components(q, keep)[0][2] is not classify_components(q, keep)[0][2]


def test_nakayama_is_built_once_per_type():
    for t in (DynkinType("A", 5), DynkinType("D", 7), DynkinType("E", 6)):
        assert nakayama(t) is nakayama(DynkinType(t.family, t.n))
    assert all(type(t) is DynkinType for t in dynkin._NAKAYAMA)


def test_classify_canonical_map_is_smallest_on_sampled_subsets():
    rng = random.Random(41)
    for t in ALL_EXTENDED:
        if t.n <= 6:
            continue
        q = build_extended(t)
        samples = [set(range(1, t.n + 1))]
        samples += [{v for v in range(1, t.n + 1) if rng.random() < 0.7} for _ in range(25)]
        for keep in samples:
            assert_canonical_maps(q, keep)


def test_paths_alternate_in_de_doubles():
    # bipartite Figure-1 orientation: walks alternate ordinary and reverse
    for t in ALL_EXTENDED:
        q = build_extended(t)
        if t.family == "A":
            with pytest.raises(DomainError):
                q.sink_class()
            continue
        sinks = q.sink_class()
        for a in q.arrows:
            if not a.reverse:
                assert a.head in sinks and a.tail not in sinks


def test_sink_class_is_built_once_per_quiver():
    # the quiver's constructor decides it; ~A raises on every call
    for t in ALL_EXTENDED:
        q = build_extended(t)
        if t.family == "A":
            for _ in range(2):
                with pytest.raises(DomainError, match="no sink class"):
                    q.sink_class()
        else:
            assert q.sink_class() is q.sink_class()


def test_per_type_data_is_shared():
    for t in ALL_EXTENDED:
        assert cartan(t) is cartan(ExtDynkinType(t.family, t.n))
        assert build_extended(t) is build_extended(ExtDynkinType(t.family, t.n))


ALL_DYNKIN = ([DynkinType("A", n) for n in range(1, 21)]
              + [DynkinType("D", n) for n in range(4, 17)]
              + [DynkinType("E", n) for n in (6, 7, 8)])

# sha256 of every adjacency of ALL_DYNKIN, taken before build_dynkin kept one
# quiver per type
DYNKIN_ADJACENCY_SHA256 = "a55859e06c72ab4c452754c60728cc2aa73aa7b48eefc8799ecf6b63fedf6425"


def test_dynkin_quiver_is_shared_and_unchanged():
    for t in ALL_DYNKIN:
        assert build_dynkin(t) is build_dynkin(DynkinType(t.family, t.n))
        assert build_dynkin(t).vertices == tuple(range(1, t.n + 1))
    adjacency = repr([(str(t), sorted(dynkin_adjacency(t).items())) for t in ALL_DYNKIN])
    assert hashlib.sha256(adjacency.encode()).hexdigest() == DYNKIN_ADJACENCY_SHA256
    for n in range(1, 21):
        assert dynkin_adjacency(DynkinType("A", n)) == {
            v: tuple(w for w in (v - 1, v + 1) if 1 <= w <= n) for v in range(1, n + 1)}


def test_dynkin_relation_set_matches_oracle():
    # a full subquiver builds its rho table from the arrows it keeps, so
    # rho_1 of a Dynkin quiver has no terms through vertex 0
    for t in ALL_DYNKIN:
        q = build_dynkin(t)
        assert relation_set(q, {}) == quiver_relations(q, {}), t


def test_arrow_names_are_canonical_and_resolve():
    for t in ALL_EXTENDED:
        q = build_extended(t)
        for a in q.arrows:
            assert a.name == ("~a" if a.reverse else "a") + str(a.index)
            assert q.arrow(a.name) is a


def all_quivers():
    return ([build_extended(t) for t in ALL_EXTENDED]
            + [build_dynkin(t) for t in ALL_DYNKIN])


def test_quiver_tables_equal_scans_of_the_arrows():
    for q in all_quivers():
        out = {v: tuple(a for a in q.arrows if a.tail == v) for v in q.vertices}
        nbrs = {v: tuple(sorted({a.head for a in out[v]})) for v in q.vertices}
        for v in q.vertices:
            assert q.arrows_from(v) == out[v]
            assert q.neighbours(v) == nbrs[v]
        assert list(q.adjacency().items()) == list(nbrs.items())
        assert q.ordinary_arrows == tuple(a for a in q.arrows if not a.reverse)
        assert q.by_id == {a.id: a for a in q.arrows}
        for v in (-1, max(q.vertices) + 1):
            assert q.arrows_from(v) == () and q.neighbours(v) == ()


def test_arrow_ids_are_unique_and_are_the_hash():
    for q in all_quivers():
        ids = [a.id for a in q.arrows]
        assert len(set(ids)) == len(ids)
        for a in q.arrows:
            assert hash(a) == a.id == a.index << 1 | a.reverse
        for name in ("a99", ""):
            with pytest.raises(DomainError):
                q.arrow(name)


def test_adjacency_returns_a_fresh_dict():
    for q in all_quivers():
        first = q.adjacency()
        expected = dict(first)
        first[q.vertices[0]] = ()
        first[-1] = (0,)
        assert q.adjacency() == expected


def test_arrows_out_of_sinks_are_the_reverse_arrows():
    # knit keeps sinks in odd columns: a step out of an odd column runs
    # between copies of the quiver on a reverse arrow, a step out of an even
    # one inside a copy on an ordinary arrow, so this is all the column
    # parity of a pattern walk needs; and a pattern walk's step between
    # neighbours u and v is the one arrow u -> v, as the edges are simple
    for t in ALL_EXTENDED:
        if t.family == "A":
            continue
        q = build_extended(t)
        sinks = q.sink_class()
        for a in q.arrows:
            assert a.reverse == (a.tail in sinks), (t, a)
        for v in q.vertices:
            assert len(q.arrows_from(v)) == len(q.neighbours(v)), (t, v)


def test_type_taking_functions_reject_the_other_kind_of_type():
    # every public function whose first argument is a type rejects the other
    # kind of the same family and rank, and caches nothing under it
    def weight(t):
        return Weight.of([1] * (t.n + 1))

    e0 = [[PathElement.of_path(trivial_path(0))]]
    extended = {
        "build_extended": lambda t: (t,), "cartan": lambda t: (t,),
        "ext_dims": lambda t: (t, 1, 1), "intersection_matrix": lambda t: (t,),
        "smooth_resolution": lambda t: (t,), "resolve_to_smooth": lambda t: (t,),
        "knit": lambda t: (t, {0}, 2), "ideal_member": lambda t: (t, weight(t), e0[0][0]),
        "verify_zero_product": lambda t: (t, weight(t), e0, e0),
        "q_lambda_decompose": lambda t: (t, weight(t)),
        "classify_weight": lambda t: (t, weight(t)),
        "dual_reflection": lambda t: (t, weight(t), 1),
        "quasi_dominantize": lambda t: (t, Weight.of([0] + [-1] * t.n)),
    }
    dynkin_only = {"nakayama", "graded_dims_pi", "hom_matrix"}
    weight_helpers = (lambda t: weights.is_quasi_dominant(t, weight(t)), weights.epsilon0,
                      lambda t: weights.dot_delta(t, weight(t)), dynkin.delta_vector)
    takes_a_type = {name for name in preproj.__all__
                    if inspect.isfunction(f := getattr(preproj, name))
                    and next(iter(inspect.signature(f).parameters)) == "t"}
    assert takes_a_type == set(extended) | dynkin_only
    for family, n in (("D", 4), ("D", 5), ("E", 6)):
        for name, args in extended.items():
            with pytest.raises(DomainError, match=f"an extended type like ~{family}{n} is required"):
                getattr(preproj, name)(*args(DynkinType(family, n)))
        for name in dynkin_only:
            with pytest.raises(DomainError,
                               match=rf"a Dynkin type like {family}{n} \(no ~ prefix\) is required"):
                getattr(preproj, name)(ExtDynkinType(family, n))
        # weight helpers outside __all__ that take an extended type
        for call in weight_helpers:
            with pytest.raises(DomainError, match=f"an extended type like ~{family}{n} is required"):
                call(DynkinType(family, n))
    assert all(type(t) is ExtDynkinType for t in dynkin._EXTENDED)
    assert all(type(t) is DynkinType for t in dynkin._DYNKIN)


def test_type_taking_functions_reject_an_unhashable_type():
    # an unhashable argument misses every cache and is then rejected as the
    # wrong kind of type, not by the cache lookup
    for bad in (["D", 4], {"D": 4}):
        for f in (build_extended, cartan, lambda t: preproj.knit(t, {0}, 2)):
            with pytest.raises(DomainError, match="an extended type like ~.* is required"):
                f(bad)
        for f in (build_dynkin, preproj.graded_dims_pi, preproj.hom_matrix):
            with pytest.raises(DomainError,
                               match=r"a Dynkin type like .* \(no ~ prefix\) is required"):
                f(bad)
