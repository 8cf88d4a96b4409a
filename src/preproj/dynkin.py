"""Extended Dynkin quivers with the canonical vertex/arrow labelling.

Builds the doubled quivers for types ~A_n (n >= 2), ~D_n (n >= 4) and
~E_6/7/8, their Cartan data, Nakayama automorphisms, and classification of
full subquivers into canonical Dynkin pieces.
"""
from __future__ import annotations

import re
from operator import attrgetter
from typing import NamedTuple

from .errors import DomainError, InternalInconsistency

FAMILIES = ("A", "D", "E")

# the one number grammar of every input: ASCII digits, with an optional sign
# where a value may be signed; str.isdecimal, int() and re's \d would also
# take other scripts' digits, and int() underscores
_DIGITS = "[0-9]+"
_INTEGER = f"[+-]?{_DIGITS}"

COXETER_NUMBERS = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get}


# the largest rank of types A and D: the isomorphism search and the
# composition generator recurse once per vertex, and a ~D_n pattern walk once
# per column, up to 8n - 4 of them, all below Python's recursion limit of 1000
MAX_RANK = 100


def _check_rank(family: str, n: int, extended: bool) -> None:
    if n.__class__ is not int:
        raise DomainError(f"a rank must be an int, got {n!r}")
    if family == "A":
        low = 2 if extended else 1
        if n < low:
            raise DomainError(f"type A requires n >= {low}, got {n}"
                              + (" (doubled-edge ~A1 is unsupported)" if extended else ""))
    elif family == "D":
        if n < 4:
            raise DomainError(f"type D requires n >= 4, got {n}")
    elif family == "E":
        if n not in (6, 7, 8):
            raise DomainError(f"type E requires n in 6..8, got {n}")
    else:
        raise DomainError(f"unknown family {family!r}")
    if n > MAX_RANK:
        raise DomainError(f"type {family} supports n <= {MAX_RANK}, got {n}")


class Frozen:
    """An immutable value: the base of every identity type.

    A subclass names in ``_args`` the slots its constructor takes, and its
    constructor sets each slot once with ``_set``.  Equality holds within
    one class, on the ``_args``, and the hash is theirs; pickling and
    copying call the constructor on them, and the repr names them."""

    __slots__ = ()
    _args: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # _values(x) is the tuple of x's _args, read in one C call: types
        # key every cache, so their hash and equality are on the hot path
        get = attrgetter(*cls._args)
        cls._values = staticmethod(get if len(cls._args) > 1 else lambda x: (get(x),))

    def _set(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (self.__class__, self._values(self))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._args)
        return f"{self.__class__.__name__}({fields})"


class _RankedType(Frozen):
    """A family letter and a rank, checked at the constructor.  A Dynkin
    type never equals the extended type of the same family and rank."""

    __slots__ = _args = ("family", "n")
    _extended = False

    def __init__(self, family: str, n: int):
        _check_rank(family, n, self._extended)
        self._set(family=family, n=n)


class DynkinType(_RankedType):
    """A Dynkin diagram A_n (n>=1), D_n (n>=4) or E_n (n in 6..8)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.family}{self.n}"

    @property
    def coxeter_number(self) -> int:
        return COXETER_NUMBERS[self.family](self.n)


class ExtDynkinType(_RankedType):
    """An extended Dynkin diagram ~A_n (n>=2), ~D_n (n>=4) or ~E_n.

    Vertices are 0..n with 0 the extending vertex.
    """

    __slots__ = ()
    _extended = True

    def __str__(self) -> str:
        return f"~{self.family}{self.n}"

    @property
    def dynkin(self) -> DynkinType:
        return DynkinType(self.family, self.n)


def _require_extended(t) -> ExtDynkinType:
    if not isinstance(t, ExtDynkinType):
        raise DomainError(f"an extended type like ~{t} is required here")
    return t


def _require_dynkin(t) -> DynkinType:
    if not isinstance(t, DynkinType):
        raise DomainError(
            f"a Dynkin type like {str(t).lstrip('~')} (no ~ prefix) is required here")
    return t


def parse_type(text: str) -> ExtDynkinType | DynkinType:
    """Parse "A5" / "D4" / "E7" or the extended forms "~A5" etc."""
    text = text.strip()
    extended = text.startswith("~")
    body = text[1:] if extended else text
    if not body or body[0] not in FAMILIES or re.fullmatch(_DIGITS, body[1:]) is None:
        raise DomainError(f"cannot parse Dynkin type {text!r}")
    family, n = body[0], int(body[1:])
    return ExtDynkinType(family, n) if extended else DynkinType(family, n)


class Arrow(Frozen):
    """One arrow of a double quiver: a<k> (ordinary) or ~a<k> (reverse).

    Equality is on (index, reverse, tail, head); ``id`` is unique within a
    quiver, is the hash and keys every table, and ``name`` is for print and
    parse."""

    __slots__ = ("index", "reverse", "tail", "head", "id", "name")
    _args = __slots__[:4]

    def __init__(self, index: int, reverse: bool, tail: int, head: int):
        self._set(index=index, reverse=reverse, tail=tail, head=head, id=index << 1 | reverse,
                  name=("~a" if reverse else "a") + str(index))

    def __hash__(self) -> int:
        return self.id

    def reversed_arrow(self) -> "Arrow":
        return Arrow(self.index, not self.reverse, self.head, self.tail)

    def __str__(self) -> str:
        return self.name


def _ordinary_arrows(t: ExtDynkinType) -> list[tuple[int, int, int]]:
    """Figure-1 ordinary arrows as (index, tail, head)."""
    n = t.n
    if t.family == "A":
        return [(i, i, (i + 1) % (n + 1)) for i in range(n + 1)]
    if t.family == "D":
        arrows = [(0, 0, 2), (1, 1, 2)]
        for i in range(2, n - 2):
            # chain edge between i and i+1; even-indexed arrows point down the chain
            arrows.append((i, i, i + 1) if i % 2 == 1 else (i, i + 1, i))
        if n % 2 == 0:
            arrows += [(n - 1, n - 1, n - 2), (n, n, n - 2)]
        else:
            arrows += [(n - 1, n - 2, n - 1), (n, n - 2, n)]
        return arrows
    if n == 6:
        return [(0, 0, 1), (1, 4, 1), (2, 2, 3), (3, 4, 3), (4, 4, 5), (5, 6, 5)]
    if n == 7:
        return [(0, 0, 1), (1, 2, 1), (2, 2, 3), (3, 4, 3), (4, 4, 5), (5, 6, 5), (7, 7, 3)]
    return [(0, 0, 1), (1, 2, 1), (2, 2, 3), (3, 4, 3), (4, 4, 5), (5, 6, 5), (6, 6, 7), (8, 8, 5)]


class LabelledDoubleQuiver(Frozen):
    """The double of a quiver: each ordinary arrow a<k> has a reverse ~a<k>,
    whose id is one more.

    The constructor builds the name, id, out-arrow and neighbour tables,
    ``rho``, each rho_v's quadratic part as (sign, first id, second id),
    ``name_rank``, each arrow id's rank in the string order of the names as
    the character of that code point, and the sink class; equality and the
    hash are on (vertices, arrows, type)."""

    __slots__ = ("vertices", "arrows", "type", "ordinary_arrows", "rho", "by_id", "name_rank",
                 "_by_name", "_out", "_neighbours", "_sinks")
    _args = __slots__[:3]

    def __init__(self, vertices: tuple[int, ...], arrows: tuple[Arrow, ...],
                 type: ExtDynkinType | None = None):
        by_name: dict[str, Arrow] = {}
        out: dict[int, list[Arrow]] = {v: [] for v in vertices}
        rho: dict[int, list[tuple[int, int, int]]] = {v: [] for v in vertices}
        for a in arrows:
            if a.name in by_name:
                raise InternalInconsistency("duplicate arrow labels")
            by_name[a.name] = a
            out.setdefault(a.tail, []).append(a)
            if not a.reverse:
                rho[a.tail].append((1, a.id, a.id + 1))
                rho[a.head].append((-1, a.id + 1, a.id))
        # the sink class: None unless every ordinary arrow runs from a
        # vertex with an ordinary out-arrow to one with none
        sinks = frozenset(v for v in vertices if all(a.reverse for a in out[v]))
        if any(a.tail in sinks or a.head not in sinks for a in arrows if not a.reverse):
            sinks = None
        by_rank = sorted(arrows, key=attrgetter("name"))
        self._set(vertices=vertices, arrows=arrows, type=type,
                  ordinary_arrows=tuple(a for a in arrows if not a.reverse),
                  rho={v: tuple(r) for v, r in rho.items()},
                  by_id={a.id: a for a in arrows},
                  name_rank={a.id: chr(k) for k, a in enumerate(by_rank)},
                  _by_name=by_name, _out={v: tuple(vs) for v, vs in out.items()},
                  _neighbours={v: tuple(sorted({a.head for a in vs})) for v, vs in out.items()},
                  _sinks=sinks)

    def arrow(self, name: str) -> Arrow:
        a = self._by_name.get(name)
        if a is None:
            raise DomainError(f"no arrow named {name!r}")
        return a

    def arrows_from(self, v: int) -> tuple[Arrow, ...]:
        return self._out.get(v, ())

    def neighbours(self, v: int) -> tuple[int, ...]:
        return self._neighbours.get(v, ())

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return {v: self._neighbours[v] for v in self.vertices}

    def sink_class(self) -> frozenset[int]:
        """Vertices whose incident ordinary arrows all point inwards.

        Defined for types D and E, where the Figure-1 orientation is
        bipartite; paths in the double then alternate ordinary and
        reverse arrows.
        """
        if self._sinks is None:
            raise DomainError("orientation is not bipartite (type ~A has no sink class)")
        return self._sinks

    def full_subquiver(self, keep: set[int]) -> "LabelledDoubleQuiver":
        keep = set(keep)
        arrows = tuple(a for a in self.arrows if a.tail in keep and a.head in keep)
        return LabelledDoubleQuiver(tuple(sorted(keep)), arrows, type=None)


# one shared frozen quiver per type, built on first use
_EXTENDED: dict[ExtDynkinType, LabelledDoubleQuiver] = {}


def build_extended(t: ExtDynkinType) -> LabelledDoubleQuiver:
    """The double of the extended Dynkin quiver with its canonical labels."""
    try:
        q = _EXTENDED.get(t)
    except TypeError:   # unhashable, so not a type: _require_extended says so
        q = None
    if q is None:
        _require_extended(t)
        arrows: list[Arrow] = []
        for idx, tail, head in _ordinary_arrows(t):
            a = Arrow(idx, False, tail, head)
            arrows.append(a)
            arrows.append(a.reversed_arrow())
        q = _EXTENDED[t] = LabelledDoubleQuiver(tuple(range(t.n + 1)), tuple(arrows), type=t)
    return q


# one shared frozen quiver per Dynkin type, built on first use
_DYNKIN: dict[DynkinType, LabelledDoubleQuiver] = {}


def build_dynkin(t: DynkinType) -> LabelledDoubleQuiver:
    """The double of the Dynkin quiver: the extended quiver minus vertex 0."""
    try:
        q = _DYNKIN.get(t)
    except TypeError:   # unhashable, so not a type: _require_dynkin says so
        q = None
    if q is None:
        _require_dynkin(t)
        ext_n = max(t.n, 2) if t.family == "A" else t.n
        ext = build_extended(ExtDynkinType(t.family, ext_n))
        q = _DYNKIN[t] = ext.full_subquiver(set(range(1, t.n + 1)))
    return q


def delta_vector(t: ExtDynkinType) -> tuple[int, ...]:
    """Dimension vector of the McKay irreducibles, indexed by vertex."""
    n = _require_extended(t).n
    if t.family == "A":
        return tuple([1] * (n + 1))
    if t.family == "D":
        return tuple([1, 1] + [2] * (n - 3) + [1, 1])
    return {6: (1, 2, 1, 2, 3, 2, 1),
            7: (1, 2, 3, 4, 3, 2, 1, 2),
            8: (1, 2, 3, 4, 5, 6, 4, 2, 3)}[n]


class CartanData(NamedTuple):
    """Cartan matrices and the delta vector of an extended Dynkin type.

    C is the (n x n) Dynkin Cartan matrix on vertices 1..n, C_ext the
    (n+1) x (n+1) extended one; both equal 2I - A for the respective
    adjacency matrices.
    """

    adjacency: tuple[tuple[int, ...], ...]
    cartan_ext: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]
    delta: tuple[int, ...]


# one shared frozen CartanData per type, built on first use
_CARTAN: dict[ExtDynkinType, CartanData] = {}


def cartan(t: ExtDynkinType) -> CartanData:
    try:
        data = _CARTAN.get(t)
    except TypeError:   # unhashable: build_extended rejects it
        data = None
    if data is None:
        data = _CARTAN[t] = _build_cartan(t)
    return data


def _build_cartan(t: ExtDynkinType) -> CartanData:
    q = build_extended(t)
    n1 = t.n + 1
    adj = [[0] * n1 for _ in range(n1)]
    for a in q.ordinary_arrows:
        adj[a.tail][a.head] += 1
        adj[a.head][a.tail] += 1
    cext = [[(2 if i == j else 0) - adj[i][j] for j in range(n1)] for i in range(n1)]
    cdyn = [[cext[i][j] for j in range(1, n1)] for i in range(1, n1)]
    freeze = lambda m: tuple(tuple(r) for r in m)
    data = CartanData(freeze(adj), freeze(cext), freeze(cdyn), delta_vector(t))
    d = data.delta
    for i in range(n1):
        if sum(data.cartan_ext[i][j] * d[j] for j in range(n1)) != 0:
            raise InternalInconsistency("extended Cartan matrix does not kill delta")
    return data


def dynkin_adjacency(t: DynkinType) -> dict[int, tuple[int, ...]]:
    """Undirected adjacency of the canonical Dynkin diagram on 1..n."""
    return build_dynkin(t).adjacency()


class VertexPermutation(NamedTuple):
    """A bijection on a vertex subset."""

    mapping: tuple[tuple[int, int], ...]

    @staticmethod
    def of(mapping: dict[int, int]) -> "VertexPermutation":
        if sorted(mapping) != sorted(mapping.values()):
            raise DomainError("mapping is not a bijection of its domain")
        return VertexPermutation(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.mapping)


def nakayama(t: DynkinType) -> VertexPermutation:
    """Graph automorphism induced by the Nakayama functor of Pi(Q).

    Identity for A_1, D_even, E_7, E_8; the unique order-2 automorphism
    for A_n (n >= 2), D_odd and E_6, in the canonical labelling.
    """
    n = _require_dynkin(t).n
    verts = range(1, n + 1)
    if t.family == "A":
        return VertexPermutation.of({i: n + 1 - i for i in verts})
    if t.family == "D":
        m = {i: i for i in verts}
        if n % 2 == 1:
            m[n - 1], m[n] = n, n - 1
        return VertexPermutation.of(m)
    if n == 6:
        return VertexPermutation.of({1: 1, 2: 6, 3: 5, 4: 4, 5: 3, 6: 2})
    return VertexPermutation.of({i: i for i in verts})


def _canonical_isomorphism(adjacency: dict[int, frozenset[int]],
                           canon: dict[int, tuple[int, ...]]) -> dict[int, int] | None:
    """The lexicographically smallest isomorphism onto canon, or None.

    The depth-first search assigns the vertices in sorted order and tries
    the labels in sorted order, so its first complete map is the smallest.
    """
    verts = sorted(adjacency)
    cverts = sorted(canon)
    cn = {v: frozenset(canon[v]) for v in cverts}
    degs = {v: len(adjacency[v]) for v in verts}
    cdegs = {v: len(cn[v]) for v in cverts}

    def extend(m: dict[int, int], used: set[int]) -> dict[int, int] | None:
        if len(m) == len(verts):
            return m
        v = verts[len(m)]
        for c in cverts:
            if c in used or cdegs[c] != degs[v]:
                continue
            ok = True
            for w in adjacency[v]:
                if w in m and m[w] not in cn[c]:
                    ok = False
                    break
            for w, mw in m.items():
                if mw in cn[c] and w not in adjacency[v]:
                    ok = False
                    break
            if ok:
                m[v] = c
                if extend(m, used | {c}) is not None:
                    return m
                del m[v]
        return None

    return extend({}, set())


def classify_components(q: LabelledDoubleQuiver, keep: set[int]
                        ) -> list[tuple[DynkinType, tuple[int, ...], dict[int, int]]]:
    """Connected components of the full subquiver on ``keep``, classified.

    Every component of a proper subquiver of an extended Dynkin diagram is
    Dynkin.  A component on m vertices is matched against A_m, D_m and E_m
    in that order by one isomorphism search, and is returned with the first
    map found, the lexicographically smallest isomorphism onto the canonical
    labelling; the Dynkin graphs on m vertices are pairwise non-isomorphic,
    so the type is unique.
    """
    keep = set(keep)
    if q.type is not None and 0 in keep:
        raise DomainError("keep must consist of non-extending vertices")
    if not keep <= set(q.vertices):
        raise DomainError("keep must be a subset of the vertex set")
    adj = {v: frozenset(w for w in q.neighbours(v) if w in keep) for v in keep}
    seen: set[int] = set()
    components = []
    for v in sorted(keep):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        sub = {u: frozenset(adj[u] & comp) for u in comp}
        m = len(comp)
        for family in "ADE" if m in (6, 7, 8) else "AD" if m >= 4 else "A":
            dt = DynkinType(family, m)
            best = _canonical_isomorphism(sub, dynkin_adjacency(dt))
            if best is not None:
                components.append((dt, tuple(sorted(comp)), best))
                break
        else:
            raise InternalInconsistency(f"component {sorted(comp)} is not of ADE shape")
    return components

