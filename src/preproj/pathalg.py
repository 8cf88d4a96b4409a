"""Exact arithmetic in path algebras of double quivers modulo the deformed
preprojective relations.

The workhorse is a layer-by-layer normal-form construction of Pi^lambda,
one projective summand e_v Pi^lambda (the paths that start at v) at a time:
filtering by path length, each new layer is presented by symbols
(basis element, arrow) modulo one relation row per lower basis element, and
one exact elimination, ``eliminate``, yields multiplication tables.  It is
one Gauss-Jordan pass that keeps its rows reduced as they are added, keyed
by pivot column.  A pivot symbol's table entry is read off the symbol half
of its reduced row, and the layer's ``Step`` keeps only the provenance
half, keyed by the symbol, and the null rows; raw relation row r of
degree d is read off as c.rho_v for c = layers[d-2][r].  Neither
a symbol nor a relation row c.rho_w leaves the source of c, so a summand is
built on its own, and ``model_for`` hands out one summand per vertex, each
built only as far as the queries in it need.  Because
the associated graded algebra of Pi^lambda is the undeformed Pi, a query
element lies in the relation ideal exactly when its normal form vanishes,
and an explicit membership certificate comes from one pass over the table
entries, top layer down, each pivot entry expanded once through its reduced
row's provenance (``QuotientModel.certificate``); ``knitting`` takes its
nullspaces from ``eliminate``'s null rows.
The same fact makes the symbol elimination independent of lambda: each
weight-0 summand eliminates once, and the deformed summand at the same
vertex reuses its basis and steps and solves only for the tails below each
layer.  The coefficient ring follows the inputs.  The weight-0 tables are
over Z: their entries, provenance and normal forms are Python ints (a
Fraction only after a pivot other than 1 or -1, which no type has shown).
A real lambda_v, and a real coefficient of a query, enters as its exact
rational, an int or a Fraction, so a real weight's tails, normal forms and
certificate sums stay on the rationals; every sum starts at its first term,
since a start at ZERO would make them field elements.  Field elements enter
only through a Gaussian lambda_v or coefficient, and public values are
built as field elements once, at output: the coefficients of a
``PathElement`` and of a certificate's terms.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .dynkin import (Arrow, DynkinType, ExtDynkinType, Frozen, LabelledDoubleQuiver,
                     build_dynkin, build_extended, nakayama)
from .errors import DomainError, InternalInconsistency
from .weights import FieldElem, Weight, ZERO, ONE, _check_length

# a coefficient inside the engine: an exact rational, or a field element
# where a Gaussian part has entered
Scalar = int | Fraction | FieldElem

# ---------------------------------------------------------------------------
# paths and path elements


class Path(Frozen):
    """An immutable composable arrow sequence, read left to right; () is
    trivial.

    The public constructor walks the arrows and raises DomainError where
    one does not compose.  ``then`` and ``concat`` extend a valid path by an
    arrow or a valid path, so they check only the join and build the result
    with the trusted ``_path``.  The target and the hash are stored: paths
    key the terms of every element (a model's tables are keyed by
    (basis id, arrow id) instead).  The hash folds in one arrow id at a
    time, so an extension extends its prefix's hash."""

    __slots__ = ("source", "arrows", "target", "_hash")
    _args = __slots__[:2]

    def __init__(self, source: int, arrows: tuple[Arrow, ...]):
        at, h = source, source
        for a in arrows:
            if a.tail != at:
                raise DomainError(f"arrow {a.name} does not compose at vertex {at}")
            at, h = a.head, hash((h, a.id))
        _set_path(self, source, arrows, at, h)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Path:
            return NotImplemented
        return self.source == other.source and self.arrows == other.arrows

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.arrows)

    def concat(self, other: "Path") -> "Path":
        if self.target != other.source:
            raise DomainError("paths do not compose")
        h = self._hash
        for a in other.arrows:
            h = hash((h, a.id))
        return _path(self.source, self.arrows + other.arrows, other.target, h)

    def then(self, a: Arrow) -> "Path":
        if a.tail != self.target:
            raise DomainError(f"arrow {a.name} does not compose at vertex {self.target}")
        return _path(self.source, self.arrows + (a,), a.head, hash((self._hash, a.id)))

    def name(self) -> str:
        return ".".join(a.name for a in self.arrows) if self.arrows else "e"

    def __str__(self) -> str:
        return f"{self.name()}:{self.source}->{self.target}"


_set_source, _set_arrows, _set_target, _set_hash = (getattr(Path, s).__set__
                                                    for s in Path.__slots__)


def _set_path(p: Path, source: int, arrows: tuple[Arrow, ...], target: int, h: int) -> None:
    # the captured slot setters: paths are built in the inner loops, where
    # the keyword call of Frozen._set would double the cost of a Path
    _set_source(p, source)
    _set_arrows(p, arrows)
    _set_target(p, target)
    _set_hash(p, h)


def _path(source: int, arrows: tuple[Arrow, ...], target: int, h: int) -> Path:
    """The trusted constructor: the arrows compose from source to target
    and h is their hash."""
    p = object.__new__(Path)
    _set_path(p, source, arrows, target, h)
    return p


def trivial_path(v: int) -> Path:
    return Path(v, ())


def parse_path(q: LabelledDoubleQuiver, text: str, source: int | None = None) -> Path:
    """Parse "a0.~a1.a2" against a quiver; "e" needs an explicit source."""
    text = text.strip()
    if text in ("e", ""):
        if source is None:
            raise DomainError("trivial path needs an explicit source vertex")
        return Path(source, ())
    arrows = tuple(q.arrow(tok) for tok in text.split("."))
    return Path(source if source is not None else arrows[0].tail, arrows)


class PathElement:
    """A finite field-linear combination of paths sharing source and target.

    The public constructor coerces each coefficient with ``FieldElem.of``,
    drops the zeros and checks the shared endpoints; ``multiply`` and
    ``scale`` build their results with the trusted ``_element``, since a
    product or a multiple of elements shares its endpoints by construction.
    ``+`` and ``-`` take only another element."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Path, FieldElem] | None = None):
        clean = {p: x for p, c in (terms or {}).items() if (x := FieldElem.of(c))}
        srcs = {p.source for p in clean}
        tgts = {p.target for p in clean}
        if len(srcs) > 1 or len(tgts) > 1:
            raise DomainError("paths in an element must share source and target")
        self.terms = clean

    @staticmethod
    def of_path(p: Path, coef=1) -> "PathElement":
        return PathElement({p: FieldElem.of(coef)})

    @property
    def source(self) -> int | None:
        return next(iter(self.terms)).source if self.terms else None

    @property
    def target(self) -> int | None:
        return next(iter(self.terms)).target if self.terms else None

    @property
    def degree(self) -> int:
        """Filtration degree: the longest path present (-1 for zero)."""
        return max((len(p) for p in self.terms), default=-1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    @staticmethod
    def sum(parts) -> "PathElement":
        """The sum of the parts in one dict; a path whose coefficient cancels
        is dropped at once, so a later term for it comes last, as after +."""
        out: dict[Path, FieldElem] = {}
        for part in parts:
            for p, c in part.terms.items():
                out[p] = out.get(p, ZERO) + c
                if not out[p]:
                    del out[p]
        return PathElement(out)

    def __add__(self, other: "PathElement") -> "PathElement":
        return PathElement.sum((self, other)) if isinstance(other, PathElement) else NotImplemented

    def __sub__(self, other: "PathElement") -> "PathElement":
        return self + -other if isinstance(other, PathElement) else NotImplemented

    def scale(self, c) -> "PathElement":
        c = FieldElem.of(c)
        return _element({p: x * c for p, x in self.terms.items()} if c else {})

    def __neg__(self) -> "PathElement":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, PathElement) and self.terms == other.terms

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"PathElement({format_element(self)!r})"


def _element(terms: dict[Path, FieldElem]) -> PathElement:
    """The trusted constructor: the coefficients are nonzero and the paths
    share source and target."""
    x = object.__new__(PathElement)
    x.terms = terms
    return x


def multiply(a: PathElement, b: PathElement) -> PathElement:
    """Bilinear extension of concatenation; pq = 0 when endpoints mismatch.
    The paths of a share one target and those of b one source, so the
    endpoints are compared once."""
    out: dict[Path, FieldElem] = {}
    if a.terms and a.target == b.source:
        for p, cp in a.terms.items():
            for q, cq in b.terms.items():
                pq = p.concat(q)
                out[pq] = out.get(pq, ZERO) + cp * cq
    return _element({p: c for p, c in out.items() if c})


def _term_order(p: Path) -> tuple[int, str]:
    """The printed order of an element's terms: by length, then by name."""
    return len(p), p.name()


def format_element(x: PathElement) -> str:
    if not x.terms:
        return "0"
    bits = []
    for p in sorted(x.terms, key=_term_order):
        c = x.terms[p]
        bits.append(f"{c} * {p.name()} : {p.source}->{p.target}")
    return "  +  ".join(bits)


# ---------------------------------------------------------------------------
# relations


def relation_set(q: LabelledDoubleQuiver, weight: dict[int, FieldElem]) -> dict[int, PathElement]:
    """rho_v = sum_{t(a)=v} a.~a - sum_{h(a)=v} ~a.a - lambda_v e_v: the
    quadratic part is the quiver's ``rho`` table."""
    rels = {}
    for v in q.vertices:
        terms = {Path(v, (q.by_id[f], q.by_id[s])): sign for sign, f, s in q.rho[v]}
        terms[trivial_path(v)] = -weight.get(v, ZERO)
        rels[v] = PathElement(terms)
    return rels


# ---------------------------------------------------------------------------
# the normal-form engine


class Step(NamedTuple):
    """The elimination that built layer d of a weight-0 summand, shared by
    the deformed summands at its vertex: the provenance of each pivot
    symbol's reduced row, keyed like ``mul`` by (basis id, arrow id), and
    the provenance of each null row.  Raw relation row r is c.rho_v for
    c = layers[d-2][r] and v the target of c; the symbol half of a reduced
    row is not kept, since ``mul`` holds the same numbers.  The entries
    are ints, or Fractions."""

    prov: dict[tuple[int, int], dict[int, int | Fraction]]
    nulls: list[dict[int, int | Fraction]]


class QuotientModel:
    """Filtered basis and multiplication tables for one projective summand
    e_v Pi^lambda of a double quiver, the paths that start at v, built one
    path-length layer at a time.  Basis element 0 is the trivial path e_v.

    Every symbol entry of a relation row comes from the top-degree part of
    the tables, which does not depend on lambda (gr Pi^lambda = Pi).  So the
    basis and the steps belong to the weight-0 summand at v, and a summand
    at a nonzero weight shares them and solves only for the tails below
    each new layer."""

    def __init__(self, quiver: LabelledDoubleQuiver, source: int,
                 lam: dict[int, Scalar], graded: "QuotientModel | None"):
        self.quiver = quiver
        self.source = source
        # the nonzero lambda_w by vertex, a real one as its exact rational,
        # shared by the summands of one algebra
        self.lam = lam
        # (basis id, arrow id) -> normal form of basis element times arrow,
        # on ints at weight 0 and on the rationals at a real weight
        self.mul: dict[tuple[int, int], dict[int, Scalar]] = {}
        # the nonzero parts of mul below the top degree (none at weight 0)
        self.low: dict[tuple[int, int], dict[int, Scalar]] = {}
        # the weight-0 summand at the same vertex, or None when this is it
        self.graded = graded
        if graded is not None:
            # basis element i is its representative path; its degree is the length
            self.basis: list[Path] = graded.basis
            # per degree: the elimination that built the layer, read again
            # by the deformed layers and the certificates
            self.steps: list[Step] = graded.steps
            self.layers: list[list[int]] = [graded.layers[0]]
        else:
            self.basis = [trivial_path(source)]
            self.steps = [Step({}, [])]
            self.layers = [[0]]

    # -- layer construction -------------------------------------------------

    def max_degree(self) -> int:
        return len(self.layers) - 1

    def extend_to(self, degree: int) -> None:
        while self.max_degree() < degree:
            self._build_layer(self.max_degree() + 1)

    def _build_layer(self, d: int) -> None:
        if self.graded is None:
            self._build_graded_layer(d)
        else:
            self._build_deformed_layer(d)

    def _symbols(self, d: int) -> list[tuple[int, Arrow]]:
        """The symbols of layer d, (basis id, arrow), in column order."""
        basis, arrows_from = self.basis, self.quiver.arrows_from
        return [(bid, a) for bid in self.layers[d - 1] for a in arrows_from(basis[bid].target)]

    def _build_graded_layer(self, d: int) -> None:
        """Symbols, relation rows and their elimination; at weight 0 every
        product is homogeneous, so the rows have no tails."""
        syms = self._symbols(d)
        sym_index = {(bid, a.id): k for k, (bid, a) in enumerate(syms)}
        sym_rows: list[dict[int, int]] = []
        for cid in self.layers[d - 2] if d >= 2 else ():
            sym: dict[int, int] = {}
            for sign, first, second in self.quiver.rho[self.basis[cid].target]:
                for bid, coef in self.mul[(cid, first)].items():
                    k = sym_index[(bid, second)]
                    sym[k] = sym.get(k, 0) + coef * sign
            sym_rows.append({k: x for k, x in sym.items() if x})
        rows, nulls = eliminate(sym_rows)

        # a non-pivot symbol becomes a basis element of the new layer; a pivot
        # symbol's entry is minus the rest of its reduced row, whose columns
        # all come before the pivot and so already name basis elements
        sym_to_basis: dict[int, int] = {}
        prov: dict[tuple[int, int], dict[int, int]] = {}
        for k, (bid, a) in enumerate(syms):
            key = (bid, a.id)
            if k in rows:
                sym, prov[key] = rows[k]
                self.mul[key] = {sym_to_basis[k2]: -x for k2, x in sym.items() if k2 != k}
                continue
            sym_to_basis[k] = len(self.basis)
            self.mul[key] = {len(self.basis): 1}
            self.basis.append(self.basis[bid].then(a))
        self.layers.append(list(sym_to_basis.values()))
        self.steps.append(Step(prov, nulls))

    def _build_deformed_layer(self, d: int) -> None:
        """The weight-0 layer plus this weight's tails: the raw tail of a
        relation row is its -lambda_v e_v term and the products that fall
        below degree d, and a reduced row's tail is the combination of raw
        tails its provenance names."""
        graded = self.graded
        graded.extend_to(d)
        step = self.steps[d]
        mul, low, rho, lam = self.mul, self.low, self.quiver.rho, self.lam
        tails: list[dict[int, Scalar]] = []
        for cid in self.layers[d - 2] if d >= 2 else ():
            tail: dict[int, Scalar] = {}
            v = self.basis[cid].target
            for sign, first, second in rho[v]:
                below = low.get((cid, first))
                if below is None:
                    continue
                for bid, coef in below.items():
                    _axpy(tail, mul[(bid, second)], coef if sign > 0 else -coef)
            if v in lam:
                x = tail.get(cid)
                tail[cid] = -lam[v] if x is None else x - lam[v]
            tails.append({k: x for k, x in tail.items() if x})
        reduced = _reduced_tails(tails, step.prov, step.nulls)
        self.layers.append(graded.layers[d])
        for bid, a in self._symbols(d):
            key = (bid, a.id)
            tail = reduced.get(key)
            if tail is None:
                mul[key] = graded.mul[key]
                continue
            below = low[key] = {b2: -x for b2, x in tail.items()}
            mul[key] = {**graded.mul[key], **below}

    # -- normal forms --------------------------------------------------------

    def nf_path(self, p: Path) -> dict[int, Scalar]:
        """The normal form of p by basis id: ints at weight 0, rationals at
        a real weight."""
        if p.source != self.source:
            raise DomainError(f"path {p} does not lie in the summand of vertex {self.source}")
        self.extend_to(len(p))
        vec = {0: 1}
        for a in p.arrows:
            vec = self._then(vec, a.id)
        return vec

    def _then(self, vec: dict, aid: int) -> dict:
        """The normal form of vec times the arrow with id aid; a sum starts
        at its first term, not at ZERO, which would make ints field
        elements."""
        out: dict = {}
        for bid, coef in vec.items():
            for b2, c2 in self.mul[(bid, aid)].items():
                x = out.get(b2)
                out[b2] = coef * c2 if x is None else x + coef * c2
        return {k: x for k, x in out.items() if x}

    def nf(self, x: PathElement) -> dict[int, Scalar]:
        """The normal form of x by basis id; a real coefficient of x enters
        as its exact rational."""
        out: dict[int, Scalar] = {}
        for p, coef in x.terms.items():
            _axpy(out, self.nf_path(p), _rational(coef))
        return {k: v for k, v in out.items() if v}

    def is_zero(self, x: PathElement) -> bool:
        return not self.nf(x)

    # -- membership certificates ----------------------------------------------

    def certificate(self, x: PathElement) -> list[tuple[FieldElem, Path, int, Path]] | None:
        """An explicit presentation of x in the relation ideal, or None.

        Terms (coef, u, v, w) satisfy  x = sum coef * u rho_v w  in the free
        path algebra; checkable by plain expansion.

        Write E(b, a) = b.a - nf(b.a) for a basis element b and an arrow a.
        Walking a path arrow by arrow telescopes: p - nf(p) is the sum, over
        the splits p = q.a.r, of nf(q)_b E(b, a) r.  So x, whose normal form
        vanishes, is a combination of table entries E(b, a) r, each in layer
        d = |b| + 1.  E(b, a) is 0 unless (b, a) is a pivot symbol of the
        layer's ``Step``, so only those entries are recorded; then the
        provenance pi of its reduced row gives
          E(b, a) = sum_r pi_r (c rho_v - sum_{sign first.second in rho_v}
                    sign (E(c, first) second
                          + sum_{b2} low[c, first]_{b2} E(b2, second)))
        over the raw rows c.rho_v, and every entry on the right lies in a
        lower layer.  One pass from the top layer down expands each entry
        once, with no division.  The sums run on the exact rationals unless
        the weight or x has a Gaussian part; each coefficient is made a field
        element once, at output.
        """
        if not x:
            return []
        if not self.is_zero(x):
            return None
        basis, steps, layers, low = self.basis, self.steps, self.layers, self.low
        rho, by_id = self.quiver.rho, self.quiver.by_id
        # per layer d: (basis id, arrow id, suffix ids) -> coefficient of E(b, a) r
        pending: list[dict[tuple[int, int, tuple[int, ...]], Scalar]] = [
            {} for _ in range(x.degree + 1)]
        for p, coef in x.terms.items():
            coef = _rational(coef)
            vec = {0: 1}
            ids = tuple(a.id for a in p.arrows)
            for i, a in enumerate(ids):
                for bid, c in vec.items():
                    d = len(basis[bid].arrows) + 1
                    if (bid, a) in steps[d].prov:
                        slot, key = pending[d], (bid, a, ids[i + 1:])
                        y = slot.get(key)
                        slot[key] = coef * c if y is None else y + coef * c
                vec = self._then(vec, a)
        # (basis id, suffix ids) -> coefficient of c rho_v r
        cert: dict[tuple[int, tuple[int, ...]], Scalar] = {}
        for d in range(x.degree, 1, -1):
            prov, raw = steps[d].prov, layers[d - 2]
            lower, lower_prov = pending[d - 1], steps[d - 1].prov
            for (bid, a, r), coef in pending[d].items():
                if not coef:
                    continue
                for j, pj in prov[(bid, a)].items():
                    cid = raw[j]
                    k = coef * pj
                    y = cert.get((cid, r))
                    cert[(cid, r)] = k if y is None else y + k
                    for sign, first, second in rho[basis[cid].target]:
                        # only a pivot symbol has an entry, or a tail in low
                        if (cid, first) not in lower_prov:
                            continue
                        m = -k if sign > 0 else k
                        key = (cid, first, (second,) + r)
                        y = lower.get(key)
                        lower[key] = m if y is None else y + m
                        for b2, c2 in low.get((cid, first), {}).items():
                            d2 = len(basis[b2].arrows) + 1
                            if (b2, second) in steps[d2].prov:
                                slot, key = pending[d2], (b2, second, r)
                                y = slot.get(key)
                                slot[key] = m * c2 if y is None else y + m * c2
        out = []
        for (cid, r), c in cert.items():
            if c:
                u = basis[cid]
                v = h = u.target
                for a in r:
                    h = hash((h, a))
                arrows = tuple(by_id[a] for a in r)
                out.append((FieldElem.of(c), u, v,
                            _path(v, arrows, arrows[-1].head if r else v, h)))
        # by length, then by name: '.' sorts below every character of an
        # arrow name, so names joined with it sort as the words of the
        # arrows' ranks in the string order of their names, one character
        # per arrow
        rank = self.quiver.name_rank
        out.sort(key=lambda t: (len(t[1]), len(t[3]), "".join([rank[a.id] for a in t[1].arrows]),
                                "".join([rank[a.id] for a in t[3].arrows]), t[2]))
        return out


def _rational(c: FieldElem) -> Scalar:
    """A real field element as its exact rational, a Gaussian one as it is."""
    return c if c.im else c.re


def _axpy(dst: dict, src: dict, coef) -> None:
    if not coef:
        return
    for k, v in src.items():
        x = dst.get(k)
        dst[k] = coef * v if x is None else x + coef * v


def _clear(sym: dict, prov: dict, rows: dict[int, tuple[dict, dict]]) -> None:
    """Clear every pivot column of sym with the reduced rows.  A reduced row
    holds no pivot column but its own, so clearing one column brings in no
    other."""
    for pk in [k for k in sym if k in rows]:
        row_sym, row_prov = rows[pk]
        neg = -sym[pk]
        _axpy(sym, row_sym, neg)
        _axpy(prov, row_prov, neg)


def eliminate(sym_rows: list[dict[int, FieldElem]]
              ) -> tuple[dict[int, tuple[dict[int, FieldElem], dict[int, FieldElem]]],
                         list[dict[int, FieldElem]]]:
    """Reduced echelon form of the rows on their columns; the one exact
    elimination of the package, one Gauss-Jordan pass.  Rows of ints stay
    on ints unless a pivot is not 1 or -1, which brings in Fractions; rows
    of field elements give field elements.

    Returns the reduced rows, keyed by pivot column in the order the pivots
    were found, as (sym, prov) pairs, each sym 1 at its pivot, its largest
    column, and prov its combination of the input rows; and the provenance
    of every input row that reduced to zero.  A new row is cleared with the
    rows so far, and its pivot column is then cleared from them, so the rows
    stay reduced.  The null row j has coefficient 1 at j and its other
    entries on earlier independent rows, so the null provenances are the
    reduced basis of the left nullspace."""
    rows: dict[int, tuple[dict[int, FieldElem], dict[int, FieldElem]]] = {}
    nulls: list[dict[int, FieldElem]] = []
    for ridx, sym in enumerate(sym_rows):
        sym, prov = dict(sym), {ridx: 1}
        _clear(sym, prov, rows)
        sym = {k: x for k, x in sym.items() if x}
        prov = {k: x for k, x in prov.items() if x}
        if not sym:
            nulls.append(prov)
            continue
        pk = max(sym)
        p = sym[pk]
        if p != 1:
            # an int pivot is inverted as Fraction(1, p), never as 1 / p,
            # which is a float
            if p == -1:
                inv = -1
            elif p.__class__ is FieldElem:
                inv = ONE / p
            else:
                inv = Fraction(1, p)
            sym = {k: x * inv for k, x in sym.items()}
            prov = {k: x * inv for k, x in prov.items()}
        for k, (row_sym, row_prov) in rows.items():
            if pk in row_sym:
                neg = -row_sym[pk]
                _axpy(row_sym, sym, neg)
                _axpy(row_prov, prov, neg)
                rows[k] = ({c: x for c, x in row_sym.items() if x},
                           {r: x for r, x in row_prov.items() if x})
        rows[pk] = (sym, prov)
    return rows, nulls


def _reduced_tails(tails: list[dict[int, Scalar]], prov: dict[tuple[int, int], dict],
                   nulls: list[dict[int, Scalar]]) -> dict[tuple[int, int], dict[int, Scalar]]:
    """The nonzero tails of the reduced rows, sum_r prov[r] * tails[r],
    keyed by their pivot symbols.  A row whose symbols vanish must lose its
    tail too, or the deformation would not be flat."""
    def combine(p: dict[int, Scalar]) -> dict[int, Scalar]:
        out: dict[int, Scalar] = {}
        for r, c in p.items():
            _axpy(out, tails[r], c)
        return {k: x for k, x in out.items() if x}

    for p in nulls:
        if combine(p):
            raise InternalInconsistency(
                "relation row degenerated below the associated graded algebra")
    return {key: tail for key, p in prov.items() if (tail := combine(p))}


# ---------------------------------------------------------------------------
# model cache and public operations

# keyed by (t, weight entries 0..n); each entry holds the summand
# e_v Pi^lambda of every vertex v
_MODELS: dict[tuple, dict[int, QuotientModel]] = {}


def model_for(t: ExtDynkinType, w: Weight) -> dict[int, QuotientModel]:
    """The summands e_v Pi^lambda of Pi^lambda(~Q), by vertex, each sharing
    the weight-0 summand's elimination at its vertex; a summand builds its
    layers when a query in it first needs them."""
    _check_length(t, w)
    key = (t, w.entries)
    models = _MODELS.get(key)
    if models is None:
        graded = model_for(t, Weight.of([0] * (t.n + 1))) if any(key[1]) else {}
        q, lam = build_extended(t), {v: _rational(x) for v, x in enumerate(key[1]) if x}
        models = _MODELS[key] = {v: QuotientModel(q, v, lam, graded.get(v)) for v in q.vertices}
    return models


def _hilbert(q: LabelledDoubleQuiver, v: int, top: int) -> list[dict[int, int]]:
    """u_0..u_top for u_0 = e_v and u_d = A u_{d-1} - u_{d-2}, A counting
    q's arrows, as ints by vertex with the zeros dropped: row v of
    (1 - A t + t^2)^{-1}, so (u_d)_w = dim e_v Pi_d e_w for an extended
    quiver (Crawley-Boevey-Holland), and below degree h - 1 for a Dynkin
    one, whose series is (1 + P t^h)(1 - A t + t^2)^{-1} for P the
    Nakayama permutation (Malkin-Ostrik-Vybornov)."""
    us, prev = [{v: 1}], {}
    for _ in range(top):
        u = us[-1]
        nxt = {w: -x for w, x in prev.items()}
        for w, x in u.items():
            for a in q.arrows_from(w):
                nxt[a.head] = nxt.get(a.head, 0) + x
        prev = u
        us.append({w: x for w, x in nxt.items() if x})
    return us


def _dynkin_series(q: LabelledDoubleQuiver, t: DynkinType):
    """u_0..u_{h-2} of each vertex i of q = build_dynkin(t) in turn, checked
    against the Nakayama permutation nu: u_{h-1} vanishes, u_{h-2} is
    e_{nu(i)}, and no entry is negative."""
    h, nu = t.coxeter_number, nakayama(t).as_dict()
    for i in q.vertices:
        us = _hilbert(q, i, h - 1)
        if us.pop() or us[-1] != {nu[i]: 1} or any(x < 0 for u in us for x in u.values()):
            raise InternalInconsistency(
                f"the Hilbert series of Pi({t}) at vertex {i} contradicts its Nakayama image")
        yield us


# per Dynkin type: the per-degree sums over every vertex's Hilbert series
# and, by vertex, its per-target sums, from one checked pass
_SERIES_SUMS: dict[DynkinType, tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = {}


def _series_sums(t: DynkinType) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """What ``graded_dims_pi`` and ``hom_matrix`` read off the Hilbert
    series, summed in one pass of ``_dynkin_series``, so its Nakayama check
    runs once per type; only the sums are kept: h - 1 degree sums and n
    rows of n target sums."""
    q = build_dynkin(t)
    sums = _SERIES_SUMS.get(t)
    if sums is None:
        degrees, targets = [], []
        for us in _dynkin_series(q, t):
            degrees.append([sum(u.values()) for u in us])
            row = [0] * t.n
            for u in us:
                for j, x in u.items():
                    row[j - 1] += x
            targets.append(tuple(row))
        sums = _SERIES_SUMS[t] = (tuple(map(sum, zip(*degrees))), tuple(targets))
    return sums


def graded_dims_pi(t: DynkinType) -> tuple[tuple[int, ...], int]:
    """Per-degree dimensions of Pi(Q) for Dynkin Q, and the total, summed
    from the Hilbert series; degree h - 2 is the top.  Shares one pass of
    the series with ``hom_matrix``, cached per type (``_series_sums``)."""
    dims = _series_sums(t)[0]
    return dims, sum(dims)


def hom_matrix(t: DynkinType) -> tuple[tuple[int, ...], ...]:
    """H_ij = dim e_i Pi(Q) e_j over the canonical vertex labels 1..n: the
    Hilbert series of vertex i summed over the degrees.  Shares one pass of
    the series with ``graded_dims_pi``, cached per type (``_series_sums``)."""
    return _series_sums(t)[1]


def _require_element(x) -> None:
    if x.__class__ is not PathElement:
        raise DomainError(f"a PathElement is required here, not {x!r}")


class MembershipCertificate(NamedTuple):
    """x = sum_k coef_k * (left_k rho_{v_k} right_k) in the free algebra."""

    weight: Weight
    element: PathElement
    terms: tuple[tuple[FieldElem, Path, int, Path], ...]


def ideal_member(t: ExtDynkinType, w: Weight, x: PathElement) -> MembershipCertificate | None:
    """A certificate that x lies in the Pi^lambda relation ideal, or None
    when it does not; the layered engine is complete, so no cap is needed.
    Each arrow of x must be one of t's own, or equal to one."""
    _require_element(x)
    models = model_for(t, w)
    if x and x.source not in models:
        raise DomainError(f"vertex {x.source} is not in {t}")
    q = build_extended(t)
    for p in x.terms:
        for a in p.arrows:
            if (own := q.arrow(a.name)) is not a and own != a:
                raise DomainError(f"arrow {a.name}: {a.tail}->{a.head} is not an arrow of {t}")
    terms = models[x.source].certificate(x) if x else []
    return None if terms is None else MembershipCertificate(w, x, tuple(terms))


def check_certificate(t: ExtDynkinType, cert: MembershipCertificate) -> bool:
    """Expand the certificate terms in the free algebra; no linear algebra.

    A path is keyed by its source and its word, one character per arrow id,
    which names it once every arrow is one of t's own: a weight of the
    wrong length, a coefficient that is not a field element, a term whose
    paths do not meet at a vertex of t, or a path with an arrow that is not
    t's own, is rejected unexpanded.  The words of rho_v are read off the
    quiver's ``rho`` table and the weight, once per vertex a term names.  A
    word is a str, so u.rho_v.w is one concatenation, and the keys are
    compact and hashed in C.  The sum runs on the exact rationals unless a
    Gaussian part enters."""
    q = build_extended(t)
    rho, by_id, lam = q.rho, q.by_id, cert.weight.entries
    if len(lam) != len(rho) or any(c.__class__ is not FieldElem or v not in rho
                                   or u.target != v or w.source != v
                                   for c, u, v, w in cert.terms):
        return False
    paths = [p for _, u, _, w in cert.terms for p in (u, w)] + list(cert.element.terms)
    if not all((own := by_id.get(a.id)) is a or own == a for p in paths for a in p.arrows):
        return False
    # rho_v as (word, coefficient) pairs, for each vertex a term names
    rels: dict[int, list[tuple[str, Scalar]]] = {}
    for _, _, v, _ in cert.terms:
        if v not in rels:
            rels[v] = [(chr(first) + chr(second), sign) for sign, first, second in rho[v]]
            if lam[v]:
                rels[v].append(("", -_rational(lam[v])))
    # minus the element, plus each term's words; an entry that cancels is
    # dropped at once, so the dict stays as small as the element's
    total = {(p.source, _word(p)): -_rational(c) for p, c in cert.element.terms.items()}
    for c, u, v, w in cert.terms:
        c, left, right = _rational(c), _word(u), _word(w)
        for word, x in rels[v]:
            key = (u.source, left + word + right)
            y = total.get(key)
            y = c * x if y is None else y + c * x
            if y:
                total[key] = y
            else:
                total.pop(key, None)
    return not any(total.values())


def _word(p: Path) -> str:
    return "".join([chr(a.id) for a in p.arrows])


# ---------------------------------------------------------------------------
# zero products of morphism matrices


class ZeroProductReport(NamedTuple):
    """Outcome of certifying psi . phi = 0 entrywise in Pi^lambda."""

    ok: bool
    certificates: tuple[MembershipCertificate, ...]
    failed_entry: tuple[int, int] | None = None


def verify_zero_product(t: ExtDynkinType, w: Weight,
                        psi: list[list[PathElement]],
                        phi: list[list[PathElement]],
                        degree_cap: int | None = None) -> ZeroProductReport:
    """Compute the matrix product psi.phi and certify every entry lies in
    the relation ideal; entries are composed by path concatenation."""
    if (not psi or not phi or any(len(row) != len(phi) for row in psi)
            or any(len(row) != len(phi[0]) for row in phi)):
        raise DomainError("matrix shapes are not composable")
    if degree_cap is not None and (degree_cap.__class__ is not int or degree_cap < 0):
        raise DomainError(f"degree cap must be None or an int >= 0, got {degree_cap!r}")
    for row in (*psi, *phi):
        for x in row:
            _require_element(x)
    certs = []
    for i in range(len(psi)):
        for j in range(len(phi[0])):
            entry = PathElement.sum(multiply(psi[i][k], phi[k][j]) for k in range(len(phi)))
            if degree_cap is not None and entry.degree > degree_cap:
                raise DomainError(
                    f"entry ({i},{j}) has degree {entry.degree} above the cap {degree_cap}")
            res = ideal_member(t, w, entry)
            if res is None:
                return ZeroProductReport(False, tuple(certs), (i, j))
            certs.append(res)
    return ZeroProductReport(True, tuple(certs))
