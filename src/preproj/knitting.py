"""The knitting algorithm on left-infinite repetition quivers of types ~D
and ~E: pattern construction, short-exact-sequence extraction, and map
extraction with zero-product verification.
"""
from __future__ import annotations

from typing import NamedTuple

from .dynkin import Arrow, ExtDynkinType, LabelledDoubleQuiver, build_extended
from .errors import DomainError, InternalInconsistency
from .pathalg import (Path, PathElement, ZeroProductReport, _term_order, eliminate,
                      model_for, multiply, verify_zero_product)
from .weights import ONE, FieldElem, Weight


class KnitResult(NamedTuple):
    """The sequence 0 -> V_kernel -> sum_j V_j^(a_j) -> V_target -> 0 and
    the completed knitting diagram it is read from.

    ``values[(col, vertex)]`` holds the integer entries (column 1 is the
    rightmost); circled cells are occurrences of S-vertices, the single
    boxed cell holds the starting 1 and the kernel cell the single -1.
    """

    type: ExtDynkinType
    s_vertices: frozenset[int]
    target: int
    values: dict[tuple[int, int], int]
    boxed: tuple[int, int]
    kernel_cell: tuple[int, int]
    multiplicities: dict[int, int]

    @property
    def kernel(self) -> int:
        return self.kernel_cell[1]

    def columns(self) -> int:
        return max(c for c, _ in self.values)

    def is_circled(self, col: int, v: int) -> bool:
        return v in self.s_vertices and (col, v) in self.values

    def sparse(self) -> list[tuple[int, int, int, str]]:
        out = []
        for (c, v), val in sorted(self.values.items()):
            flags = ""
            if (c, v) == self.boxed:
                flags += "b"
            if self.is_circled(c, v):
                flags += "c"
            out.append((c, v, val, flags))
        return out

    def middle_multiset(self) -> tuple[int, ...]:
        out: list[int] = []
        for j in sorted(self.multiplicities):
            out.extend([j] * self.multiplicities[j])
        return tuple(out)


def knit(t: ExtDynkinType, s_vertices, target: int) -> KnitResult:
    """Run the knitting algorithm for S (which must contain 0) onto V_target.

    The diagram is rep(~Q) drawn to the left of column 1 on the extended
    quiver's own tables: sink-class vertices (all Figure-1 arrows pointing
    in) sit in odd columns, source-class vertices in even ones, and a step
    from (col, v) to (col-1, u) runs along the adjacency {u, v}.  Steps
    out of an even column stay inside a copy and carry ordinary arrows,
    steps out of an odd column run between copies and carry reverse ones.
    Columns fill right to left; the value at (col+1, k) is the sum over
    uncircled neighbours in col minus the uncircled value at (col-1, k);
    the run stops when a -1 appears.  A value never changes once written
    and the seeded cells are 0 or 1, so each is checked as it is written.
    """
    q = build_extended(t)
    if t.family not in ("D", "E"):
        raise DomainError(f"knitting supports types ~D and ~E, not {t}")
    sinks = q.sink_class()
    columns = (frozenset(q.vertices) - sinks, sinks)   # indexed by col % 2
    try:
        vertices = (*s_vertices, target)
    except TypeError:   # S is not a collection
        raise DomainError(f"S must be a set of vertices, not {s_vertices!r}") from None
    if any(v.__class__ is not int for v in vertices):
        raise DomainError(f"vertices must be ints, not S = {vertices[:-1]!r}, target {target!r}")
    s = frozenset(vertices[:-1])
    if 0 not in s:
        raise DomainError("S must contain the extending vertex 0")
    if not s <= set(q.vertices):
        raise DomainError("S must be a set of vertices")
    if target in s:
        raise DomainError("the target vertex must lie outside S")
    if target not in q.vertices:
        raise DomainError(f"vertex {target} is not in {t}")

    start_col = 1 if target in sinks else 2
    values: dict[tuple[int, int], int] = {}
    for col in range(1, start_col):
        for v in columns[col % 2]:
            values[(col, v)] = 0
    for v in columns[start_col % 2]:
        values[(start_col, v)] = 1 if v == target else 0

    guard = 4 * t.dynkin.coxeter_number + 4
    kernel_cell = None
    col = start_col
    while kernel_cell is None:
        col += 1
        if col > guard:
            raise DomainError(f"knitting exceeded the column guard {guard}")
        for k in columns[col % 2]:
            total = 0
            for j in q.neighbours(k):
                if j in s:
                    continue
                total += values.get((col - 1, j), 0)
            if k not in s:
                total -= values.get((col - 2, k), 0)
            values[(col, k)] = total
            if total == -1:
                kernel_cell = (col, k)
            elif total < -1:
                raise InternalInconsistency("knitting placed a value below -1")

    minus_ones = [cell for cell, val in values.items() if val == -1]
    if len(minus_ones) != 1:
        raise InternalInconsistency(f"expected exactly one -1, found {len(minus_ones)}")
    mult = {j: 0 for j in sorted(s)}
    for (c, v), val in values.items():
        if v in s:
            mult[v] += val
    if any(a < 0 for a in mult.values()):
        raise InternalInconsistency("negative middle multiplicity")
    if kernel_cell[1] in s:
        raise InternalInconsistency("kernel vertex landed in S")
    return KnitResult(t, s, target, values, (start_col, target), kernel_cell, mult)


def render_pattern(r: KnitResult) -> str:
    """Monospace grid, rightmost column first; (v) circled, [v] boxed."""
    ncols = r.columns()
    verts = sorted({v for _, v in r.values})
    width = max(len(str(val)) for val in r.values.values()) + 2
    lines = []
    for v in verts:
        cells = []
        for col in range(ncols, 0, -1):
            if (col, v) not in r.values:
                cells.append(" " * width)
                continue
            val = str(r.values[(col, v)])
            if (col, v) == r.boxed:
                val = f"[{val}]"
            elif r.is_circled(col, v):
                val = f"({val})"
            cells.append(val.rjust(width))
        lines.append(f"v{v} |" + "".join(cells))
    return "\n".join(lines)


class ExtractedMaps(NamedTuple):
    """Maps for the knitted sequence; entries are Hom-space elements.

    psi[k]: V_{j_k} -> V_target and phi[k]: V_kernel -> V_{j_k}, indexed by
    the circled 1-cells of the pattern.  The maps are resolved when the phi
    with psi.phi = 0 is unique up to scale, has every entry nonzero, and the
    product was certified; otherwise psi, phi and report are None.
    """

    psi: tuple[PathElement, ...] | None
    phi: tuple[PathElement, ...] | None
    report: ZeroProductReport | None

    @property
    def resolved(self) -> bool:
        return self.psi is not None


def _pattern_walk(r: KnitResult, q: LabelledDoubleQuiver, start: tuple[int, int],
                  end: tuple[int, int]) -> Path:
    """psi for the circled cell start: the first rightward pattern walk,
    depth first, from start to the box end through nonzero uncircled cells,
    read backwards on the quiver's own arrows."""
    walk = _walk(r, q, start, end, [])
    if walk is None:
        raise DomainError(f"no pattern path from {start} to the box")
    return walk


def _walk(r: KnitResult, q: LabelledDoubleQuiver, cell: tuple[int, int], end: tuple[int, int],
          steps: list[Arrow]) -> Path | None:
    """The first walk from cell to end after steps, or None.  A module
    function, not a closure: a closure that calls itself is a reference
    cycle, which would keep r alive until the cyclic collector runs."""
    col, v = cell
    if cell == end:
        return Path(end[1], tuple(reversed(steps)))
    if col <= end[0]:
        return None
    for u in q.neighbours(v):
        nxt = (col - 1, u)
        if nxt != end and (r.values.get(nxt, 0) == 0 or u in r.s_vertices):
            continue
        if nxt[0] < end[0] or (nxt[0] == end[0] and u != end[1]):
            continue
        back = next(a for a in q.arrows_from(u) if a.head == v)
        walk = _walk(r, q, nxt, end, steps + [back])
        if walk is not None:
            return walk
    return None


def _leading(x: PathElement) -> FieldElem:
    """Coefficient of the first term in printed order."""
    return x.terms[min(x.terms, key=_term_order)]


def extract_maps(r: KnitResult) -> ExtractedMaps:
    """Maps read off the pattern, with phi from one linear solve.

    psi_k is the first pattern walk from the k-th circled 1-cell to the
    box, read backwards.  phi_k ranges over the weight-0 basis of
    e_{j_k} Pi e_kernel in degree kcol - col_k, read off the summand
    e_{j_k} Pi.  psi.phi lies in the summand of the target, and psi.phi = 0
    is a linear system in the coefficients of phi, whose solutions are the
    null rows of ``eliminate``.  The maps are resolved when the solutions
    form a line whose phi entries are all nonzero; the solution is scaled so
    that the leading term of phi_0 is 1, each (psi_k, phi_k) with a negative
    leading phi coefficient is negated, and the product is certified.
    """
    q = build_extended(r.type)
    summands = tuple(sorted((cell for cell, val in r.values.items()
                             if val == 1 and cell[1] in r.s_vertices),
                            key=lambda cell: (cell[1], cell[0])))
    if sum(r.multiplicities.values()) != len(summands):
        return ExtractedMaps(None, None, None)

    w0 = Weight.of([0] * (r.type.n + 1))
    models = model_for(r.type, w0)
    kcol, kvert = r.kernel_cell
    psi: list[PathElement] = []
    unknowns: list[tuple[int, Path]] = []
    for k, cell in enumerate(summands):
        psi.append(PathElement.of_path(_pattern_walk(r, q, cell, r.boxed)))
        length = kcol - cell[0]
        model = models[cell[1]]
        model.extend_to(length)
        for bid in model.layers[length]:
            b = model.basis[bid]
            if b.target == kvert:
                unknowns.append((k, b))
    # every psi entry starts at the target, so the products lie in its summand
    model = models[r.target]
    columns = [model.nf(multiply(psi[k], PathElement.of_path(rep))) for k, rep in unknowns]
    _, solutions = eliminate(columns)
    if len(solutions) != 1:
        return ExtractedMaps(None, None, None)
    terms: list[dict[Path, FieldElem]] = [{} for _ in summands]
    for j, (k, rep) in enumerate(unknowns):
        if j in solutions[0]:
            terms[k][rep] = solutions[0][j]
    if not all(terms):
        return ExtractedMaps(None, None, None)
    phi = [PathElement(t) for t in terms]
    scale = ONE / _leading(phi[0])
    for k in range(len(phi)):
        sign = -1 if _leading(phi[k]) * scale < 0 else 1
        psi[k], phi[k] = psi[k].scale(sign), phi[k].scale(scale * sign)
    report = verify_zero_product(r.type, w0, [psi], [[x] for x in phi])
    if not report.ok:
        raise InternalInconsistency("a nullspace vector of psi.phi does not vanish")
    return ExtractedMaps(tuple(psi), tuple(phi), report)

