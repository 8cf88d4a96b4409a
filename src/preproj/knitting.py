"""The knitting algorithm on left-infinite repetition quivers of types ~D
and ~E: pattern construction, short-exact-sequence extraction, and map
extraction with zero-product verification.
"""
from __future__ import annotations

from dataclasses import dataclass

from .dynkin import Arrow, ExtDynkinType, build_extended
from .errors import DomainError, InternalInconsistency
from .pathalg import (Path, PathElement, ZeroProductReport, model_for,
                      multiply, verify_zero_product)
from .weights import Weight

# walks kept per search, in depth-first order (see _free_walks)
WALK_LIMIT = 64
# sign/candidate assignments tried before extract_maps gives up
SIGN_BUDGET = 4096


class RepetitionQuiver:
    """Column structure of rep(~Q), drawn to the left of column 1.

    Sink-class vertices (all Figure-1 arrows pointing in) sit in odd
    columns, source-class vertices in even ones; arrows run from
    (col+1, u) to (col, v) for every adjacency {u, v}.  Steps inside a copy
    (even column to odd column) carry ordinary arrows, steps between
    copies carry reverse arrows.  Types ~D and ~E have simple edges, so one
    arrow of the double runs u -> v for each adjacency.
    """

    def __init__(self, t: ExtDynkinType):
        if t.family not in ("D", "E"):
            raise DomainError(f"knitting supports types ~D and ~E, not {t}")
        self.type = t
        self.quiver = build_extended(t)
        self.sinks = self.quiver.sink_class()
        self.steps = {(a.tail, a.head): a for a in self.quiver.arrows}

    def column_class(self, col: int) -> frozenset[int]:
        if col % 2 == 1:
            return self.sinks
        return frozenset(self.quiver.vertices) - self.sinks

    def column_of(self, v: int, base: int) -> int:
        """Smallest column >= base holding vertex v."""
        return base if v in self.column_class(base) else base + 1

    def step_arrow(self, col_from: int, u: int, v: int) -> Arrow:
        """The double-quiver arrow u -> v for a step (col_from -> col_from-1)."""
        a = self.steps.get((u, v))
        if a is None:
            raise DomainError(f"{u} and {v} are not adjacent")
        if a.reverse == (col_from % 2 == 0):
            raise InternalInconsistency(f"arrow {a} does not step out of column {col_from}")
        return a


@dataclass(frozen=True)
class Pattern:
    """A completed knitting diagram.

    ``values[(col, vertex)]`` holds the integer entries (column 1 is the
    rightmost); circled cells are occurrences of S-vertices, the single
    boxed cell holds the starting 1.
    """

    type: ExtDynkinType
    s_vertices: frozenset[int]
    target: int
    values: dict[tuple[int, int], int]
    boxed: tuple[int, int]
    kernel_cell: tuple[int, int]

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


@dataclass(frozen=True)
class KnitResult:
    """Data of the sequence 0 -> V_kernel -> sum_j V_j^(a_j) -> V_target -> 0."""

    type: ExtDynkinType
    s_vertices: frozenset[int]
    target: int
    kernel: int
    multiplicities: dict[int, int]
    pattern: Pattern

    def middle_multiset(self) -> tuple[int, ...]:
        out: list[int] = []
        for j in sorted(self.multiplicities):
            out.extend([j] * self.multiplicities[j])
        return tuple(out)


def knit(t: ExtDynkinType, s_vertices, target: int) -> KnitResult:
    """Run the knitting algorithm for S (which must contain 0) onto V_target.

    Columns fill right to left; the value at (col+1, k) is the sum over
    uncircled neighbours in col minus the uncircled value at (col-1, k);
    the run stops when a -1 appears.
    """
    rq = RepetitionQuiver(t)
    s = frozenset(int(v) for v in s_vertices)
    if 0 not in s:
        raise DomainError("S must contain the extending vertex 0")
    if not s <= set(rq.quiver.vertices):
        raise DomainError("S must be a set of vertices")
    if target in s:
        raise DomainError("the target vertex must lie outside S")
    if target not in rq.quiver.vertices:
        raise DomainError(f"vertex {target} is not in {t}")

    start_col = rq.column_of(target, 1)
    values: dict[tuple[int, int], int] = {}
    for col in range(1, start_col):
        for v in rq.column_class(col):
            values[(col, v)] = 0
    for v in rq.column_class(start_col):
        values[(start_col, v)] = 1 if v == target else 0

    guard = 4 * t.dynkin.coxeter_number + 4
    kernel_cell = None
    col = start_col
    while kernel_cell is None:
        col += 1
        if col > guard:
            raise DomainError(f"knitting exceeded the column guard {guard}")
        for k in rq.column_class(col):
            total = 0
            for j in rq.quiver.neighbours(k):
                if j in s:
                    continue
                total += values.get((col - 1, j), 0)
            if k not in s:
                total -= values.get((col - 2, k), 0)
            values[(col, k)] = total
            if total == -1:
                kernel_cell = (col, k)
        if any(val < -1 for val in values.values()):
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
    kernel = kernel_cell[1]
    if kernel in s:
        raise InternalInconsistency("kernel vertex landed in S")
    pattern = Pattern(t, s, target, values, (start_col, target), kernel_cell)
    return KnitResult(t, s, target, kernel, mult, pattern)


def render_pattern(p: Pattern | None) -> str:
    """Monospace grid, rightmost column first; (v) circled, [v] boxed."""
    if p is None or not p.values:
        return ""
    ncols = p.columns()
    verts = sorted({v for _, v in p.values})
    width = max(len(str(val)) for val in p.values.values()) + 2
    lines = []
    for v in verts:
        cells = []
        for col in range(ncols, 0, -1):
            if (col, v) not in p.values:
                cells.append(" " * width)
                continue
            val = str(p.values[(col, v)])
            if (col, v) == p.boxed:
                val = f"[{val}]"
            elif p.is_circled(col, v):
                val = f"({val})"
            cells.append(val.rjust(width))
        lines.append(f"v{v} |" + "".join(cells))
    return "\n".join(lines)


@dataclass(frozen=True)
class ExtractedMaps:
    """Maps for the knitted sequence; entries are Hom-space elements.

    psi[k]: V_{j_k} -> V_target and phi[k]: V_kernel -> V_{j_k}, indexed by
    the circled 1-cells of the pattern.  ``resolved`` says a sign/candidate
    assignment with psi.phi = 0 was certified; otherwise the candidate
    lists are still returned.
    """

    result: KnitResult
    summands: tuple[tuple[int, int], ...]
    psi: tuple[PathElement, ...] | None
    phi: tuple[PathElement, ...] | None
    resolved: bool
    psi_candidates: tuple[tuple[PathElement, ...], ...]
    phi_candidates: tuple[tuple[PathElement, ...], ...]
    report: ZeroProductReport | None = None


def _pattern_walks(p: Pattern, rq: RepetitionQuiver, start: tuple[int, int],
                   end: tuple[int, int]) -> list[Path]:
    """Rightward pattern walks from start to end through nonzero uncircled cells."""
    out: list[Path] = []

    def go(cell: tuple[int, int], path: list[Arrow]) -> None:
        if len(out) >= WALK_LIMIT:
            return
        col, v = cell
        if cell == end:
            out.append(Path(start[1], tuple(path)))
            return
        if col <= end[0]:
            return
        for u in rq.quiver.neighbours(v):
            nxt = (col - 1, u)
            if nxt != end and (p.values.get(nxt, 0) == 0 or u in p.s_vertices):
                continue
            if nxt[0] < end[0] or (nxt[0] == end[0] and u != end[1]):
                continue
            go(nxt, path + [rq.step_arrow(col, v, u)])

    go(start, [])
    return out


def _reverse_path(p: Path) -> Path:
    arrows = tuple(a.reversed_arrow() for a in reversed(p.arrows))
    return Path(p.target, arrows)


def extract_maps(r: KnitResult) -> ExtractedMaps:
    """Candidate maps read off the pattern, with a bounded search for a
    sign/candidate assignment certified by a zero product.

    psi components reverse pattern walks from circled 1-cells to the box
    through nonzero uncircled cells; phi components are degree-correct
    walks from the kernel cell back to each circled 1-cell.
    """
    rq = RepetitionQuiver(r.type)
    p = r.pattern
    summands = tuple(sorted((cell for cell, val in p.values.items()
                             if val == 1 and cell[1] in r.s_vertices),
                            key=lambda cell: (cell[1], cell[0])))
    if sum(r.multiplicities.values()) != len(summands):
        return ExtractedMaps(r, summands, None, None, False, (), ())

    psi_cands: list[tuple[PathElement, ...]] = []
    phi_cands: list[tuple[PathElement, ...]] = []
    kcol, kvert = p.kernel_cell
    for cell in summands:
        walks = _pattern_walks(p, rq, cell, p.boxed)
        if not walks:
            raise DomainError(f"no pattern path from {cell} to the box")
        psi_cands.append(tuple(PathElement.of_path(_reverse_path(w)) for w in walks))
        length = kcol - cell[0]
        phis = _free_walks(rq, cell[1], kvert, length)
        if not phis:
            raise DomainError(f"no degree-{length} walk from {cell[1]} to {kvert}")
        phi_cands.append(tuple(PathElement.of_path(w) for w in phis))

    w0 = Weight.of([0] * (r.type.n + 1))
    budget = SIGN_BUDGET

    def assignments(cands: list[tuple[PathElement, ...]]):
        def rec(k: int, chosen: list[PathElement]):
            if k == len(cands):
                yield list(chosen)
                return
            for elt in cands[k]:
                for sign in ((1, -1) if k > 0 else (1,)):
                    chosen.append(elt.scale(sign))
                    yield from rec(k + 1, chosen)
                    chosen.pop()
        yield from rec(0, [])

    model = model_for(r.type, w0)
    for psi_choice in assignments(psi_cands):
        for phi_choice in assignments(phi_cands):
            budget -= 1
            if budget < 0:
                return ExtractedMaps(r, summands, None, None, False,
                                     tuple(psi_cands), tuple(phi_cands))
            total = PathElement.sum(multiply(x, y) for x, y in zip(psi_choice, phi_choice))
            if model.is_zero(total):
                psi_choice, phi_choice = _normalize_signs(psi_choice, phi_choice)
                report = verify_zero_product(r.type, w0, [psi_choice],
                                             [[x] for x in phi_choice])
                return ExtractedMaps(r, summands, tuple(psi_choice),
                                     tuple(phi_choice), True,
                                     tuple(psi_cands), tuple(phi_cands), report)
    return ExtractedMaps(r, summands, None, None, False,
                         tuple(psi_cands), tuple(phi_cands))


def _normalize_signs(psi: list[PathElement], phi: list[PathElement]):
    """Flip (psi_k, phi_k) pairs so each phi entry has a positive sign;
    the product is unchanged."""
    out_psi, out_phi = [], []
    for pk, fk in zip(psi, phi):
        coef = next(iter(fk.terms.values()))
        if coef < 0:
            pk, fk = pk.scale(-1), fk.scale(-1)
        out_psi.append(pk)
        out_phi.append(fk)
    return out_psi, out_phi


def _free_walks(rq: RepetitionQuiver, start: int, end: int, length: int) -> list[Path]:
    """Walks of the given length from start to end in the double, sorted by name.

    The search is depth first over ``arrows_from`` and keeps only the first
    ``WALK_LIMIT`` walks it meets, so a longer walk list is cut before the sort;
    ~E7 6 -> 1 and ~E8 7 -> 6 in the golden corpus reach the limit.
    """
    out: list[Path] = []

    def go(v: int, remaining: int, arrows: list[Arrow]) -> None:
        if len(out) >= WALK_LIMIT:
            return
        if remaining == 0:
            if v == end:
                out.append(Path(start, tuple(arrows)))
            return
        for a in rq.quiver.arrows_from(v):
            go(a.head, remaining - 1, arrows + [a])

    go(start, length, [])
    out.sort(key=lambda p: p.name())
    return out
