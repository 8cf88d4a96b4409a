"""Verification fixtures: dimension tables, the golden list of knitted
short exact sequences, and the explicitly printed map pairs whose zero
products the engine certifies.

Two cells of the source tables are internally inconsistent and carry the
corrections noted in the repository ledger: one entry of the E7 Hom matrix
(forced by symmetry and its own row sum) and two arrow indices in the last
E8 map pair (forced by composability and homogeneity).
"""
from __future__ import annotations

from typing import NamedTuple

from .dynkin import DynkinType, ExtDynkinType, build_extended
from .pathalg import PathElement, parse_path
from .weights import Weight

# ---------------------------------------------------------------------------
# dimension data (Lemma-level formulas and computer-checked tables)


def dim_pi_total(t: DynkinType) -> int:
    """n*h*(h+1)/6 with h the Coxeter number."""
    h = t.coxeter_number
    return t.n * h * (h + 1) // 6


def dim_vertex_module(t: DynkinType, i: int) -> int:
    n = t.n
    if t.family == "A":
        return i * (n + 1 - i)
    if t.family == "D":
        if i <= n - 2:
            return 2 * n * i - i * (i + 1)
        return n * (n - 1) // 2
    return {6: (22, 16, 30, 42, 30, 16),
            7: (34, 66, 96, 75, 52, 27, 49),
            8: (58, 114, 168, 220, 270, 182, 92, 136)}[n][i - 1]


def erdmann_a_entry(n: int, i: int, j: int) -> int:
    """dim e_i Pi(A_n) e_j by the piecewise row description."""
    return min(i, j, n + 1 - i, n + 1 - j)


H_E6 = ((4, 2, 4, 6, 4, 2),
        (2, 2, 3, 4, 3, 2),
        (4, 3, 6, 8, 6, 3),
        (6, 4, 8, 12, 8, 4),
        (4, 3, 6, 8, 6, 3),
        (2, 2, 3, 4, 3, 2))

# row 6, column 5 printed as 6; symmetry and the row sum (27) force 4
H_E7 = ((4, 6, 8, 6, 4, 2, 4),
        (6, 12, 16, 12, 8, 4, 8),
        (8, 16, 24, 18, 12, 6, 12),
        (6, 12, 18, 15, 10, 5, 9),
        (4, 8, 12, 10, 8, 4, 6),
        (2, 4, 6, 5, 4, 3, 3),
        (4, 8, 12, 9, 6, 3, 7))

H_E8 = ((4, 6, 8, 10, 12, 8, 4, 6),
        (6, 12, 16, 20, 24, 16, 8, 12),
        (8, 16, 24, 30, 36, 24, 12, 18),
        (10, 20, 30, 40, 48, 32, 16, 24),
        (12, 24, 36, 48, 60, 40, 20, 30),
        (8, 16, 24, 32, 40, 28, 14, 20),
        (4, 8, 12, 16, 20, 14, 8, 10),
        (6, 12, 18, 24, 30, 20, 10, 16))

H_E = {6: H_E6, 7: H_E7, 8: H_E8}


# ---------------------------------------------------------------------------
# golden knitted sequences


class SequenceFixture(NamedTuple):
    """0 -> V_kernel -> (+)middle -> V_target -> 0, with S = middle + {0}."""

    fixture_id: str
    type: ExtDynkinType
    kernel: int
    middle: tuple[int, ...]
    target: int

    @property
    def s_vertices(self) -> frozenset[int]:
        return frozenset(self.middle) | {0}


def _seq(fid: str, t: ExtDynkinType, kernel: int, middle, target: int) -> SequenceFixture:
    return SequenceFixture(fid, t, kernel, tuple(sorted(middle)), target)


def d_type_sequences(n: int) -> list[SequenceFixture]:
    """Every sequence of the type-D proposition, instantiated at rank n."""
    t = ExtDynkinType("D", n)
    out: list[SequenceFixture] = []
    tag = f"D{n}"
    if n == 4:
        out.append(_seq(f"{tag}-1a", t, 3, [0, 1], 4))
    else:
        out.append(_seq(f"{tag}-1a", t, n - 1, [n - 3], n))
    for m, mp in ((n - 1, n), (n, n - 1)):
        for i in range(1, n - 1):
            if i == 1:
                mid = [0, mp]
            elif i == 2:
                mid = [0, 1, mp]
            else:
                mid = [i - 1, mp]
            out.append(_seq(f"{tag}-1b-m{m}-i{i}", t, i, mid, m))
        out.append(_seq(f"{tag}-1b-m{m}-top", t, m, [n - 2], m))
    for i in range(1, n - 1):
        mid = [0, 1, n - 1, n] if i == 2 else [i - 1, n - 1, n]
        out.append(_seq(f"{tag}-1c-i{i}", t, i, mid, n - 2))
    for i in range(1, n - 2):
        for j in range(i, n - 2):
            if (i, j) == (1, 1):
                out.append(_seq(f"{tag}-1c-11", t, 1, [2], 1))
            elif i == 2:
                out.append(_seq(f"{tag}-1c-i2-j{j}", t, 2, [0, 1, j + 1], j))
            else:
                out.append(_seq(f"{tag}-1c-i{i}-j{j}", t, i, [i - 1, j + 1], j))
    for i in range(0, n - 3):
        for m in (n - 1, n):
            mp = n - 1 + n - m
            kernel = m if (n - i) % 2 == 0 else mp
            mid = [0, 0] if i == 0 else ([0, 1] if i == 1 else [i])
            out.append(_seq(f"{tag}-2-i{i}-m{m}", t, kernel, mid, m))
    return out


_E6_DATA = [
    # (kernel, middle, target) per the E6 proposition, families (1)-(3)
    (1, (0, 4), 1), (2, (3,), 2), (3, (2, 4), 3), (4, (1, 3, 5), 4),
    (5, (4, 6), 5), (6, (5,), 6),
    (1, (0, 3, 5), 4), (2, (4,), 3), (3, (1, 2, 5), 4), (4, (1, 3, 6), 5),
    (5, (4,), 6),
    (1, (0, 2, 5), 3), (1, (0, 3, 6), 5), (2, (1, 5), 4), (3, (1, 2, 6), 5),
    (4, (1, 3), 6),
    (1, (0, 5), 2), (1, (0, 3), 6), (2, (1, 6), 5), (3, (1, 2), 6),
    (2, (1,), 6),
    (3, (0, 2, 2, 6), 3), (5, (0, 2, 6, 6), 5),
    (1, (0, 0, 2, 2), 3), (1, (0, 0, 6, 6), 5),
    (2, (0, 0), 6),
]

_E7_DATA = [
    (1, (0, 2), 1), (2, (1, 3), 2), (3, (2, 4, 7), 3), (4, (3, 5), 4),
    (5, (4, 6), 5), (6, (5,), 6), (7, (3,), 7),
    (1, (0, 3), 2), (2, (1, 4, 7), 3), (3, (2, 5, 7), 4), (4, (3, 6), 5),
    (5, (4,), 6), (3, (2, 4), 7),
    (1, (0, 4, 7), 3), (2, (1, 5, 7), 4), (3, (2, 6, 7), 5), (4, (3,), 6),
    (2, (1, 4), 7), (4, (2, 5), 7),
    (1, (0, 5, 7), 4), (2, (1, 6, 7), 5), (3, (2, 7), 6), (1, (0, 4), 7),
    (5, (2, 6), 7),
    (1, (0, 6, 7), 5), (2, (1, 7), 6), (6, (2,), 7),
    (1, (0, 7), 6),
    (2, (1, 1, 5), 2), (4, (1, 5, 5), 4),
    (4, (0, 5, 5), 7), (2, (1, 1, 6), 7),
    (7, (1, 1), 7),
    (1, (0, 0, 6, 6), 5),
]

_E8_DATA = [
    (1, (0, 2), 1), (2, (1, 3), 2), (3, (2, 4), 3), (4, (3, 5), 4),
    (5, (4, 6, 8), 5), (6, (5, 7), 6), (7, (6,), 7), (8, (5,), 8),
    (1, (0, 3), 2), (2, (1, 4), 3), (3, (2, 5), 4), (4, (3, 6, 8), 5),
    (5, (4, 7, 8), 6), (6, (5,), 7), (5, (4, 6), 8),
    (1, (0, 4), 3), (2, (1, 5), 4), (3, (2, 6, 8), 5), (4, (3, 7, 8), 6),
    (5, (4, 8), 7), (4, (3, 6), 8), (6, (4, 7), 8),
    (1, (0, 5), 4), (2, (1, 6, 8), 5), (3, (2, 7, 8), 6), (4, (3, 8), 7),
    (3, (2, 6), 8), (7, (4,), 8),
    (1, (0, 6, 8), 5), (2, (1, 7, 8), 6), (3, (2, 8), 7), (2, (1, 6), 8),
    (1, (0, 7, 8), 6), (2, (1, 8), 7), (1, (0, 6), 8),
    (1, (0, 8), 7),
    (4, (3, 3, 7), 4), (6, (3, 7, 7), 6),
    (6, (2, 7, 7), 8), (4, (3, 3), 8),
    (8, (1, 7, 7), 8),
    (6, (0, 7, 7, 7), 8),
    (3, (2, 2), 7),
]


def e_type_sequences(n: int) -> list[SequenceFixture]:
    t = ExtDynkinType("E", n)
    data = {6: _E6_DATA, 7: _E7_DATA, 8: _E8_DATA}[n]
    return [_seq(f"E{n}-{k:02d}", t, kern, mid, tgt)
            for k, (kern, mid, tgt) in enumerate(data)]


def golden_knit_fixtures() -> list[SequenceFixture]:
    out: list[SequenceFixture] = []
    for n in range(4, 9):
        out.extend(d_type_sequences(n))
    for n in (6, 7, 8):
        out.extend(e_type_sequences(n))
    return out


def worked_example_fixtures() -> list[SequenceFixture]:
    """The two fully worked knitting runs for ~D5."""
    t5 = ExtDynkinType("D", 5)
    return [_seq("worked-D5-a", t5, 1, (0, 5), 4),
            _seq("worked-D5-b", t5, 5, (0, 0), 4)]


# ---------------------------------------------------------------------------
# printed map pairs


class MapFixture(NamedTuple):
    """A printed pair (phi, psi) with psi.phi = 0, and the Dynkin component
    whose vertices carry the zero weights in the deformed variant."""

    fixture_id: str
    type: ExtDynkinType
    phi: tuple[str, ...]
    psi: tuple[str, ...]
    component: tuple[int, ...]

    def matrices(self) -> tuple[list[list[PathElement]], list[list[PathElement]]]:
        q = build_extended(self.type)
        phi = [[_parse_signed(q, s)] for s in self.phi]
        psi = [[_parse_signed(q, s) for s in self.psi]]
        return psi, phi

    def zero_weight(self) -> Weight:
        """The zero weight on every vertex."""
        return Weight.of([0] * (self.type.n + 1))

    def component_weight(self) -> Weight:
        comp = set(self.component)
        return Weight.of([0 if i in comp else 1 for i in range(self.type.n + 1)])


def _parse_signed(q, token: str) -> PathElement:
    sign = 1
    if token.startswith("-"):
        sign, token = -1, token[1:]
    return PathElement.of_path(parse_path(q, token), sign)


MAP_FIXTURES: tuple[MapFixture, ...] = (
    MapFixture("D4-A3", ExtDynkinType("D", 4),
               ("a0.~a3", "a1.~a3"),
               ("a4.~a0", "a4.~a1"),
               (2, 3, 4)),
    MapFixture("D6-A3", ExtDynkinType("D", 6),
               ("a3.~a5",),
               ("a6.~a3",),
               (4, 5, 6)),
    MapFixture("D8-A3", ExtDynkinType("D", 8),
               ("a5.~a7",),
               ("a8.~a5",),
               (6, 7, 8)),
    MapFixture("D10-A9", ExtDynkinType("D", 10),
               ("a0", "a1", "a9.~a7.a6.~a5.a4.~a3.a2"),
               ("a10.~a7.a6.~a5.a4.~a3.a2.~a0",
                "a10.~a7.a6.~a5.a4.~a3.a2.~a1",
                "a10.~a9"),
               (2, 3, 4, 5, 6, 7, 8, 10)),
    MapFixture("D10-A7", ExtDynkinType("D", 10),
               ("a0", "a1", "a9.~a7.a6.~a5.a4.~a3.a2", "a10.~a7.a6.~a5.a4.~a3.a2"),
               ("~a7.a6.~a5.a4.~a3.a2.~a0",
                "~a7.a6.~a5.a4.~a3.a2.~a1",
                "~a9", "~a10"),
               (2, 3, 4, 5, 6, 7, 8)),
    MapFixture("D10-D10", ExtDynkinType("D", 10),
               ("a0.~a1.a1.~a2.a3.~a4.a5.~a6.a7.~a10",
                "a0.~a2.a3.~a4.a5.~a6.a7.~a10"),
               ("a10.~a7.a6.~a5.a4.~a3.a2.~a0",
                "-a10.~a9.a9.~a7.a6.~a5.a4.~a3.a2.~a0"),
               (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)),
    MapFixture("E6-D4", ExtDynkinType("E", 6),
               ("a0.~a1.a3", "a2.~a3.a4.~a4.a3", "a2", "a5.~a4.a3"),
               ("~a3.a1.~a0", "-~a2", "~a3.a1.~a1.a3.~a2", "-~a3.a4.~a5"),
               (1, 3, 4, 5)),
    MapFixture("E6-D5", ExtDynkinType("E", 6),
               ("a0.~a1.a3.~a3.a1", "a0", "a2.~a3.a4.~a4.a3.~a3.a1", "a2.~a3.a1"),
               ("~a3.a1.~a0", "-~a3.a4.~a5.a5.~a4.a1.~a0", "-~a2",
                "~a3.a1.~a1.a3.~a2"),
               (1, 3, 4, 5, 6)),
    MapFixture("E6-E6", ExtDynkinType("E", 6),
               ("a0.~a1.a4.~a4.a1.~a1.a3.~a2", "a0.~a1.a3.~a2"),
               ("a5.~a4.a1.~a0", "a5.~a4.a3.~a3.a3.~a3.a1.~a0"),
               (1, 2, 3, 4, 5, 6)),
    MapFixture("E7-D4", ExtDynkinType("E", 7),
               ("~a1", "~a1.a2.~a3.a3.~a2", "~a4.a3.~a2"),
               ("-a2.~a7.a7.~a2.a1", "a1", "a2.~a3.a4"),
               (2, 3, 4, 7)),
    MapFixture("E7-D5", ExtDynkinType("E", 7),
               ("a0.~a1.a2.~a3", "~a4.a3.~a2.a2.~a3", "~a4"),
               ("a7.~a2.a1.~a0", "-a7.~a3.a4", "a7.~a3.a3.~a7.a7.~a3.a4"),
               (1, 2, 3, 4, 7)),
    # phi[0] as printed contradicts the concluding line of the source's own
    # zero-product calculation, which pins the path used here
    MapFixture("E7-D6", ExtDynkinType("E", 7),
               ("~a1.a2.~a7.a7.~a3.a3.~a7", "~a1.a2.~a7"),
               ("a7.~a2.a1", "a7.~a2.a2.~a3.a3.~a2.a1"),
               (2, 3, 4, 5, 6, 7)),
    MapFixture("E7-E6", ExtDynkinType("E", 7),
               ("a0.~a1.a2.~a3.a3.~a2.a1", "a0",
                "a5.~a4.a3.~a7.a7.~a2.a2.~a3.a3.~a2.a1", "a5.~a4.a3.~a2.a1"),
               ("-~a4.a3.~a2.a1.~a0",
                "~a4.a3.~a2.a2.~a3.a3.~a7.a7.~a2.a1.~a0",
                "-~a5", "~a4.a3.~a2.a2.~a3.a4.~a5"),
               (1, 2, 3, 4, 5, 7)),
    MapFixture("E8-D4", ExtDynkinType("E", 8),
               ("~a3.a4.~a5.a5.~a4", "~a3", "~a6.a5.~a4"),
               ("a3", "-a4.~a8.a8.~a4.a3", "a4.~a5.a6"),
               (4, 5, 6, 8)),
    MapFixture("E8-D5a", ExtDynkinType("E", 8),
               ("a2.~a3.a4.~a5", "~a4.a3.~a3.a4.~a8.a8.~a5", "~a6"),
               ("a8.~a4.a3.~a2", "a8", "-a8.~a4.a3.~a3.a4.~a5.a6"),
               (3, 4, 5, 6, 8)),
    MapFixture("E8-D5b", ExtDynkinType("E", 8),
               ("~a3.a4.~a8.a8.~a4", "~a3"),
               ("a8.~a4.a3", "a8.~a5.a5.~a5.a5.~a4.a3"),
               (4, 5, 6, 7, 8)),
    # phi[2] printed ~a4.a5.~a8 and psi[2] ending in a4 are not composable;
    # the unique token fixes are ~a6.a5.~a8 and a6, after which the signs
    # below are the ones that certify
    MapFixture("E8-D6", ExtDynkinType("E", 8),
               ("~a1.a2.~a3.a4.~a8", "~a6.a5.~a4.a4.~a4.a4.~a8", "~a6.a5.~a8"),
               ("a8.~a4.a3.~a2.a1", "a8.~a5.a6", "a8.~a5.a5.~a8.a8.~a5.a6"),
               (2, 3, 4, 5, 6, 8)),
    MapFixture("E8-D7", ExtDynkinType("E", 8),
               ("a0.~a1.a2.~a3.a4.~a5", "~a6.a5.~a4.a4.~a4.a4.~a4.a4.~a5",
                "~a6.a5.~a4.a4.~a5", "~a6"),
               ("a8.~a4.a3.~a2.a1.~a0", "a8.~a5.a6", "a8.~a5.a5.~a8.a8.~a5.a6",
                "-a8.~a5.a5.~a8.a8.~a5.a5.~a8.a8.~a5.a6"),
               (1, 2, 3, 4, 5, 6, 8)),
    MapFixture("E8-E6", ExtDynkinType("E", 8),
               ("a2.~a3.a4.~a8.a8.~a4.a3", "a2"),
               ("~a6.a5.~a4.a3.~a2", "~a6.a5.~a8.a8.~a5.a5.~a5.a5.~a4.a3.~a2"),
               (3, 4, 5, 6, 7, 8)),
)
