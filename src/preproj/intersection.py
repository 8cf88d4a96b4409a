"""The noncommutative geometric McKay correspondence: neighbour
resolutions of the simples, Ext-dimension triples, the intersection matrix
Gamma = -C, and the smooth-deformation resolution.
"""
from __future__ import annotations

from typing import NamedTuple

from .dynkin import ExtDynkinType, build_extended, cartan
from .errors import DomainError, InternalInconsistency
from .weights import Weight, resolve_to_smooth


class ExtTriple(NamedTuple):
    """(dim Hom, dim Ext^1, dim Ext^2) between two simples; higher Ext
    vanish since the resolution has global dimension two."""

    hom: int
    ext1: int
    ext2: int

    def intersection_multiplicity(self) -> int:
        return -self.hom + self.ext1 - self.ext2


class IntersectionMatrix(NamedTuple):
    """Gamma_{ij} = S_i . S_j over the Dynkin vertices 1..n."""

    vertices: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]


def ext_dims(t: ExtDynkinType, i: int, j: int) -> ExtTriple:
    """Homology of the three-term complex Hom(e_. Pi, S_j) applied to the
    neighbour resolution of S_i: each Hom space has dimension [k = j]."""
    if not (1 <= i <= t.n and 1 <= j <= t.n):
        raise DomainError("simples are indexed by the non-extending vertices")
    q = build_extended(t)
    outer = 1 if i == j else 0
    middle = sum(1 for k in q.neighbours(i) if k == j)
    # maps in the complex vanish: outer and middle supports never overlap
    if outer and middle:
        raise InternalInconsistency("loop at a vertex of an extended Dynkin quiver")
    return ExtTriple(outer, middle, outer)


def intersection_matrix(t: ExtDynkinType) -> IntersectionMatrix:
    n = t.n
    entries = tuple(tuple(ext_dims(t, i, j).intersection_multiplicity()
                          for j in range(1, n + 1)) for i in range(1, n + 1))
    c = cartan(t).cartan
    if entries != tuple(tuple(-x for x in row) for row in c):
        raise InternalInconsistency("intersection matrix differs from -C")
    return IntersectionMatrix(tuple(range(1, n + 1)), entries)


class SmoothResolution(NamedTuple):
    """A deformation weight mu with all non-extending entries positive,
    the reflection word reaching it from eps_0, and the Gamma = -C
    certificate (Morita invariance carries the Ext data across)."""

    mu: Weight
    reflections: tuple[int, ...]
    gamma: IntersectionMatrix


def smooth_resolution(t: ExtDynkinType) -> SmoothResolution:
    seq, mu = resolve_to_smooth(t)
    return SmoothResolution(mu, tuple(seq), intersection_matrix(t))
