"""Singularity-category descriptors: the subquiver cut out by the zero
weights, its Dynkin components, the translation permutation, and
triangle-equivalence testing at descriptor level.
"""
from __future__ import annotations

from typing import NamedTuple

from .dynkin import (DynkinType, ExtDynkinType, VertexPermutation,
                     build_extended, classify_components, nakayama)
from .errors import DomainError
from .weights import Weight, ZERO, is_quasi_dominant


class QLambdaDecomposition(NamedTuple):
    """I_lambda = {i >= 1 : lambda_i = 0} split into Dynkin components,
    each with its canonical labelling map."""

    i_lambda: tuple[int, ...]
    components: tuple[tuple[DynkinType, tuple[int, ...], dict[int, int]], ...]


class SingularityDescriptor(NamedTuple):
    """Multiset of Dynkin types; empty exactly for smooth deformations."""

    types: tuple[str, ...]

    def __str__(self) -> str:
        return "[" + ",".join(self.types) + "]"


class TranslationAction(NamedTuple):
    """Action of the translation functor on the non-projective vertex
    modules: the Nakayama automorphism on each component."""

    permutation: VertexPermutation


def q_lambda_decompose(t: ExtDynkinType, w: Weight) -> QLambdaDecomposition:
    if not is_quasi_dominant(t, w):
        raise DomainError(
            "weight is not quasi-dominant; apply weights.quasi_dominantize first")
    i_lambda = tuple(i for i in range(1, t.n + 1) if w[i] == ZERO)
    comps = classify_components(build_extended(t), set(i_lambda))
    return QLambdaDecomposition(i_lambda, tuple(comps))


def translation_permutation(d: QLambdaDecomposition) -> TranslationAction:
    mapping: dict[int, int] = {}
    for dt, verts, canon in d.components:
        nak = nakayama(dt).as_dict()
        inv = {c: v for v, c in canon.items()}
        for v in verts:
            mapping[v] = inv[nak[canon[v]]]
    return TranslationAction(VertexPermutation.of(mapping))


def descriptor(d: QLambdaDecomposition) -> SingularityDescriptor:
    return SingularityDescriptor(tuple(sorted(str(dt) for dt, _, _ in d.components)))


def equivalent(d1: QLambdaDecomposition, d2: QLambdaDecomposition) -> bool:
    """Triangle equivalence of the singularity categories, decided at
    descriptor level: equal multisets of component types."""
    return descriptor(d1) == descriptor(d2)
