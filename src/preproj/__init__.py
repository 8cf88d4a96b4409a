"""Exact computation with deformed preprojective algebras of extended
Dynkin quivers: singularity-category decomposition, translation
permutations, the knitting algorithm, dual-reflection weight games, graded
path-algebra verification, and the noncommutative intersection matrix.
"""

from .dynkin import DynkinType, ExtDynkinType, build_extended, cartan, nakayama, parse_type
from .intersection import ext_dims, intersection_matrix, smooth_resolution
from .knitting import extract_maps, knit, render_pattern
from .pathalg import (PathElement, graded_dims_pi, hom_matrix, ideal_member,
                      multiply, verify_zero_product)
from .singularity import descriptor, equivalent, q_lambda_decompose, translation_permutation
from .typea import presentation, type_a_sequence
from .weights import (FieldElem, Weight, classify_weight, dual_reflection, parse_weight,
                      quasi_dominantize, resolve_to_smooth)

__version__ = "0.1.0"

__all__ = [
    "DynkinType", "ExtDynkinType", "build_extended", "cartan", "nakayama",
    "parse_type", "ext_dims", "intersection_matrix", "smooth_resolution",
    "extract_maps", "knit", "render_pattern", "PathElement", "graded_dims_pi",
    "hom_matrix", "ideal_member", "multiply", "verify_zero_product",
    "descriptor", "equivalent", "q_lambda_decompose", "translation_permutation",
    "presentation", "type_a_sequence", "FieldElem", "Weight",
    "classify_weight", "dual_reflection", "parse_weight", "quasi_dominantize",
    "resolve_to_smooth",
]
