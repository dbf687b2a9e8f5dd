"""Exact-arithmetic invariants of Calabi-Yau 3-folds built by smoothing
two-component normal crossing degenerations."""

__version__ = "0.1.0"

from .exact_lattice import (
    IntMatrix,
    kernel_basis,
    quotient,
    smith_normal_form,
)
from .surface import K3Model, intersect
from .components import (
    BlownComponent,
    FanoFamily,
    P3,
    build_component,
    triple_product,
)
from .smoothing import (
    NormalCrossingModel,
    SmoothingReport,
    analyze,
    check_smoothability,
    compute_rg2,
    compute_rg4_and_consur,
    cubic_form,
    c2_form,
    hodge_numbers,
    move_top_center,
)
from .invariant_forms import (
    CubicTensor,
    CyInvariantTriple,
    aronhold_ST,
    deformation_group,
    rr_dimension,
)
from .catalog import (
    cy_invariants,
    known_cy_table,
    load_catalog,
    search_pairs,
    xi_examples,
)

__all__ = [
    "IntMatrix",
    "kernel_basis",
    "quotient",
    "smith_normal_form",
    "K3Model",
    "intersect",
    "BlownComponent",
    "FanoFamily",
    "P3",
    "build_component",
    "triple_product",
    "NormalCrossingModel",
    "SmoothingReport",
    "analyze",
    "check_smoothability",
    "compute_rg2",
    "compute_rg4_and_consur",
    "cubic_form",
    "c2_form",
    "hodge_numbers",
    "move_top_center",
    "CubicTensor",
    "CyInvariantTriple",
    "aronhold_ST",
    "deformation_group",
    "rr_dimension",
    "cy_invariants",
    "known_cy_table",
    "load_catalog",
    "search_pairs",
    "xi_examples",
]
