"""Exact invariants of reflection-group extensions: carousel monodromy
models, cyclotomic Hecke algebras, and induced braid modules."""

from .cyclo import (
    CycMatrix,
    CycNumber,
    CycPoly,
    detect_power_factor,
    minpoly_matrix,
    theta,
    zeta,
)

__version__ = "0.1.0"

from .reflgrp import (  # noqa: E402
    Arrangement,
    ReflectionGroup,
    catalog,
    enumerate_group,
    hyperplanes,
    left_cosets,
    subgroup_generated,
)
from .extension import (  # noqa: E402
    CayleyGroup,
    Character,
    ExtensionDatum,
    validate,
)
from .invariants import (  # noqa: E402
    ChiInvariants,
    check_generation,
    compute_chi_invariants,
)
from .carousel import (  # noqa: E402
    CarouselModel,
    build_carousel,
    carousel_minpolys,
    twist_from_extension,
)
from .hecke import HeckeAlgebra, build_coxeter, build_cyclic, build_product  # noqa: E402
from .induce import (  # noqa: E402
    InducedLedger,
    InducedModule,
    build_full_r1,
    build_full_r2,
    build_i_action,
    build_ledger,
)

__all__ = [
    "CycNumber", "CycPoly", "CycMatrix", "zeta", "theta",
    "detect_power_factor", "minpoly_matrix",
    "ReflectionGroup", "Arrangement", "enumerate_group", "hyperplanes",
    "catalog", "subgroup_generated", "left_cosets",
    "ExtensionDatum", "CayleyGroup", "Character", "validate",
    "ChiInvariants", "compute_chi_invariants", "check_generation",
    "CarouselModel", "build_carousel", "carousel_minpolys", "twist_from_extension",
    "HeckeAlgebra", "build_cyclic", "build_coxeter", "build_product",
    "InducedLedger", "InducedModule", "build_ledger", "build_i_action",
    "build_full_r1", "build_full_r2",
]
