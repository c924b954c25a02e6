"""Numerical symplectic geometry: spectra, capacities, non-squeezing, EBK levels."""

from .symcore import (
    DegenerateInputError,
    DimensionError,
    QuadraticHamiltonian,
    SymplecticMatrix,
    ValidationError,
    as_phase_point,
    flow_energy_drift,
    is_symplectic,
    quad_propagator,
    random_symplectic,
    random_symplectic_stack,
    standard_form_matrix,
    symplectic_form,
)
from .williamson import (
    SymplecticSpectrum,
    WilliamsonDecomposition,
    normal_radii,
    symplectic_spectrum,
    williamson_decompose,
)
from .regions import (
    AffineImage,
    Ball,
    CapacityValue,
    Cylinder,
    Ellipsoid,
    SolidTorus,
    capacity,
    inclusion_check,
    map_region,
    region_from_json,
    region_to_json,
    sandwich_capacity,
    scale_region,
)
from .squeeze import (
    ShadowReport,
    intersection_area,
    mc_intersection_area,
    mc_projection_area,
    nonsqueeze_verify,
    projection_area,
    shadow_report,
)
from .maslov import (
    LagrangianFrame,
    LagrangianLoop,
    MaslovResult,
    maslov_index,
    souriau_map,
    torus_cycle_loop,
    transport_loop,
)
from .ebk import (
    ActionHamiltonian,
    EBKLevel,
    EBKSpectrum,
    action_quadrature_1d,
    capacity_condition,
    energy_levels,
    ground_bound,
    oscillator_hamiltonian,
    projection_area_bound,
    quantized_actions,
    torus_radii_from_actions,
    verify_energy_bound,
)

__version__ = "0.1.0"
