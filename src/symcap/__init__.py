"""Numerical symplectic geometry: spectra, capacities, non-squeezing, EBK levels.

``import symcap`` loads no submodule: each name of ``__all__`` and each home
module below is imported on first access (PEP 562), so a one-shot CLI call
pays only for the modules it uses.  An exported name is read from its home
module on every access and never stored here, so it follows any rebinding there.
"""

import importlib

_EXPORTS = {
    "symcore": ("DegenerateInputError", "DimensionError", "QuadraticHamiltonian",
                "SymplecticMatrix", "ValidationError", "as_phase_point", "flow_energy_drift",
                "is_symplectic", "quad_propagator", "random_symplectic",
                "random_symplectic_stack", "standard_form_matrix", "symplectic_form"),
    "williamson": ("SymplecticSpectrum", "WilliamsonDecomposition", "normal_radii",
                   "symplectic_spectrum", "williamson_decompose"),
    "regions": ("AffineImage", "Ball", "CapacityValue", "Cylinder", "Ellipsoid", "SolidTorus",
                "capacity", "inclusion_check", "map_region", "region_from_json",
                "region_to_json", "scale_region"),
    "squeeze": ("ShadowReport", "intersection_area", "mc_intersection_area",
                "mc_projection_area", "nonsqueeze_verify", "projection_area", "shadow_report"),
    "maslov": ("LagrangianFrame", "LagrangianLoop", "MaslovResult", "maslov_index",
               "souriau_map", "torus_cycle_loop", "transport_loop"),
    "ebk": ("ActionHamiltonian", "EBKLevel", "EBKSpectrum", "action_quadrature_1d",
            "capacity_condition", "energy_levels", "ground_bound", "oscillator_hamiltonian",
            "quantized_actions", "torus_radii_from_actions", "verify_energy_bound"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it in the package
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
