"""symcore.positive is the one check that a radius, level, frequency, hbar, tol
or spread is > 0 and finite: every site that reads such a value calls it, and
every matrix validator rejects non-finite entries."""

import math
from argparse import Namespace
from dataclasses import replace

import numpy as np
import pytest

from symcap import cli, ebk, maslov, regions, squeeze, symcore, williamson
from symcap.symcore import ValidationError, positive

ORIGIN = np.zeros(2)
MAP = symcore.random_symplectic(1, 0)
OSCILLATOR = ebk.oscillator_hamiltonian([1.0])
LEVEL = ebk.energy_levels(OSCILLATOR, (2,), 0).entries[0]


def _config(hbar=1.0, tol=1e-9):
    cli._config(Namespace(hbar=hbar, tol=tol, seed=0, format="json"))


# each call puts the value v where one site reads a positive scalar or vector entry
SITES = {
    "cli-hbar": lambda v: _config(hbar=v),
    "cli-tol": lambda v: _config(tol=v),
    "oscillator-frequency": lambda v: ebk.oscillator_hamiltonian([1.0, v]),
    "quantized-actions-hbar": lambda v: ebk.quantized_actions((2,), 0, v),
    "energy-levels-hbar": lambda v: ebk.energy_levels(OSCILLATOR, (2,), 0, v),
    "torus-radii-from-actions": lambda v: ebk.torus_radii_from_actions([1.0, v]),
    "ground-bound-hbar": lambda v: ebk.ground_bound(OSCILLATOR, v),
    "capacity-condition-hbar": lambda v: ebk.capacity_condition(LEVEL, v),
    "capacity-condition-radius": lambda v: ebk.capacity_condition(replace(LEVEL, radii=[1.0, v])),
    "maslov-torus-radius": lambda v: maslov.torus_cycle_loop([1.0, v], 1),
    "ball-radius": lambda v: regions.Ball(ORIGIN, v),
    "ellipsoid-level": lambda v: regions.Ellipsoid(ORIGIN, np.eye(2), v),
    "solid-torus-radius": lambda v: regions.SolidTorus((1.0, v)),
    "cylinder-radius": lambda v: regions.Cylinder(1, ORIGIN, v),
    "sandwich-radius": lambda v: regions.sandwich_capacity(v, 2.0, 1),
    "projection-area-R": lambda v: squeeze.projection_area(MAP, v, 1),
    "nonsqueeze-R": lambda v: squeeze.nonsqueeze_verify(1, 1, 0, R=v),
    "mc-projection-area-R": lambda v: squeeze.mc_projection_area(MAP, v, 1, samples=100),
    "mc-intersection-area-R": lambda v: squeeze.mc_intersection_area(MAP, v, 1, samples=100),
    "random-symplectic-spread": lambda v: symcore.random_symplectic(1, 0, v),
    "normal-radii-level": lambda v: williamson.normal_radii(np.eye(2), v),
}
# each call puts the value v on the diagonal of a positive-definite matrix
MATRIX_SITES = {
    "validate-posdef": lambda v: symcore.validate_posdef([[v, 0.0], [0.0, 1.0]]),
    "ellipsoid-hessian": lambda v: regions.Ellipsoid(ORIGIN, [[v, 0.0], [0.0, 1.0]], 1.0),
    "quadratic-hamiltonian": lambda v: symcore.QuadraticHamiltonian([[v, 0.0], [0.0, 1.0]]),
}
BAD = (0, -1, math.nan, math.inf, None)
CASES = {f"{site}-{v}": (call, v) for site, call in SITES.items() for v in BAD
         if not (site.startswith("cli-") and v is None)}  # None: the flag was not given
CASES.update({f"{site}-{v}": (call, v) for site, call in MATRIX_SITES.items()
              for v in (math.nan, math.inf)})


@pytest.mark.parametrize("call, bad", CASES.values(), ids=CASES.keys())
def test_bad_value_is_rejected_by_the_shared_validator(call, bad):
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert str(bad) in str(info.value)
    assert info.traceback[-1].name in ("positive", "validate_posdef")


def test_positive_returns_floats():
    assert type(positive("x", 2)) is float and positive("x", 2) == 2.0
    v = positive("x", (1, 2.5))
    assert v.dtype == float and v.tolist() == [1.0, 2.5]
    for bad in ([], "abc", [[1.0], [1.0, 2.0]], 10**400, [1.0, "abc"]):
        with pytest.raises(ValidationError, match="x must be > 0 and finite"):
            positive("x", bad)


class _SizeOneFloat(np.ndarray):
    """An array that float() reads when it has one entry, as numpy < 2.4 does."""

    def __float__(self):
        return float(self.item())


def test_a_size_one_array_stays_an_array():
    for x in (np.array([2.0]), np.array([2.0]).view(_SizeOneFloat)):
        v = positive("x", x)
        assert v.shape == (1,) and v.tolist() == [2.0]
    assert type(positive("x", np.array(2.0))) is float
    assert type(positive("x", np.float64(2.0))) is float


def test_checked_values_keep_their_type():
    assert regions.region_to_json(regions.Ball([0, 0], 2)) == (
        '{"R": 2, "center": [0.0, 0.0], "variant": "Ball"}')
    assert ebk.energy_levels(OSCILLATOR, (2,), 0, hbar=2).hbar == 2
