import json
import math
import warnings

import numpy as np
import pytest

from symcap import QuadraticHamiltonian, flow_energy_drift
from symcap.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFICATION, dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_capacity_unit_ball(capsys):
    code, out = run(capsys, "capacity", "--region", '{"variant": "Ball", "R": 1}')
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["exact"] is True
    assert obj["value"] == pytest.approx(math.pi)


def test_capacity_solid_torus(capsys):
    code, out = run(capsys, "capacity", "--region",
                    '{"variant": "SolidTorus", "radii": [1.0, 2.0]}')
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(math.pi)


def test_capacity_bad_region_is_input_error(capsys):
    code, _ = run(capsys, "capacity", "--region", '{"variant": "Banana"}')
    assert code == EXIT_INPUT
    code, _ = run(capsys, "capacity", "--region", "not json")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("radius, value", [("1e-170", "0.0"), ("1e200", "inf")])
def test_capacity_out_of_range_is_input_error(capsys, radius, value):
    code = dispatch(["capacity", "--region", f'{{"variant": "Ball", "R": {radius}}}'])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: capacity must be finite and > 0, got {value}\n"


def test_spectrum_json_and_csv(capsys):
    code, out = run(capsys, "spectrum", "--hessian", "[[4.0, 0.0], [0.0, 1.0]]")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["mu"] == pytest.approx([2.0])
    assert obj["radii"][0] == pytest.approx(1.0)

    code, out = run(capsys, "--format", "csv",
                    "spectrum", "--hessian", "[[4.0, 0.0], [0.0, 1.0]]")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "j,mu,radius,omega"


def test_spectrum_from_file(tmp_path, capsys):
    path = tmp_path / "hessian.json"
    path.write_text('{"rows": [[1.0, 0.0], [0.0, 1.0]]}')
    code, out = run(capsys, "spectrum", "--hessian", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["mu"] == pytest.approx([1.0])


def test_spectrum_refuses_a_hessian_indefinite_once_symmetrized(capsys):
    # symmetric to 1e-10 max|R|, and positive definite in its lower triangle alone,
    # but (R + R^T) / 2 has eigenvalue -1.56e-11: the spectrum was NaN with exit 0
    code = dispatch(["spectrum", "--hessian", "[[1.0, 0.500000000099], [0.5, 0.25000000003]]"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith("error: matrix is not positive definite")


def test_squeeze_passes(capsys):
    code, out = run(capsys, "--seed", "7", "squeeze", "--n", "3", "--trials", "50")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["trials"] == 50
    assert obj["violations"] == []


def test_maslov_torus_cycle(capsys):
    code, out = run(capsys, "maslov", "--torus", "1.0,2.0", "--cycle", "1")
    assert code == EXIT_OK
    assert json.loads(out)["index"] == 2


def test_maslov_requires_loop_or_torus(capsys):
    code, _ = run(capsys, "maslov")
    assert code == EXIT_INPUT


def test_maslov_loop_file(tmp_path, capsys):
    from symcap import torus_cycle_loop
    path = tmp_path / "loop.json"
    path.write_text(torus_cycle_loop([1.0], 1, samples=64).to_json())
    code, out = run(capsys, "maslov", "--loop", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["index"] == 2


def test_ebk_oscillator_levels(capsys):
    code, out = run(capsys, "ebk", "--K", "oscillator:1,2",
                    "--maslov", "2,2", "--Nmax", "1")
    assert code == EXIT_OK
    energies = [lvl["energy"] for lvl in json.loads(out)["levels"]]
    assert energies == pytest.approx([1.5, 2.5, 3.5, 4.5])


def test_ebk_power_hamiltonian(capsys):
    code, out = run(capsys, "ebk", "--K", "power:2", "--maslov", "2", "--Nmax", "2")
    assert code == EXIT_OK
    energies = [lvl["energy"] for lvl in json.loads(out)["levels"]]
    assert energies == pytest.approx([0.25, 2.25, 6.25])


def test_ebk_table_hamiltonian(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"I": [0.0, 5.0], "K": [0.0, 5.0]}))
    code, out = run(capsys, "ebk", "--K", f"table:{path}",
                    "--maslov", "2", "--Nmax", "1")
    assert code == EXIT_OK
    energies = [lvl["energy"] for lvl in json.loads(out)["levels"]]
    assert energies == pytest.approx([0.5, 1.5])


@pytest.mark.parametrize("table", [{"I": [3, 1, 2], "K": [1, 2, 3]},
                                   {"I": [0, 1, 1], "K": [1, 2, 3]},
                                   {"I": [0, 1, 2], "K": [1, 2]},
                                   {"I": [0, 5], "K": [1, 2, 3]},
                                   {"I": [[0, 5]], "K": [[1, 2]]}],
                         ids=["unsorted", "repeated", "short-K", "short-I", "nested"])
def test_ebk_table_refuses_a_bad_action_grid(tmp_path, capsys, table):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code = dispatch(["ebk", "--K", f"table:{path}", "--maslov", "2", "--Nmax", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith(f"error: table {path}: I must be a strictly increasing")


def test_ebk_hbar_flag(capsys):
    code, out = run(capsys, "--hbar", "2.0", "ebk", "--K", "oscillator:1",
                    "--maslov", "2", "--Nmax", "0")
    assert code == EXIT_OK
    assert json.loads(out)["levels"][0]["energy"] == pytest.approx(1.0)


def test_env_overrides_and_flag_precedence(monkeypatch, capsys):
    monkeypatch.setenv("SYMCAP_HBAR", "2.0")
    code, out = run(capsys, "ebk", "--K", "oscillator:1", "--maslov", "2", "--Nmax", "0")
    assert code == EXIT_OK
    assert json.loads(out)["levels"][0]["energy"] == pytest.approx(1.0)
    # explicit flag wins over the environment
    code, out = run(capsys, "--hbar", "1.0", "ebk", "--K", "oscillator:1",
                    "--maslov", "2", "--Nmax", "0")
    assert json.loads(out)["levels"][0]["energy"] == pytest.approx(0.5)


def test_env_format(monkeypatch, capsys):
    monkeypatch.setenv("SYMCAP_FORMAT", "csv")
    code, out = run(capsys, "spectrum", "--hessian", "[[1.0, 0.0], [0.0, 1.0]]")
    assert code == EXIT_OK
    assert out.startswith("j,mu,radius,omega")


def test_bad_env_value_is_input_error(monkeypatch, capsys):
    monkeypatch.setenv("SYMCAP_HBAR", "not-a-number")
    code, _ = run(capsys, "spectrum", "--hessian", "[[1.0, 0.0], [0.0, 1.0]]")
    assert code == EXIT_INPUT


def test_flow_conserves_energy(capsys):
    code, out = run(capsys, "flow", "--hessian", "[[1.0, 0.0], [0.0, 1.0]]",
                    "--t", "0.7", "--z0", "1.0,0.0")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["energy_drift"] <= 1e-12
    assert obj["z_t"] == pytest.approx([math.cos(0.7), -math.sin(0.7)])


def test_flow_energy_drift_is_relative(capsys):
    # at H(z0) of about 1e8 the absolute drift is round-off times 1e8
    hessian = [[2.0, 0.3], [0.3, 0.5]]
    code, out = run(capsys, "flow", "--hessian", json.dumps(hessian), "--t", "1.3",
                    "--z0", "10000.0,-7000.0")
    assert code == EXIT_OK
    drift = flow_energy_drift(QuadraticHamiltonian(np.array(hessian)), [1e4, -7e3], [1.3])
    assert json.loads(out)["energy_drift"] == drift <= 1e-14


def test_flow_tol_reaches_the_propagator(capsys):
    # the flow map at t = 1e8 passes the default tol; a --tol below its round-off
    # (its symplectic residual is not 0) must reject it in quad_propagator
    argv = ["flow", "--hessian", "[[2.0, 0.3], [0.3, 0.5]]", "--t", "1e8", "--z0", "1.0,0.5"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    obj = json.loads(out)
    H = QuadraticHamiltonian(np.array([[2.0, 0.3], [0.3, 0.5]]))
    e0 = H.value(np.array([1.0, 0.5]))
    assert obj["energy_drift"] == abs(H.value(np.array(obj["z_t"])) - e0) / e0 <= 1e-12
    assert dispatch(["--tol", "1e-20", *argv]) == EXIT_INPUT
    assert "exceeds 1.0e-20" in capsys.readouterr().err


@pytest.mark.parametrize("t", [1e17, 1e300], ids=["flow-t-1e17", "flow-t-1e300"])
def test_flow_at_huge_t_is_the_exact_rotation(capsys, t):
    # the flow of the unit Hessian rotates by t, however large t is
    code, out = run(capsys, "flow", "--hessian", "[[1, 0], [0, 1]]", "--t", repr(t),
                    "--z0", "1.0,0.5")
    assert code == EXIT_OK
    obj = json.loads(out)
    rotation = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
    assert np.abs(np.array(obj["propagator"]["rows"]) - rotation).max() <= 1e-15
    assert obj["energy_drift"] <= 1e-12


def test_flow_zero_point_is_input_error(capsys):
    code, _ = run(capsys, "flow", "--hessian", "[[1.0, 0.0], [0.0, 1.0]]", "--t", "0.5",
                  "--z0", "0.0,0.0")
    assert code == EXIT_INPUT


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = dispatch(["--out", str(dest), "capacity", "--region",
                     '{"variant": "Ball", "R": 2}'])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["value"] == pytest.approx(4.0 * math.pi)


def test_determinism_byte_identical(capsys):
    argv = ["--seed", "11", "squeeze", "--n", "2", "--trials", "25"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_nonpositive_hbar_rejected(capsys):
    code, _ = run(capsys, "--hbar", "-1", "spectrum",
                  "--hessian", "[[1.0, 0.0], [0.0, 1.0]]")
    assert code == EXIT_INPUT


def test_samples_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        dispatch(["--samples", "5", "capacity", "--region", '{"variant": "Ball", "R": 1}'])
    assert exc.value.code == EXIT_INPUT


@pytest.mark.parametrize("argv, flag", [
    (["maslov", "--torus", "1.0,x"], "--torus"),
    (["flow", "--hessian", "[[1,0],[0,1]]", "--t", "1", "--z0", "1,x"], "--z0"),
    (["ebk", "--K", "oscillator:1", "--maslov", "2,x", "--Nmax", "1"], "--maslov"),
    (["ebk", "--K", "oscillator:x", "--maslov", "2", "--Nmax", "1"], "--K"),
    (["ebk", "--K", "power:y", "--maslov", "2", "--Nmax", "1"], "--K"),
    (["ebk", "--K", "power:1,2", "--maslov", "2", "--Nmax", "1"], "--K"),
])
def test_malformed_comma_list_is_input_error(capsys, argv, flag):
    assert dispatch(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err


def test_ebk_maslov_beyond_the_float_range_is_input_error(capsys):
    m = "1" + "0" * 400
    code = dispatch(["ebk", "--K", "oscillator:1", "--maslov", m, "--Nmax", "1"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: basic-cycle Maslov indices must be integers >= 1, got ({m},)\n")


def test_ebk_csv_writes_plain_floats(capsys):
    code, out = run(capsys, "--format", "csv", "ebk", "--K", "oscillator:1,2",
                    "--maslov", "2,2", "--Nmax", "0")
    assert code == EXIT_OK
    assert out.splitlines()[:2] == ["N,actions,radii,energy,capacity,satisfied",
                                    "0 0,0.5 0.5,1.0 1.0,1.5,3.141592653589793,True"]


@pytest.mark.parametrize("hbar, maslov, nmax, verdicts", [
    ("1e300", "2,2", "1", ["True"] * 4),  # three rows of capacity pi hbar exactly
    ("1e-170", "1,1", "0", ["False"]),  # capacity pi hbar / 2
])
def test_ebk_csv_capacity_verdict_does_not_depend_on_hbar(capsys, hbar, maslov, nmax, verdicts):
    code, out = run(capsys, "--hbar", hbar, "--format", "csv", "ebk", "--K", "oscillator:1,1",
                    "--maslov", maslov, "--Nmax", nmax)
    assert code == EXIT_OK
    assert [row.rsplit(",", 1)[1] for row in out.splitlines()[1:] if row] == verdicts


def _region(obj):
    return ["capacity", "--region", json.dumps(obj)]


MALFORMED = {
    "ball-R-string": _region({"variant": "Ball", "R": "x"}),
    "ball-R-list": _region({"variant": "Ball", "R": [1, 2]}),
    "ball-R-null": _region({"variant": "Ball", "R": None}),
    "cylinder-j-string": _region({"variant": "Cylinder", "j": "a", "r": 1}),
    "cylinder-j-float": _region({"variant": "Cylinder", "j": 1.7, "r": 1.0, "n": 2}),
    "cylinder-j-bool": _region({"variant": "Cylinder", "j": True, "r": 1.0, "n": 2}),
    "torus-radii-number": _region({"variant": "SolidTorus", "radii": 5}),
    "torus-radii-string": _region({"variant": "SolidTorus", "radii": ["a"]}),
    "ellipsoid-ragged-hessian": _region({"variant": "Ellipsoid", "hessian": [[1, 0], [0]]}),
    "ellipsoid-scalar-hessian": _region({"variant": "Ellipsoid", "hessian": 5}),
    "ellipsoid-level-string": _region({"variant": "Ellipsoid", "hessian": [[1, 0], [0, 1]],
                                       "level": "q"}),
    "image-rows-string": _region({"variant": "AffineImage",
                                  "S": {"n": 1, "rows": [[1, "x"], [0, 1]]},
                                  "inner": {"variant": "Ball", "R": 1}}),
    "spectrum-hessian-string": ["spectrum", "--hessian", '[[1, "a"], [0, 1]]'],
    "spectrum-hessian-nan": ["spectrum", "--hessian", "[[NaN, 0], [0, 1]]"],
    "spectrum-hessian-directory": ["spectrum", "--hessian", "{dir}"],
    "flow-ragged-hessian": ["flow", "--hessian", "[[1, 0], [0]]", "--t", "1"],
    "maslov-loop-directory": ["maslov", "--loop", "{dir}"],
    # non-finite values
    "ball-R-overflow": ["capacity", "--region", '{"variant": "Ball", "R": 1e400}'],
    "cylinder-r-overflow": ["capacity", "--region", '{"variant": "Cylinder", "j": 1, "r": 1e400}'],
    "ellipsoid-level-overflow": ["capacity", "--region", '{"variant": "Ellipsoid", '
                                 '"hessian": [[1, 0], [0, 1]], "level": 1e400}'],
    "torus-radius-infinity": ["capacity", "--region",
                              '{"variant": "SolidTorus", "radii": [Infinity]}'],
    "hbar-inf": ["--hbar", "inf", "ebk", "--K", "oscillator:1", "--maslov", "2", "--Nmax", "0"],
    "tol-inf": ["--tol", "inf", "squeeze", "--n", "2", "--trials", "5"],
}
# non-finite or overflowing values, each with the text that names it in the error
UNIT_HESSIAN = "[[1, 0], [0, 1]]"
NONFINITE = {
    "ebk-oscillator-nan": (["ebk", "--K", "oscillator:nan", "--maslov", "2", "--Nmax", "0"], "nan"),
    "ebk-oscillator-inf": (["ebk", "--K", "oscillator:inf", "--maslov", "2", "--Nmax", "0"], "inf"),
    "ebk-power-nan": (["ebk", "--K", "power:nan", "--maslov", "2", "--Nmax", "0"], "nan"),
    "ebk-energy-overflow": (["--hbar", "1e308", "ebk", "--K", "oscillator:10", "--maslov", "2",
                             "--Nmax", "1"], "hbar = 1e+308"),
    "ebk-power-overflow": (["ebk", "--K", "power:1e308", "--maslov", "2", "--Nmax", "1"],
                           "actions [1.5]"),
    "flow-z0-inf": (["flow", "--hessian", UNIT_HESSIAN, "--t", "1", "--z0", "inf,0"], "inf"),
    "flow-z0-overflow": (["flow", "--hessian", UNIT_HESSIAN, "--t", "1", "--z0", "1e200,0"],
                         "1e+200"),
    "maslov-torus-inf": (["maslov", "--torus", "inf,1"], "inf"),
    "maslov-torus-nan": (["maslov", "--torus", "nan,1"], "nan"),
    "flow-angle-overflow": (["flow", "--hessian", "[[1e10, 0], [0, 1e10]]", "--t", "1e300"],
                            "t = 1e+300"),
    "flow-t-inf": (["flow", "--hessian", UNIT_HESSIAN, "--t", "inf"], "t = inf"),
    "ball-capacity-overflow": (_region({"variant": "Ball", "R": 1e160}), "capacity"),
    "cylinder-capacity-overflow": (_region({"variant": "Cylinder", "j": 1, "r": 1e160}),
                                   "capacity"),
    "torus-capacity-overflow": (_region({"variant": "SolidTorus", "radii": [1e160, 1e160]}),
                                "capacity"),
    "ellipsoid-capacity-overflow": (_region({"variant": "Ellipsoid", "level": 1e10,
                                             "hessian": [[1e-300, 0], [0, 1e-300]]}), "capacity"),
    "ellipsoid-hessian-nan": (_region({"variant": "Ellipsoid", "hessian": [[math.nan, 0], [0, 1]]}),
                              "nan"),
}
INPUT_ERRORS = {**{name: (argv, "") for name, argv in MALFORMED.items()}, **NONFINITE}


@pytest.mark.parametrize("argv, named", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_malformed_input_is_input_error(tmp_path, capsys, argv, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code = dispatch([a.replace("{dir}", str(tmp_path)) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert named in captured.err
    assert captured.out == ""
