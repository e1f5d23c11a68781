"""Tests for the fault dataset builder.

Covers five evidence groups: case enumeration and sampling, single-row
physics (per-unit conversion, bolted faults, an independently assembled
dense-solve oracle for the healthy system, rotation symmetry, distance
monotonicity), the lock-step dataset against `build_row` bit for bit and
error for error, the CSV write round trip, and the nearest-neighbour
pipeline properties.
"""

import csv
import math

import numpy as np
import pytest

from gridstudies import faultlab as fl
from gridstudies.ml import evaluate, knn_fit
from gridstudies.phasor import PHASES, SingularNetworkError, solve_steady_state


# -- cases --------------------------------------------------------------------

def test_train_enumeration():
    cases = fl.enumerate_train_cases()
    assert len(cases) == 209
    assert (cases[0].position_index, cases[0].fault_type) == (1, 1)
    assert cases[0].code == 101
    assert cases[0].fault_resistance == 0.0
    # row 200 in 1-based terms
    assert cases[199].code == 1902
    assert cases[199].distance_km == 95.0
    ordered = [(c.position_index, c.fault_type) for c in cases]
    assert ordered == sorted(ordered)
    assert all(c.fault_resistance == 0.0 for c in cases)


def test_sample_test_cases_grids_and_range():
    for rmax in (1.0, 5.0):
        cases = fl.sample_test_cases(3, rmax)
        assert len(cases) == 209
        assert all(1 <= c.position_index <= 19 for c in cases)
        assert all(1 <= c.fault_type <= 11 for c in cases)
        assert all(0.0 <= c.fault_resistance < rmax for c in cases)


def test_sample_test_cases_deterministic():
    a = fl.sample_test_cases(11, 1.0)
    b = fl.sample_test_cases(11, 1.0)
    assert [(c.position_index, c.fault_type, c.fault_resistance) for c in a] == \
           [(c.position_index, c.fault_type, c.fault_resistance) for c in b]
    c = fl.sample_test_cases(12, 1.0)
    assert a[0].fault_resistance != c[0].fault_resistance


def test_sample_rejects_bad_rmax(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before checking r_max")

    monkeypatch.setattr(fl.np.random, "default_rng", no_draw)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="r_max"):
            fl.sample_test_cases(1, bad)


def test_case_validation():
    with pytest.raises(ValueError):
        fl.FaultCase(0, 1)
    with pytest.raises(ValueError):
        fl.FaultCase(20, 1)
    with pytest.raises(ValueError):
        fl.FaultCase(1, 12)
    for bad in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="fault_resistance"):
            fl.FaultCase(3, 9, bad)


def test_codes_decode_uniquely():
    cases = fl.enumerate_train_cases()
    decoded = [(c.code // 100, c.code % 100) for c in cases]
    assert decoded == [(c.position_index, c.fault_type) for c in cases]
    assert len(set(c.code for c in cases)) == 209


# -- row physics --------------------------------------------------------------

def test_per_unit_base():
    assert abs(fl.VOLTAGE_BASE_V - 400e3 / math.sqrt(3)) < 1e-6
    assert abs(43555.65 / fl.VOLTAGE_BASE_V - 0.1886015) < 5e-8


def test_bolted_abcg_zeroes_fault_node():
    for pos in (1, 10, 19):
        row = fl.build_row(fl.FaultCase(pos, 1))
        assert all(v < 1e-6 for v in row.v_fault)
        assert all(v > 0.01 for v in row.v_bus)


def _dense_oracle_row(config, position_index):
    """Healthy-system voltages from a hand-assembled 9x9 nodal solve.

    Builds the phase-domain section matrices from the sequence values and
    solves with numpy only, bypassing the network container entirely.
    """
    line = config.line
    d = 5.0 * position_index
    lengths = (d, line.length_km - d)

    def series(length):
        zs = (line.z0_ohm_per_km + 2 * line.z1_ohm_per_km) / 3.0
        zm = (line.z0_ohm_per_km - line.z1_ohm_per_km) / 3.0
        adj = zm * (1 + line.mutual_skew)
        out = zm * (1 - 2 * line.mutual_skew)
        z = np.array([[zs, adj, out], [adj, zs, adj], [out, adj, zs]])
        return z * length

    def shunt_end(length):
        ys = (line.y0_siemens_per_km + 2 * line.y1_siemens_per_km) / 3.0
        ym = (line.y0_siemens_per_km - line.y1_siemens_per_km) / 3.0
        y = np.array([[ys, ym, ym], [ym, ys, ym], [ym, ym, ys]])
        return y * (length / 2.0)

    y = np.zeros((9, 9), dtype=complex)
    rhs = np.zeros(9, dtype=complex)
    blocks = ((0, 3, lengths[0]), (3, 6, lengths[1]))  # bus-fault, fault-load
    for a, b, length in blocks:
        yse = np.linalg.inv(series(length))
        ysh = shunt_end(length)
        y[a:a+3, a:a+3] += yse + ysh
        y[b:b+3, b:b+3] += yse + ysh
        y[a:a+3, b:b+3] -= yse
        y[b:b+3, a:a+3] -= yse
    for k in range(3):
        g = 1.0 / config.source_impedance
        emf = config.source_volts_ln * np.exp(-1j * 2 * np.pi * k / 3)
        y[k, k] += g
        rhs[k] += emf * g
        y[6 + k, 6 + k] += 1.0 / config.load_impedance
    v = np.linalg.solve(y, rhs)
    pu = np.abs(v) / fl.VOLTAGE_BASE_V
    # row layout is bus, load, fault; the nodal vector is bus, fault, load
    return np.concatenate([pu[0:3], pu[6:9], pu[3:6]])


def test_unfaulted_row_matches_dense_oracle():
    # the unfaulted line, split at the 50 km grid junction like a fault case
    config = fl.CaseOneConfig()
    net = fl.base_network(config)
    d = fl.FaultCase(10, 1).distance_km
    rest = config.line.length_km - d
    for a, b, length in (("bus", "fault", d), ("fault", "load", rest)):
        net.add_coupled_branch(a, b, config.line.series_matrix(length),
                               config.line.shunt_matrix_per_end(length))
    sol = solve_steady_state(net)
    row = [sol.rms(f"{group}.{p}") / fl.VOLTAGE_BASE_V
           for group in ("bus", "load", "fault") for p in PHASES]
    oracle = _dense_oracle_row(config, 10)
    assert np.allclose(row, oracle, rtol=1e-9, atol=1e-12)
    assert all(0.95 <= v <= 1.05 for v in row)


def test_rotation_symmetry_without_skew():
    config = fl.CaseOneConfig()
    config.line = config.line._replace(mutual_skew=0.0)
    ag = fl.build_row(fl.FaultCase(7, 9), config)
    bg = fl.build_row(fl.FaultCase(7, 10), config)
    # rotating phases A->B->C maps the AG case onto the BG case
    for grp in ("v_bus", "v_load", "v_fault"):
        a = getattr(ag, grp)
        b = getattr(bg, grp)
        assert abs(b[1] - a[0]) < 1e-6
        assert abs(b[2] - a[1]) < 1e-6
        assert abs(b[0] - a[2]) < 1e-6


def test_faulted_phase_voltage_monotone_in_distance():
    va = [fl.build_row(fl.FaultCase(p, 9)).v_bus[0] for p in range(1, 20)]
    assert all(b >= a - 1e-12 for a, b in zip(va, va[1:]))


# -- lock-step dataset against build_row ---------------------------------------

def _row_bytes(row):
    return np.array([*row.features(), row.distance_km, row.code]).tobytes()


def _assert_rows_match_build_row(cases, config=None):
    rows = fl.build_dataset(cases, config)
    assert len(rows) == len(cases)
    for case, row in zip(cases, rows):
        assert _row_bytes(row) == _row_bytes(fl.build_row(case, config)), case


def _mixed_cases(seed):
    """Every (position, type), bolted on every third and at a random
    resistance otherwise, in shuffled order."""
    rng = np.random.default_rng(seed)
    cases = [fl.FaultCase(p, t, 0.0 if (p + t) % 3 == 0 else rng.uniform(0.0, 5.0))
             for p in range(1, 20) for t in range(1, 12)]
    return [cases[i] for i in rng.permutation(len(cases))]


def test_lockstep_rows_match_build_row():
    _assert_rows_match_build_row(fl.enumerate_train_cases())
    for seed, r_max in ((1, 1.0), (2, 5.0), (7, 1.0)):
        _assert_rows_match_build_row(fl.sample_test_cases(seed, r_max))
    _assert_rows_match_build_row(_mixed_cases(3))
    # another system: transposed line, stiffer source, lighter load
    config = fl.CaseOneConfig(source_impedance=0.5 + 12.0j,
                              load_impedance=5000.0 + 2000.0j)
    config.line = config.line._replace(mutual_skew=0.0)
    _assert_rows_match_build_row(_mixed_cases(4), config)
    assert fl.build_dataset([]) == []


def test_one_stacked_solve_per_group(monkeypatch):
    calls = {"inv": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def no_scalar_solve(net):
        raise AssertionError("solve_steady_state called")

    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    monkeypatch.setattr(fl, "solve_steady_state", no_scalar_solve)
    cases = fl.enumerate_train_cases() + fl.sample_test_cases(1, 1.0)
    rows = fl.build_dataset(cases)
    assert len(rows) == 418
    # 11 fault types, each bolted (train) and resistive (test)
    assert calls == {"inv": 1, "solve": 22}


def test_singular_row_raises_the_oracle_error():
    cases = fl.sample_test_cases(5, 1.0)
    # a denormal resistance has an infinite admittance: the solution is NaN
    cases[100] = fl.FaultCase(7, cases[101].fault_type, 5e-324)
    with pytest.raises(SingularNetworkError) as oracle:
        fl.build_row(cases[100])
    with pytest.raises(SingularNetworkError) as got:
        fl.build_dataset(cases)
    assert str(got.value) == str(oracle.value) == \
        "singular nodal matrix (solution is not finite)"


def test_first_bad_case_in_case_order_raises():
    config = fl.CaseOneConfig()
    # positions 10..19 no longer split the line
    config.line = config.line._replace(length_km=50.0)
    singular = fl.FaultCase(3, 2, 5e-324)
    outside = fl.FaultCase(12, 1, 1.0)
    good = [fl.FaultCase(p, t, 0.5) for p in (1, 5, 9) for t in (1, 2)]
    with pytest.raises(SingularNetworkError):
        fl.build_dataset(good + [singular, outside], config)
    with pytest.raises(ValueError, match="must split the 50.0 km line"):
        fl.build_dataset(good + [outside, singular], config)


def test_singular_stacked_solve_falls_back_row_by_row(monkeypatch):
    solve = np.linalg.solve

    def stacked_fails(a, b):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", stacked_fails)
    _assert_rows_match_build_row(_mixed_cases(5)[:40])


def test_kcl_residual_checked_per_row(monkeypatch):
    solve = np.linalg.solve

    def perturbed(a, b):
        v = solve(a, b)
        if np.ndim(a) == 3:
            v[1::2] *= 1.0 + 1e-6  # every other row misses the 1e-9 residual
        return v

    monkeypatch.setattr(np.linalg, "solve", perturbed)
    _assert_rows_match_build_row(_mixed_cases(6)[:40])


@pytest.mark.parametrize("stub", [
    [("ground", complex(math.inf))],  # admittance 0: a zero row
    [("ground", 1.0), ("load.A", -1.0)],  # a zero diagonal only
])
def test_isolated_node_named_as_in_the_oracle(monkeypatch, stub):
    base = fl.base_network

    def with_stub(config=None):
        net = base(config)
        for to_node, ohms in stub:
            net.add_branch("stub", to_node, ohms)
        return net

    monkeypatch.setattr(fl, "base_network", with_stub)
    with pytest.raises(SingularNetworkError, match="'stub' is isolated") as got:
        fl.build_dataset(fl.enumerate_train_cases()[:5])
    assert got.value.node == "stub"


# -- CSV ----------------------------------------------------------------------

def test_write_read_round_trip(tmp_path):
    rows = fl.build_dataset(fl.enumerate_train_cases())
    path = tmp_path / "train.csv"
    fl.write_dataset(rows, path)
    with open(path, newline="") as fh:
        header, *back = csv.reader(fh)
    assert tuple(header) == fl.DATASET_HEADER
    assert len(back) == 209
    for r, s in zip(rows, back):
        assert int(s[11]) == r.code and int(s[10]) == r.fault_type
        assert float(s[9]) == r.distance_km
        assert [float(v) for v in s[:9]] == r.features()


# -- classifier pipeline ------------------------------------------------------

def test_knn_pipeline_high_agreement():
    train = fl.rows_to_dataset(fl.build_dataset(fl.enumerate_train_cases()))
    test = fl.rows_to_dataset(fl.build_dataset(fl.sample_test_cases(42, 1.0)))
    agreement = evaluate(knn_fit(train, 1), test)
    assert agreement.true_fraction >= 0.99
    assert agreement.n == 209


def test_rows_to_dataset_shape():
    rows = fl.build_dataset(fl.enumerate_train_cases()[:11])
    data = fl.rows_to_dataset(rows)
    assert data.features.shape == (11, 9)
    assert list(data.labels) == [101 + t for t in range(11)]
    with pytest.raises(ValueError):
        fl.rows_to_dataset([])
