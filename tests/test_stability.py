"""Tests for the single-machine infinite-bus stability simulator.

Evidence groups: initialization against a forward phasor-algebra check,
integrator quality (exact equilibrium hold, energy conservation, step
halving), verdicts for the documented scenarios, equal-area oracle
cross-validation, sweep table properties, and CSV round trips.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gridstudies import stability as st


FULL_LOAD = st.OperatingPoint(0.9, 0.436)


# -- model and initialization ---------------------------------------------------

def test_network_reactances():
    m = st.SmibModel()
    assert abs(m.x_lines_parallel - 0.5 * 0.93 / 1.43) < 1e-12
    assert abs(m.x_pre - (0.3 + 0.15 + 0.5 * 0.93 / 1.43)) < 1e-12
    assert m.x_post == 0.3 + 0.15 + 0.5


def test_model_validation():
    # every field, NaN and infinities included: the sweep feeds one model
    # into all of its rows
    for name in ("s_base_mva", "v_base_kv", "xd_prime", "inertia_h",
                 "x_transformer", "x_line1", "x_line2", "v_bus", "f0_hz"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                st.SmibModel(**{name: bad})
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="damping"):
            st.SmibModel(damping=bad)
    st.SmibModel(damping=0.5)
    for t_end in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end must be"):
            st.simulate(st.SmibModel(), FULL_LOAD, st.FaultEvent(0.1, 0.05),
                        t_end=t_end)
    for t_on, duration in ((0.1, math.nan), (math.nan, 0.05),
                           (math.inf, 0.05), (0.1, math.inf), (0.1, -0.01)):
        with pytest.raises(ValueError, match="fault times"):
            st.FaultEvent(t_on, duration)


def test_operating_point_from_power_factor():
    op = st.OperatingPoint.from_power_factor(0.8)
    assert abs(op.p_pu - 0.8) < 1e-12
    assert abs(op.q_pu - 0.6) < 1e-12
    with pytest.raises(ValueError):
        st.OperatingPoint.from_power_factor(0.0)
    for p, q in ((-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                 (0.5, math.inf), (0.5, math.nan)):
        with pytest.raises(ValueError):
            st.OperatingPoint(p, q)


def _forward_terminal_power(model, e_mag, delta0):
    """Given the solved internal voltage, recompute terminal P, Q directly."""
    e = e_mag * complex(math.cos(delta0), math.sin(delta0))
    i = (e - model.v_bus) / complex(0.0, model.x_pre)
    vt = e - complex(0.0, model.xd_prime) * i
    s = vt * i.conjugate()
    return s.real, s.imag


def test_init_conditions_forward_oracle():
    m = st.SmibModel()
    for op in (FULL_LOAD, st.OperatingPoint(0.5, 0.1),
               st.OperatingPoint.from_power_factor(0.98)):
        e, d0 = st.init_conditions(m, op)
        p, q = _forward_terminal_power(m, e, d0)
        assert abs(p - op.p_pu) < 1e-9
        assert abs(q - op.q_pu) < 1e-9
        assert e > 0 and 0 <= d0 < math.pi / 2


def test_init_no_load_aligns_with_bus():
    m = st.SmibModel()
    e, d0 = st.init_conditions(m, st.OperatingPoint(0.0, 0.0))
    assert abs(e - m.v_bus) < 1e-12
    assert abs(d0) < 1e-12


def test_init_rejects_unity_power_factor_full_load():
    m = st.SmibModel()
    with pytest.raises(st.InfeasibleOperatingPoint):
        st.init_conditions(m, st.OperatingPoint(1.0, 0.0))


def test_init_rejects_nan_residual():
    # a NaN bus voltage makes every intermediate NaN; the residual check
    # must not let that through as a tiny residual.  SmibModel rejects NaN
    # on construction, so the field is changed afterwards.
    model = st.SmibModel()
    model.v_bus = math.nan
    with pytest.raises(st.InfeasibleOperatingPoint, match="residual"):
        st.init_conditions(model, FULL_LOAD)


# -- integrator quality ----------------------------------------------------------

def test_equilibrium_holds_exactly():
    m = st.SmibModel()
    res = st.simulate(m, FULL_LOAD, st.FaultEvent(0.1, 0.0), t_end=5.0)
    assert np.max(np.abs(res.trace.delta_rad - res.delta0_rad)) < 1e-9
    assert np.max(np.abs(res.trace.speed_dev_pu)) < 1e-12
    assert res.stable


def _energy_drift(model, res, fault):
    """Relative spread of H*w0*dw^2 - Pm*delta - Pmax_post*cos(delta) over
    the samples from t_clear on: the swing equation's first integral once
    circuit 2 is open and damping is zero."""
    e, d0 = res.e_prime_pu, res.delta0_rad
    pm = e * model.v_bus * math.sin(d0) / model.x_pre
    pmax = e * model.v_bus / model.x_post
    tr = res.trace
    post = tr.times >= fault.t_clear
    d, w = tr.delta_rad[post], tr.speed_dev_pu[post]
    energy = model.inertia_h * model.omega0 * w ** 2 - pm * d - pmax * np.cos(d)
    return (np.max(energy) - np.min(energy)) / abs(energy[0])


def test_perturbed_oscillation_conserves_energy():
    # the fault is the perturbation; after clearing the rotor swings freely
    m = st.SmibModel()
    for pf, duration in ((0.9, 0.05), (0.8, 0.1), (0.6, 0.2)):
        fault = st.FaultEvent(0.1, duration)
        res = st.simulate(m, st.OperatingPoint.from_power_factor(pf), fault)
        assert res.stable, (pf, duration)
        assert np.ptp(res.trace.delta_rad) > 0.1  # a real swing, not a rest
        assert _energy_drift(m, res, fault) < 1e-6, (pf, duration)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(pf=hst.floats(0.6, 0.98),
       duration=hst.floats(0.0, 0.25, exclude_min=True))
def test_random_stable_faults_conserve_energy(pf, duration):
    m = st.SmibModel()
    fault = st.FaultEvent(0.1, duration)
    res = st.simulate(m, st.OperatingPoint.from_power_factor(pf), fault,
                      stop_on_verdict=True)
    if res.stable:
        assert _energy_drift(m, res, fault) < 1e-6


def test_step_halving_converges():
    m = st.SmibModel()
    r1 = st.simulate(m, FULL_LOAD, st.FaultEvent(0.1, 0.05), dt=5e-4, t_end=2.0)
    r2 = st.simulate(m, FULL_LOAD, st.FaultEvent(0.1, 0.05), dt=2.5e-4, t_end=2.0)
    assert abs(r1.trace.delta_rad[-1] - r2.trace.delta_rad[-1]) < 1e-6


@pytest.mark.parametrize("dt", [2e-3, 0.0, -5e-4])
def test_step_size_guard(dt):
    with pytest.raises(ValueError, match="dt must be"):
        st.simulate(st.SmibModel(), FULL_LOAD, st.FaultEvent(0.1, 0.05), dt=dt)


def test_during_fault_power_is_zero():
    fault = st.FaultEvent(0.1, 0.05)
    tr = st.simulate(st.SmibModel(), FULL_LOAD, fault, t_end=0.3).trace
    # instants within 1e-15 s of a switch count as the switch itself: the
    # sample at 300 * dt = 0.15 is t_clear = 0.1 + 0.05 = 0.15000000000000002
    during = (tr.times > fault.t_on + 1e-15) & (tr.times < fault.t_clear - 1e-15)
    assert np.count_nonzero(during) == 99  # 0.5 ms samples inside 50 ms
    assert np.all(tr.pe_pu[during] == 0.0)
    assert np.all(tr.pe_pu[tr.times < fault.t_on] > 0.0)
    assert np.all(tr.pe_pu[tr.times >= fault.t_clear - 1e-15] > 0.0)


# -- scenario verdicts ------------------------------------------------------------

def test_full_load_50ms_fault_is_stable():
    res = st.simulate(st.SmibModel(), FULL_LOAD, st.FaultEvent(0.1, 0.05))
    assert res.stable
    assert res.stability_flag == 0


def test_holdout_power_duration_verdicts():
    m = st.SmibModel()
    table = {
        1820.4: (1, 0, 0, 1),
        1975.8: (1, 1, 0, 1),
        2153.4: (1, 1, 1, 1),
        1354.2: (0, 0, 0, 0),
    }
    durations_ms = (201.18, 140.81, 58.56, 221.22)
    for p_mw, expect in table.items():
        op = st.OperatingPoint.from_power_factor(p_mw / m.s_base_mva)
        got = tuple(
            st.simulate(m, op, st.FaultEvent(0.1, d / 1e3),
                        stop_on_verdict=True).stability_flag
            for d in durations_ms)
        assert got == expect, (p_mw, got)


def test_null_fault_trace_is_flat():
    m = st.SmibModel()
    res = st.simulate(m, FULL_LOAD, st.FaultEvent(0.1, 0.0), t_end=1.0)
    assert np.allclose(res.trace.delta_rad, res.delta0_rad, atol=1e-12)


# -- equal-area oracle ------------------------------------------------------------

def test_cct_inertia_scaling():
    op = FULL_LOAD
    _, t1 = st.cct_equal_area(st.SmibModel(), op)
    _, t4 = st.cct_equal_area(st.SmibModel(inertia_h=4 * 3.5), op)
    assert abs(t4 / t1 - 2.0) < 1e-12


def test_cct_no_load_unbounded():
    _, t = st.cct_equal_area(st.SmibModel(), st.OperatingPoint(0.0, 0.2))
    assert math.isinf(t)


def test_cct_raises_without_postfault_equilibrium():
    m = st.SmibModel()
    with pytest.raises(st.NoPostFaultEquilibrium):
        st.cct_equal_area(m, st.OperatingPoint.from_power_factor(0.98))


def test_cct_zero_when_clearing_cannot_save():
    # equilibrium exists at pf 0.97 but losing circuit 2 destabilizes anyway
    dc, tc = st.cct_equal_area(st.SmibModel(), st.OperatingPoint.from_power_factor(0.97))
    assert tc == 0.0


def test_verdict_flips_within_one_step_of_cct():
    m = st.SmibModel()
    dt = 5e-4
    for pf in (0.7, 0.8, 0.9):
        op = st.OperatingPoint.from_power_factor(pf)
        _, tc = st.cct_equal_area(m, op)
        below = st.simulate(m, op, st.FaultEvent(0.1, tc - dt), dt=dt,
                            stop_on_verdict=True)
        above = st.simulate(m, op, st.FaultEvent(0.1, tc + dt), dt=dt,
                            stop_on_verdict=True)
        assert below.stable and not above.stable, pf


def test_time_domain_agrees_with_oracle_on_subgrid():
    m = st.SmibModel()
    dt = 5e-4
    durations = list(st.DEFAULT_DURATIONS_S)[::8]
    for pf in st.DEFAULT_POWER_FACTORS:
        op = st.OperatingPoint.from_power_factor(pf)
        try:
            _, tc = st.cct_equal_area(m, op)
        except st.NoPostFaultEquilibrium:
            tc = 0.0
        for d in durations:
            flag = st.simulate(m, op, st.FaultEvent(0.1, d), dt=dt,
                               stop_on_verdict=True).stability_flag
            oracle = 0 if d <= tc else 1
            assert flag == oracle or abs(d - tc) <= dt, (pf, d, flag, tc)


# -- sweep -------------------------------------------------------------------

@pytest.mark.parametrize("grid", [tuple, lambda xs: (x for x in xs)],
                         ids=["tuple", "generator"])
def test_sweep_grid_shape_and_order(grid):
    m = st.SmibModel()
    rows = st.sweep(m, durations_s=grid((0.07, 0.16, 0.25)),
                    power_factors=grid((0.7, 0.9)))
    assert len(rows) == 6
    assert [r.power_mw for r in rows] == [1554.0] * 3 + [1998.0] * 3
    assert [r.duration_ms for r in rows] == [70.0, 160.0, 250.0] * 2
    assert all(r.stability in (0, 1) for r in rows)


def test_sweep_monotone_both_axes():
    m = st.SmibModel()
    durations = tuple(np.linspace(0.07, 0.25, 9))
    factors = (0.6, 0.7, 0.8, 0.9, 0.98)
    rows = st.sweep(m, durations_s=durations, power_factors=factors)
    table = np.array([r.stability for r in rows]).reshape(len(factors), len(durations))
    for line in table:
        assert list(line) == sorted(line)
    for col in table.T:
        assert list(col) == sorted(col)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        st.sweep(st.SmibModel(), durations_s=(), power_factors=(0.9,))


def _simulated(pfs, durations, dt, model=None):
    """The scalar oracle for each sweep row, factor-major."""
    m = model or st.SmibModel()
    return [st.simulate(m, st.OperatingPoint.from_power_factor(pf),
                        st.FaultEvent(0.1, float(dur)), dt=dt,
                        stop_on_verdict=True)
            for pf in pfs for dur in durations]


def _assert_lockstep_matches_simulate(pfs, durations, dt):
    """Flags equal simulate's; a row an energy certificate retired stops
    early, every other row runs exactly as long as simulate's trace; and
    each row's state at retirement is the trace's sample at that step.
    Returns the certified mask."""
    flags, steps, d, w, certified = st._lockstep(st.SmibModel(), durations,
                                                 pfs, dt)
    oracle = _simulated(pfs, durations, dt)
    assert list(flags) == [r.stability_flag for r in oracle]
    length = np.array([len(r.trace.times) - 1 for r in oracle])
    assert np.all(steps <= length)
    assert np.array_equal(steps[~certified], length[~certified])
    assert np.all(steps[certified] < length[certified])
    # the same arithmetic in the same order: bit for bit, given that
    # np.sin rounds like math.sin
    at = np.array([(r.trace.delta_rad[k], r.trace.speed_dev_pu[k])
                   for r, k in zip(oracle, steps)])
    assert d.tobytes() == at[:, 0].tobytes()
    assert w.tobytes() == at[:, 1].tobytes()
    return certified


# null fault, sub-step faults, faults ending mid-step or within a few ulps
# of a grid point, and rows on both sides of the critical clearing time
EDGE_DURATIONS_S = (0.0, 0.5e-3, 60.5e-3, 100e-3, 160.5e-3, 161e-3 + 1e-16,
                    170e-3, math.nextafter(0.25, 1.0))


@pytest.mark.parametrize("dt", [1e-3, 5e-4, 2.5e-4])
def test_lockstep_sweep_matches_simulate_on_edge_grid(dt):
    pfs = (0.6, 0.8, 0.98)
    certified = _assert_lockstep_matches_simulate(pfs, EDGE_DURATIONS_S, dt)
    # simulate judges a null fault against the post-fault equilibrium while
    # the machine stays on the pre-fault network: no certificate applies
    null = np.tile(np.array(EDGE_DURATIONS_S) == 0.0, len(pfs))
    assert not certified[null].any()
    assert certified[~null].all()


def test_lockstep_matches_simulate_near_the_stability_boundary():
    # the high power factors leave the shallowest energy well, where a
    # certificate's margin is thinnest
    certified = _assert_lockstep_matches_simulate(
        tuple(np.linspace(0.90, 0.98, 9)), tuple(np.linspace(0.0, 0.3, 21)),
        5e-4)
    assert certified.sum() == 9 * 20  # all but the null-fault rows


def test_late_slip_keeps_simulate_verdict():
    # a heavy rotor cleared just past the critical time creeps over the
    # unstable equilibrium in the last SLIP_HOLD_S of its horizon: its
    # energy proves a slip, but simulate's rules call it stable, so the
    # slip certificate must respect the horizon
    model = st.SmibModel(inertia_h=40.0)
    op = st.OperatingPoint.from_power_factor(0.8)

    def run(duration):
        return st.simulate(model, op, st.FaultEvent(0.1, duration),
                           stop_on_verdict=True)

    lo, hi = 0.4, 0.7  # around the equal-area critical time, 0.54 s
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if run(mid).stable else (lo, mid)
    e, d0 = st.init_conditions(model, op)
    pm = e * model.v_bus * math.sin(d0) / model.x_pre
    pmax = e * model.v_bus / model.x_post
    late = run(lo).trace
    assert late.delta_rad[-1] > math.pi - math.asin(pm / pmax)
    assert late.speed_dev_pu[-1] > 0
    flags = st._lockstep(model, (lo, hi), (0.8,), 5e-4)[0]
    assert list(flags) == [0, 1]


def test_default_grid_retires_by_certificate():
    # the energy certificates settle every default row soon after its
    # clearing (the last clears at step 700); without them the stable rows
    # integrate to step 6340-6700
    _, steps, _, _, certified = st._lockstep(
        st.SmibModel(), st.DEFAULT_DURATIONS_S, st.DEFAULT_POWER_FACTORS,
        5e-4)
    assert certified.all()
    assert steps.max() <= 1000


@settings(max_examples=8, deadline=None, derandomize=True)
@given(pfs=hst.lists(hst.floats(0.6, 0.98), min_size=1, max_size=2),
       durations=hst.lists(hst.floats(0.0, 0.3), min_size=1, max_size=3),
       dt=hst.sampled_from([5e-4, 1e-3]))
def test_random_sweeps_match_simulate(pfs, durations, dt):
    rows = st.sweep(st.SmibModel(), durations_s=durations, power_factors=pfs,
                    dt=dt)
    assert [r.stability for r in rows] == \
           [r.stability_flag for r in _simulated(pfs, durations, dt)]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(pfs=hst.lists(hst.floats(0.6, 0.98), min_size=1, max_size=2),
       durations=hst.lists(hst.floats(0.0, 0.3), min_size=1, max_size=3),
       inertia_h=hst.floats(1.0, 10.0),
       damping=hst.floats(0.0, 20.0, exclude_min=True),
       dt=hst.sampled_from([5e-4, 1e-3]))
def test_random_damped_sweeps_match_simulate(pfs, durations, inertia_h,
                                             damping, dt):
    # damping drains energy, so only the stable certificate applies
    model = st.SmibModel(inertia_h=inertia_h, damping=damping)
    rows = st.sweep(model, durations_s=durations, power_factors=pfs, dt=dt)
    assert [r.stability for r in rows] == \
           [r.stability_flag for r in _simulated(pfs, durations, dt, model)]


def test_default_grid_definition():
    assert len(st.DEFAULT_DURATIONS_S) == 67
    assert abs(st.DEFAULT_DURATIONS_S[0] - 0.070) < 1e-12
    assert abs(st.DEFAULT_DURATIONS_S[-1] - 0.250) < 1e-12
    assert st.DEFAULT_POWER_FACTORS == (0.6, 0.7, 0.8, 0.9, 0.98)


# -- CSV ----------------------------------------------------------------------

def test_trace_csv(tmp_path):
    res = st.simulate(st.SmibModel(), FULL_LOAD, st.FaultEvent(0.1, 0.05),
                      t_end=0.5)
    path = tmp_path / "trace.csv"
    st.write_trace_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,delta_deg,speed_dev,Pe_pu"
    assert len(lines) == len(res.trace.times) + 1


def test_sweep_csv_round_trip(tmp_path):
    rows = [st.SweepRow(1998.0, 70.0, 0), st.SweepRow(1998.0, 250.0, 1)]
    path = tmp_path / "sweep.csv"
    st.write_sweep_csv(rows, path)
    with open(path, newline="") as fh:
        header, *back = csv.reader(fh)
    assert header == ["Power", "Duration", "Stability"]
    assert [(float(p), float(d), int(s)) for p, d, s in back] == \
           [(1998.0, 70.0, 0), (1998.0, 250.0, 1)]


def test_sweep_to_dataset():
    rows = [st.SweepRow(1998.0, 70.0, 0), st.SweepRow(1554.0, 250.0, 1)]
    data = st.sweep_to_dataset(rows)
    assert data.features.shape == (2, 2)
    assert list(data.labels) == [0, 1]
    assert data.label_name == "Stability"
    with pytest.raises(ValueError):
        st.sweep_to_dataset([])
