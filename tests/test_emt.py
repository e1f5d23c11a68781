"""Transient solver checks.

Four kinds of evidence:
  1. closed-form RL/RC step responses, including second-order convergence
     of the trapezoidal rule under step halving
  2. travelling-wave behaviour on ideal lines: doubling at an open end,
     absorption at a matched end, sign flip at a shorted end, and an exact
     DC hold on pre-energized lines
  3. energy bookkeeping: source input minus resistor loss equals the line
     energy rebuilt from the wave buffers
  4. switch mechanics: a run ends on the first step any flashover switch
     reaches its strength, recording every switch that does
"""

import gc
import math
import weakref

import numpy as np
import pytest

from gridstudies.emt import (BatchRows, DoubleRampSource, EmtBatch, EmtNetwork,
                             batch_rows)

DT = 1e-3


def rl_step_network():
    # 1 V behind 1 ohm into a 1 H inductor; at t=0+ the full volt sits on the coil
    net = EmtNetwork()
    net.add_voltage_source("x", 1.0, 1.0)
    net.add_inductor("x", "ground", 1.0)
    net.set_initial_voltage("x", 1.0)
    return net

def rc_step_network():
    # 1 V behind 1 ohm into a 1 F capacitor; at t=0+ the inrush is 1 A
    net = EmtNetwork()
    net.add_voltage_source("x", 1.0, 1.0)
    net.add_capacitor("x", "ground", 1.0, i0=1.0)
    return net


def test_companion_conductances():
    # from rest, a unit current into one element alone gives v(dt) = 1/G
    for add, value, conductance in ((EmtNetwork.add_resistor, 10.0, 0.1),
                                    (EmtNetwork.add_inductor, 1.0, 5e-4),
                                    (EmtNetwork.add_capacitor, 1e-3, 2.0)):
        net = EmtNetwork()
        net.add_current_source("x", 1.0)
        add(net, "x", "ground", value)
        res = net.assemble(DT).run(DT, record=("x",))
        assert res.node_traces["x"][1] == pytest.approx(1.0 / conductance, rel=1e-12)

def test_companion_rejects_bad_elements():
    # NaN fails a `x <= 0` test, so each check must reject it explicitly
    net = EmtNetwork()
    adders = (net.add_resistor, net.add_inductor, net.add_capacitor,
              lambda a, b, zc: net.add_line(a, b, zc, 1.0),
              lambda a, b, tau: net.add_line(a, b, ZC, tau),
              lambda a, _b, ohms: net.add_voltage_source(a, 1.0, ohms),
              net.add_flashover_switch)
    for add in adders:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                add("a", "b", bad)
    assert not (net.resistors or net.storage or net.lines
                or net.current_sources or net.flashover_switches)

def test_time_grid():
    res = rl_step_network().assemble(1e-3).run(10.5e-3)
    assert len(res.times) == 12
    assert res.times[-1] == pytest.approx(11e-3)
    assert len(rl_step_network().assemble(1e-3).run(0.01).times) == 11
    for t_end in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            rl_step_network().assemble(1e-3).run(t_end)
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            rl_step_network().assemble(dt)
    # a window shorter than one step keeps only the initial state
    assert len(rl_step_network().assemble(1e-3).run(1e-16).times) == 1

def test_non_finite_run_raises():
    # NaN never reaches a strength; the run raises on its first NaN step
    net = EmtNetwork()
    net.add_current_source("x", math.nan)
    net.add_resistor("x", "ground", 1.0)
    net.add_flashover_switch("x", "ground", 1.0)
    sim = net.assemble(DT)
    with pytest.raises(np.linalg.LinAlgError):
        sim.run(5 * DT)
    assert sim.n == 1 and not sim.flashover_events

def test_singular_network_raises_at_assembly():
    # both nodes have a diagonal term, but nothing ties the pair to ground,
    # so G is exactly singular and cannot be inverted
    net = EmtNetwork()
    net.add_current_source("a", 1.0)
    net.add_resistor("a", "b", 50.0)
    with pytest.raises(np.linalg.LinAlgError):
        net.assemble(DT).run(5 * DT)


def test_rl_step_response():
    sim = rl_step_network().assemble(DT)
    res = sim.run(1.0, record_storage=(0,))
    got = res.branch_traces[0][-1]
    want = 1.0 - math.exp(-1.0)
    assert abs(got - want) / want < 1e-3

def test_rc_step_response():
    sim = rc_step_network().assemble(DT)
    res = sim.run(1.0, record=("x",), record_storage=(0,))
    want_v = 1.0 - math.exp(-1.0)
    assert abs(res.node_traces["x"][-1] - want_v) / want_v < 1e-3
    want_i = math.exp(-1.0)
    assert abs(res.branch_traces[0][-1] - want_i) / want_i < 1e-3

def test_second_order_convergence():
    # halving dt should cut the endpoint error by about four
    want = 1.0 - math.exp(-1.0)
    errs = []
    for dt in (2e-3, 1e-3):
        sim = rl_step_network().assemble(dt)
        res = sim.run(1.0, record_storage=(0,))
        errs.append(abs(res.branch_traces[0][-1] - want))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5

def test_resistive_divider_is_static():
    net = EmtNetwork()
    net.add_voltage_source("a", 10.0, 2.0)
    net.add_resistor("a", "b", 3.0)
    net.add_resistor("b", "ground", 5.0)
    res = net.assemble(DT).run(0.01, record=("a", "b"))
    assert np.allclose(res.node_traces["a"][1:], 8.0, rtol=0, atol=1e-12)
    assert np.allclose(res.node_traces["b"][1:], 5.0, rtol=0, atol=1e-12)


ZC = 400.0

def line_network(tau, far="open"):
    # unit step source, on from t=0, matched to the line at end a
    net = EmtNetwork()
    net.add_voltage_source("a", 1.0, ZC)
    net.add_line("a", "ground" if far == "shorted" else "b", ZC, tau, i0_a=0.5 / ZC)
    net.set_initial_voltage("a", 0.5)
    if far == "matched":
        net.add_resistor("b", "ground", ZC)
    return net

def test_open_line_doubles():
    # the front launched at t=0 arrives at exactly t=tau and doubles
    d = 100
    sim = line_network(d * DT).assemble(DT)
    res = sim.run(400 * DT, record=("a", "b"))
    vb = res.node_traces["b"]
    assert np.all(vb[:d] == 0.0)
    assert np.allclose(vb[d:], 1.0, rtol=0, atol=1e-9)
    va = res.node_traces["a"]
    assert np.allclose(va[: 2 * d], 0.5, rtol=0, atol=1e-9)
    assert np.allclose(va[2 * d :], 1.0, rtol=0, atol=1e-9)

def test_matched_line_absorbs():
    d = 100
    sim = line_network(d * DT, far="matched").assemble(DT)
    res = sim.run(400 * DT, record=("a", "b"))
    assert np.allclose(res.node_traces["a"], 0.5, rtol=0, atol=1e-9)
    vb = res.node_traces["b"]
    assert np.all(vb[:d] == 0.0)
    assert np.allclose(vb[d:], 0.5, rtol=0, atol=1e-9)

def test_shorted_line_reflects_negative():
    d = 100
    sim = line_network(d * DT, far="shorted").assemble(DT)
    res = sim.run(400 * DT, record=("a",))
    va = res.node_traces["a"]
    assert np.allclose(va[: 2 * d], 0.5, rtol=0, atol=1e-9)
    assert np.allclose(va[2 * d :], 0.0, rtol=0, atol=1e-9)

def test_fractional_delay_settles():
    sim = line_network(10.5 * DT, far="matched").assemble(DT)
    res = sim.run(200 * DT, record=("b",))
    assert np.allclose(res.node_traces["b"][-100:], 0.5, rtol=0, atol=1e-9)

def test_preenergized_line_holds_dc():
    # a charged line fed through a matched resistor from a DC source is an
    # equilibrium; the solver has to hold it without any drift
    volts = 187794.214
    net = EmtNetwork()
    net.add_voltage_source("a", volts, ZC)
    net.add_line("a", "b", ZC, 25 * DT, v0_a=volts, v0_b=volts)
    res = net.assemble(DT).run(300 * DT, record=("a", "b"))
    for name in ("a", "b"):
        assert np.allclose(res.node_traces[name], volts, rtol=1e-9, atol=0)

def test_line_energy_conservation():
    d = 100
    net = line_network(d * DT)
    sim = net.assemble(DT)
    e_net = 0.0
    p_prev = 0.5 * (1.0 - 0.5) / ZC  # v * (E - v)/Zc at the declared t=0 state
    checks = []
    for n in range(1, 1000 + 1):
        v = sim.solve_step()
        va = v[net.require_node("a")]
        p = va * (1.0 - va) / ZC
        e_net += 0.5 * DT * (p_prev + p)
        p_prev = p
        if n in (150, 1000):
            checks.append((n, e_net, sim.line_stored_energy(0)))
    # mid-transient the square wavefronts straddle a sample, so the buffer
    # estimate carries a half-sample bias; settled state must be within 0.5%
    for n, fed, stored in checks:
        assert abs(stored - fed) / fed < (0.01 if n == 150 else 0.005)


def test_run_ends_at_first_flashover():
    # v_a = 2000 t / 3 and v_b = 1000 t / 3, so at step n (dt = 1 ms) the
    # stresses are n/3 across a-b, 2n/3 across a-ground and n/3 across
    # b-ground: the first two switches reach their strengths together at
    # n = 6, and the third (2.0 < 2.1) does not
    net = EmtNetwork()
    net.add_voltage_source("a", lambda t: 1000.0 * t, 1.0)
    net.add_resistor("a", "b", 1.0)
    net.add_resistor("b", "ground", 1.0)
    ab = net.add_flashover_switch("a", "b", 1.8)
    ag = net.add_flashover_switch("a", "ground", 3.9)
    net.add_flashover_switch("b", "ground", 2.1)
    sim = net.assemble(DT)
    res = sim.run(0.02, record=("a", "b"))
    [(i1, t1, s1), (i2, t2, s2)] = res.flashovers
    assert (i1, i2) == (ab, ag) and t1 == t2
    k = int(round(t1 / DT))
    assert k == 6 and len(res.times) == k + 1
    va, vb = res.node_traces["a"], res.node_traces["b"]
    assert len(va) == len(vb) == k + 1
    assert s1 == abs(va[k] - vb[k]) >= 1.8 and s2 == abs(va[k]) >= 3.9
    assert abs(vb[k]) < 2.1
    # no switch reached its strength before the last step
    assert np.all(np.abs(va[:k] - vb[:k]) < 1.8) and np.all(np.abs(va[:k]) < 3.9)
    assert res.flashovers == sim.flashover_events

def test_double_ramp_shape():
    src = DoubleRampSource(30e3, 2e-6, 50e-6)
    assert src(0.0) == 0.0
    assert src(2e-6) == 30e3
    assert src(50e-6) == 15e3
    assert src(1e-6) == pytest.approx(15e3)
    t_zero = 2e-6 + 2 * (50e-6 - 2e-6)
    assert src(t_zero) == pytest.approx(0.0, abs=1e-6)
    assert src(t_zero + 1e-6) == 0.0
    t = np.linspace(-1e-6, 2e-4, 400)
    vec = src(t)
    assert np.all(vec >= 0.0)
    assert vec.shape == t.shape
    assert np.array_equal(vec, np.array([src(float(x)) for x in t]))
    neg = DoubleRampSource(-30e3, 2e-6, 50e-6)
    assert neg(2e-6) == -30e3
    assert np.all(neg(t) <= 0.0)
    # array parameters: a stack of waveforms, each equal to its scalar one
    stack = DoubleRampSource(np.array([30e3, -30e3]), np.array([2e-6, 2e-6]),
                             np.array([50e-6, 50e-6]))
    assert np.array_equal(stack(t[:, None]), np.column_stack([vec, neg(t)]))

def test_double_ramp_rejects_bad_times():
    with pytest.raises(ValueError):
        DoubleRampSource(1.0, 5e-6, 2e-6)
    with pytest.raises(ValueError):
        DoubleRampSource(1.0, 0.0, 2e-6)


def test_rejects_unconnected_node():
    net = EmtNetwork()
    net.add_voltage_source("a", 1.0, 1.0)
    net.add_current_source("x", 1.0)
    with pytest.raises(ValueError, match="'x'"):
        net.assemble(DT)

def test_rejects_sub_step_travel_time():
    net = EmtNetwork()
    net.add_voltage_source("a", 1.0, 1.0)
    net.add_line("a", "b", ZC, 0.1 * DT)
    with pytest.raises(ValueError, match="travel time"):
        net.assemble(DT)
    # a hair under one step: the later interpolation sample is not yet written
    net.lines[0].travel_time = DT * (1 - 1e-13)
    with pytest.raises(ValueError, match="travel time"):
        net.assemble(DT)

def test_rejects_unknown_record_node():
    sim = rl_step_network().assemble(DT)
    with pytest.raises(KeyError, match="nope"):
        sim.run(0.01, record=("nope",))

def test_run_requires_fresh_state():
    sim = rl_step_network().assemble(DT)
    sim.run(0.01)
    with pytest.raises(RuntimeError):
        sim.run(0.01)

def test_determinism():
    def trace():
        sim = line_network(33.25 * DT, far="matched").assemble(DT)
        return sim.run(200 * DT, record=("a", "b"))
    first, second = trace(), trace()
    for name in ("a", "b"):
        assert np.array_equal(first.node_traces[name], second.node_traces[name])


def run_oracle(batch, t_end):
    """EmtBatch.run as it stepped one step per numpy pass and judged every
    step: the oracle of the K-step passes and of held nodes.  It steps the
    batch's full network, held nodes or not, with its ring column n % D
    holding step n."""
    steps = int(math.ceil(t_end / batch.dt - 1e-12))
    node, ramp, gdiag, base, ln_v0, ln_t0, strength = (
        np.concatenate(col, axis=-1) for col in zip(*batch._blocks))
    b, nodes = node.size, base.shape[0]
    ends = batch._ln_ends.size
    depth = int((np.ceil(batch._ln_delay).astype(np.intp) + 2).max(initial=1))
    rows = np.arange(b)
    surge = DoubleRampSource(*ramp[:, None])(
        (np.arange(1, steps + 1) * batch.dt)[:, None])
    inject = node * b + rows  # into base.ravel()
    surged = base.ravel()[inject] + surge
    hist = (batch._ln_ends[:, None] * b + rows).ravel()
    zc = np.repeat(batch._ln_zc, b).reshape(ends, b)

    ring = np.empty((depth, 2 * ends, b))
    ring[:, :ends] = ln_v0
    ring[:, ends:] = 0.0
    ring[0] = ln_t0
    flat = ring.reshape(depth * 2 * ends, b)
    delay = np.tile(batch._ln_delay, 2)
    far = np.concatenate([batch._ln_far, batch._ln_far + ends])
    chunk = 32

    def interpolation(n0):
        q = np.arange(n0 + 1, n0 + chunk + 1)[:, None] - delay
        m0 = np.floor(q).astype(np.intp)
        frac = q - m0
        at = np.concatenate([m0, m0 + 1], axis=1) % depth * (2 * ends)
        return at + np.tile(far, 2), np.concatenate([1.0 - frac, frac], axis=1)

    def histories(at, weight):
        part = weight.repeat(b).reshape(4 * ends, b) * flat.take(at, axis=0)
        w = part[:2 * ends] + part[2 * ends:]
        return w[:ends] / zc + w[ends:]

    at, weight = interpolation(0)
    neg_h = histories(at[0], weight[0])
    end = np.zeros(b, dtype=np.intp)
    finite = np.ones(b, dtype=bool)
    live = np.ones(b, dtype=bool)
    v_ok = np.empty((nodes - 1, b), dtype=bool)
    rhs = np.empty((nodes, b))
    v = np.zeros((nodes, b))
    for n in range(1, steps + 1):
        base.ravel()[inject] = surged[n - 1]
        np.add(base, np.bincount(hist, weights=neg_h.ravel(),
                                 minlength=nodes * b).reshape(nodes, b),
               out=rhs)
        np.multiply(gdiag, rhs[1:], out=v[1:])
        np.isfinite(v[1:], out=v_ok)
        ve, ie = ring[n % depth].reshape(2, ends, b)
        v.take(batch._ln_ends, axis=0, out=ve)
        np.divide(ve, zc, out=ie)
        ie -= neg_h
        if n % chunk == 0:
            at, weight = interpolation(n)
        neg_h = histories(at[n % chunk], weight[n % chunk])
        over = np.abs(v[batch._fo_a] - v[batch._fo_b]) >= strength
        if over.any() or not v_ok.all():
            failed = live & ~v_ok.all(axis=0)
            finite[failed] = False
            hit = failed | live & over.any(axis=0)
            end[hit] = n
            live &= ~hit
            strength[:, hit] = np.nan
            if not live.any():
                break
    return end, finite


def assert_runs_as_oracle(batch, t_end):
    """The batch's (end, finite) are the per-step oracle's; returns them."""
    got = batch.run(t_end)
    want = run_oracle(batch, t_end)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    return got


def surge_network(footing, peak=-1e3, tower=None):
    # a surge into one end of a line; the far end grounds through `footing`
    net = EmtNetwork()
    net.add_current_source("a", DoubleRampSource(peak, 2 * DT, 40 * DT))
    net.add_line("a", "b", ZC, 2.5 * DT)
    if tower:
        net.add_line("b", "c", ZC, tower)
    net.add_resistor("b", "ground", footing)
    net.add_flashover_switch("a", "ground", 6e5)
    return net


def test_batch_rows_end_as_their_scalar_runs():
    # values differ row by row, structure does not: the low footing holds
    # 1 kA, the high one doubles its wave back and flashes, 2 kA flashes on
    # the front, and the NaN surge fails alone
    nets = [surge_network(f, p) for f, p in
            ((10.0, -1e3), (1e4, -1e3), (100.0, math.nan), (30.0, -2e3))]
    batch = EmtBatch(nets[0].assemble(DT))
    for net in nets:
        batch.add(net.assemble(DT))
    flash, finite = assert_runs_as_oracle(batch, 60 * DT)
    for net, step, ok in zip(nets, flash.tolist(), finite.tolist()):
        try:
            res = net.assemble(DT).run(60 * DT)
        except np.linalg.LinAlgError:
            assert not ok
            continue
        assert ok and step == (round(res.flashovers[0][1] / DT)
                               if res.flashovers else 0)
    assert finite.tolist() == [True, True, False, True]
    assert flash[0] == 0 and 0 not in flash[[1, 3]]


def prehistory_network(peak, v_start, i0):
    # end a starts at v_start with i0 flowing into line a-b, while both
    # lines' pre-history is (0 V, 0 A); a-b's delay is fractional, a-c's
    # whole.  Far ends that read before t=0 must see the pre-history: one
    # that saw the t=0 sample instead would put hundreds of volts on b at
    # step 1
    net = EmtNetwork()
    net.add_current_source("a", DoubleRampSource(peak, 2 * DT, 40 * DT))
    net.add_line("a", "b", ZC, 2.5 * DT, i0_a=i0)
    net.add_line("a", "c", ZC, 3 * DT)
    net.add_resistor("b", "ground", 50.0)
    net.add_resistor("c", "ground", 500.0)
    net.set_initial_voltage("a", v_start)
    net.add_flashover_switch("b", "ground", 500.0)
    net.add_flashover_switch("a", "c", 3500.0)
    return net


def test_batch_reads_the_pre_history_before_t0():
    nets = [prehistory_network(p, v, i) for p, v, i in
            ((-10.0, 3e3, 5.0), (-3.0, 1e4, 0.0), (-2.0, 0.0, 40.0),
             (-5.0, -2e3, -10.0))]
    batch = EmtBatch(nets[0].assemble(DT))
    for net in nets:
        batch.add(net.assemble(DT))
    flash, finite = assert_runs_as_oracle(batch, 60 * DT)
    steps = []
    for net in nets:
        res = net.assemble(DT).run(60 * DT)
        steps.append(round(res.flashovers[0][1] / DT) if res.flashovers else 0)
    assert flash.tolist() == steps and finite.all()
    assert steps == [3, 2, 2, 0]


def test_batch_run_is_a_function_of_its_rows():
    # a second run starts again from the rows' initial states: a switch
    # that flashed, or a surge injected, in the first leaves no trace
    nets = [surge_network(f, p) for f, p in
            ((10.0, -1e3), (1e4, -1e3), (30.0, -2e3))]
    batch = EmtBatch(nets[0].assemble(DT))
    for net in nets:
        batch.add(net.assemble(DT))
    (end, finite), (again, finite_again) = batch.run(60 * DT), batch.run(60 * DT)
    assert np.array_equal(end, again) and np.array_equal(finite, finite_again)
    assert end[0] == 0 and 0 not in end[1:] and finite.all()


def test_an_open_row_pins_no_inverse_or_line_buffer():
    # a batch keeps a row's values, not its network's arrays: once the
    # caller drops the simulation, its G⁻¹ and line buffers are freed
    sim = surge_network(10.0).assemble(DT)
    batch = EmtBatch(sim)
    batch.add(sim)
    refs = [weakref.ref(a) for a in (sim._ginv, sim._buf_v, sim._buf_i)]
    del sim
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_batch_takes_one_structure():
    batch = EmtBatch(surge_network(10.0).assemble(DT))
    with pytest.raises(ValueError, match="structure"):
        batch.add(surge_network(10.0, tower=3 * DT).assemble(DT))
    with pytest.raises(ValueError, match="DoubleRampSource"):
        EmtBatch(rl_step_network().assemble(DT))
    # the scalar stepper and the batch both refuse a line under one step
    with pytest.raises(ValueError, match="travel time"):
        surge_network(10.0, tower=DT * (1 - 1e-13)).assemble(DT)
    # a resistor between two nodes puts G off the diagonal
    coupled = surge_network(10.0)
    coupled.add_resistor("a", "b", 500.0)
    with pytest.raises(ValueError, match="diagonal"):
        EmtBatch(coupled.assemble(DT))
    with pytest.raises(ValueError, match="diagonal"):
        batch.add(coupled.assemble(DT))


def test_column_intake_runs_as_added_rows():
    # the rows of several networks, given as one block of columns, run as
    # the same networks added one by one; a block of the wrong height or a
    # stepped network is refused
    nets = [surge_network(f, p) for f, p in
            ((10.0, -1e3), (1e4, -1e3), (100.0, math.nan), (30.0, -2e3))]
    added = EmtBatch(nets[0].assemble(DT))
    for net in nets:
        added.add(net.assemble(DT))
    rows = [batch_rows(net.assemble(DT)) for net in nets]
    block = BatchRows(*(np.concatenate(col, axis=-1) for col in zip(*rows)))
    taken = EmtBatch(nets[0].assemble(DT))
    taken.extend(BatchRows(*(c[..., :1] for c in block)))
    taken.extend(BatchRows(*(c[..., 1:] for c in block)))
    with np.errstate(invalid="ignore"):
        want, got = added.run(60 * DT), taken.run(60 * DT)
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    with pytest.raises(ValueError, match="structure"):
        taken.extend(block._replace(ginv_diag=block.ginv_diag[1:]))
    stepped = nets[0].assemble(DT)
    stepped.solve_step()
    with pytest.raises(ValueError, match="initial state"):
        batch_rows(stepped)


def washout_network(peak, x_strength):
    # the surge drives a node no line reaches, so a finite one changes
    # nothing elsewhere; a constant source charges line a-b until the
    # switch at b flashes.  The 2-step front and 3-step half time take an
    # infinite surge through NaN back to 0 A by step 5
    net = EmtNetwork()
    net.add_current_source("x", DoubleRampSource(peak, 2 * DT, 3 * DT))
    net.add_resistor("x", "ground", 50.0)
    net.add_current_source("a", 1.0)
    net.add_resistor("a", "ground", ZC)
    net.add_line("a", "b", ZC, 6.5 * DT)
    net.add_resistor("b", "ground", 1e4)
    net.add_flashover_switch("b", "ground", 300.0)
    if x_strength:
        net.add_flashover_switch("x", "ground", x_strength)
    return net


def test_washed_out_nan_still_fails_the_run():
    # the line voltages are NaN on steps 1-4 and again as the NaN comes
    # back along the line; they are finite again when the switch at b
    # flashes, but the run failed on step 1
    sim = washout_network(math.inf, None).assemble(DT)
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        sim.run(40 * DT)
    assert sim.n == 1 and not sim.flashover_events


@pytest.mark.parametrize("x_strength", [None, 1e6])
def test_batch_and_scalar_fail_a_row_on_its_first_non_finite_step(x_strength):
    # an infinite surge makes x's voltage infinite on step 1: the scalar run
    # raises there and the batch ends the row there as not finite, switch at
    # x or not; the finite rows flash at b as they would alone
    nets = [washout_network(p, x_strength)
            for p in (-1e3, math.inf, -math.inf, 5.0)]
    batch = EmtBatch(nets[0].assemble(DT))
    for net in nets:
        batch.add(net.assemble(DT))
    with np.errstate(invalid="ignore"):
        end, finite = assert_runs_as_oracle(batch, 40 * DT)
    for net, step, ok in zip(nets, end.tolist(), finite.tolist()):
        sim = net.assemble(DT)
        try:
            with np.errstate(invalid="ignore"):
                res = sim.run(40 * DT)
        except np.linalg.LinAlgError:
            assert not ok and step == sim.n
            continue
        assert ok and step == round(res.flashovers[0][1] / DT)
    assert finite.tolist() == [True, False, False, True]
    assert end[1] == end[2] == 1 and end[0] == end[3] > 4


def held_network(peak, volts, strength=2e4):
    # surge_network beside a pre-energised line p-q between two matched
    # sources: no surge reaches p or q, and a switch across b-p reads the
    # surge against p's rest voltage
    net = surge_network(10.0, peak)
    net.add_line("p", "q", 110.0, 2.7 * DT, v0_a=volts, v0_b=volts)
    for node in "pq":
        net.set_initial_voltage(node, volts)
        net.add_voltage_source(node, volts, 110.0)
    net.add_flashover_switch("b", "p", strength)
    return net


def test_held_nodes_run_as_the_full_network():
    # rows holding p and q step without them, to the verdicts of the
    # per-step oracle on the full network and of the scalar runs.  At
    # 120509.786... V and -257832.073... V the full network's rounding
    # moves p or q off their rest voltage, far below any switch's margin;
    # NaN held voltages fail their row on step 1, as the scalar run does
    cases = ((-1e3, 1e4, 2e4), (-3e3, 7e3, 2e4), (-1e3, 5e4, 2e4),
             (math.nan, 1e4, 2e4), (-2e3, 0.1, 2e4), (-0.5e3, 0.1, 2e4),
             (-1e3, 120509.78608255874, 1e12), (-1e3, -257832.0732773623, 1e12),
             (-1e3, math.nan, 2e4))
    nets = [held_network(*case) for case in cases]
    sim = nets[0].assemble(DT)
    held = [sim.net.require_node(name) for name in "pq"]
    batch = EmtBatch(sim, held)
    for net in nets:
        batch.add(net.assemble(DT))
    with np.errstate(invalid="ignore"):
        end, finite = assert_runs_as_oracle(batch, 60 * DT)
    switches, drifted = [], 0
    for net, (_peak, volts, _strength), step, ok in zip(
            nets, cases, end.tolist(), finite.tolist()):
        full = net.assemble(DT)
        try:
            with np.errstate(invalid="ignore"):
                res = full.run(60 * DT, record=("p", "q"))
        except np.linalg.LinAlgError:
            assert not ok and step == full.n
            continue
        assert ok and step == (round(res.flashovers[0][1] / DT)
                               if res.flashovers else 0)
        switches += [k for k, _t, _stress in res.flashovers]
        traces = np.concatenate(list(res.node_traces.values()))
        drifted += bool((traces != volts).any())
        assert np.abs(traces - volts).max() <= 1e-9 * abs(volts)
    assert finite.tolist() == [True] * 3 + [False] + [True] * 4 + [False]
    assert end[8] == 1 and end[6] == end[7] == 0
    assert 1 in switches and end[5] == 0  # b-p flashes; one row holds
    assert drifted == 2

    # a row whose held end starts off the line's pre-history is refused
    late_start = held_network(-1e3, 5e4)
    late_start.set_initial_voltage("p", 5e4 + 1.0)
    again = EmtBatch(sim, held)
    again.add(late_start.assemble(DT))
    with pytest.raises(ValueError, match="pre-history"):
        again.run(60 * DT)


def test_held_nodes_are_joined_only_to_held_nodes():
    sim = held_network(-1e3, 1e3).assemble(DT)
    a, b, p = (sim.net.require_node(name) for name in "abp")
    with pytest.raises(ValueError, match="held"):
        EmtBatch(sim, [p])  # line p-q joins it to a solved node
    with pytest.raises(ValueError, match="held"):
        EmtBatch(sim, [0, p, sim.net.require_node("q")])
    washout = washout_network(-1e3, None).assemble(DT)
    with pytest.raises(ValueError, match="line end"):
        EmtBatch(washout, [washout.net.require_node("x")])
    # the surge drives a, so a row cannot hold a and b
    batch = EmtBatch(sim, [a, b])
    with pytest.raises(ValueError, match="surge"):
        batch.add(sim)
    with pytest.raises(ValueError, match="surge"):
        batch.extend(batch_rows(sim))


@pytest.mark.parametrize("seed", [1, 2])
def test_passes_run_as_the_per_step_oracle_on_study_batches(seed):
    # every batch of a lightning study ends each row where the per-step
    # loop on the full network does.  A shield batch keeps the tower lines
    # (2.06 steps) and advances two steps per pass; a phase batch keeps one
    # phase's spans only.  Seed 1 strikes no phase conductor, seed 2 does
    from gridstudies import lightning

    config = lightning.StudyConfig(n=2000, seed=seed)
    sample = lightning.sample_strokes(config.n, config.seed, config.geometry)
    impacts = lightning.classify_impact(sample.x_m, sample.y_m,
                                        sample.peak_ka, config.geometry)
    line = sample[impacts.on_line], impacts[impacts.on_line]
    wires = set()
    for rows, template, held, columns in lightning._replay_batches(
            *line, config):
        batch = EmtBatch(template, held)
        batch.extend(columns)
        [wire] = set(line[1].wire[rows].tolist())
        passes = batch._plan(config.t_end_s).passes
        assert passes == 2 if wire == lightning.SHIELD else passes > 2
        assert_runs_as_oracle(batch, config.t_end_s)
        wires.add(wire)
    assert lightning.SHIELD in wires and (len(wires) > 1) == (seed == 2)
