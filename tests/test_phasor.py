"""Phasor solver tests.

Proves:
  Group 1 - assembly
    the shared two-terminal stamp matches the hand-stamped single-branch
    case and stays exactly symmetric, node merging is order-independent,
    random networks with coupled branches are reciprocal, isolated node
    named in the error, the nodal assembly gives the bits of the loops that
    skipped zero shunt terms, and one stacked assembly the bits of one
    assembly per case
  Group 2 - solving against independent oracles
    voltage divider, two-mesh ladder vs a loop-current oracle,
    superposition and reciprocity to 1e-9, complex power balance to 1e-8
  Group 3 - faults
    bolted faults merge nodes exactly, every fault code stamps the right
    branch set, code 12 and negative or non-finite resistances rejected,
    fault application leaves the input intact,
    power balances under random codes, distances and bolted/resistive mixes
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridstudies.nodal import merge_nodes, stamp
from gridstudies.phasor import (
    FAULT_CONNECTIONS,
    FaultSpec,
    LineSectionModel,
    PhasorNetwork,
    SingularNetworkError,
    apply_fault,
    nodal_system,
    solve_steady_state,
)


def ladder_network(z0, z1, z2, z3, z4, emf=1.0 + 0j):
    """Source behind z0 at n1; n1-z1-n2; n2-z2-gnd; n2-z3-n3; n3-z4-gnd."""
    net = PhasorNetwork()
    net.add_source("n1", emf, z0)
    net.add_branch("n1", "n2", z1)
    net.add_branch("n2", "ground", z2)
    net.add_branch("n2", "n3", z3)
    net.add_branch("n3", "ground", z4)
    return net


def ladder_oracle(z0, z1, z2, z3, z4, emf=1.0 + 0j):
    """Loop-current solution of the same ladder, written independently."""
    a = np.array([[z0 + z1 + z2, -z2], [-z2, z2 + z3 + z4]], dtype=complex)
    b = np.array([emf, 0j])
    i1, i2 = np.linalg.solve(a, b)
    v1 = emf - z0 * i1
    v2 = z2 * (i1 - i2)
    v3 = z4 * i2
    return v1, v2, v3


def power_balance(sol):
    """(complex power delivered by the ideal emfs, complex power absorbed).

    Element currents follow from the node voltages; bolted branches
    absorb nothing."""
    v = sol.node_voltages
    delivered = 0j
    absorbed = 0j
    net = sol.network
    for src in net.sources:
        i = (src.emf - v[src.node]) / src.internal_impedance
        delivered += src.emf * np.conj(i)
        absorbed += src.internal_impedance * abs(i) ** 2
    for br in net.branches:
        if not br.is_short:
            i = (v[br.from_node] - v[br.to_node]) / br.series_impedance
            absorbed += br.series_impedance * abs(i) ** 2
    for cb in net.coupled:
        vdrop = v[list(cb.from_nodes)] - v[list(cb.to_nodes)]
        absorbed += vdrop @ np.conj(np.linalg.solve(cb.series_impedance, vdrop))
        for ends in (cb.from_nodes, cb.to_nodes):
            ve = v[list(ends)]
            absorbed += ve @ np.conj(cb.shunt_admittance_per_end @ ve)
    return delivered, absorbed


def drive_each(net, probes, z_source):
    """Voltage at every probe with a unit emf behind z_source at one probe
    and a zero emf behind z_source at each other probe, keyed (driven,
    probe).  Every variant has the same nodal matrix, so a reciprocal
    network gives v[a, b] == v[b, a]."""
    v = {}
    for src in probes:
        driven = net.copy()
        for p in probes:
            driven.add_source(p, 1.0 + 0j if p == src else 0j, z_source)
        sol = solve_steady_state(driven)
        for dst in probes:
            v[src, dst] = sol.voltage(dst)
    return v


# -- Group 1: assembly ---------------------------------------------------------


def test_single_branch_admittance():
    y = np.zeros((2, 2), dtype=complex)
    stamp(y, 0, 1, 1.0 + 0j)
    assert np.array_equal(y, np.array([[1, -1], [-1, 1]], dtype=complex))
    stamp(y, 1, -1, 2.0 + 0j)   # shunt to ground touches the diagonal only
    stamp(y, 0, 0, 5.0 + 0j)    # both ends merged into one row: no-op
    stamp(y, -1, -1, 5.0 + 0j)  # both ends on ground: no-op
    assert np.array_equal(y, np.array([[1, -1], [-1, 3]], dtype=complex))


def test_merge_nodes_order_independent():
    pairs = [(4, 2), (5, 0), (3, 1), (2, 6)]
    row, roots = merge_nodes(8, pairs)
    assert (row, roots) == merge_nodes(8, pairs[::-1])
    # groups {1,3} {2,4,6} {7} in node-id order; {0,5} is ground
    assert roots == [1, 2, 7]
    assert row == [-1, 0, 1, 0, 1, -1, 1, 2]


def test_admittance_symmetry_random_networks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 8))
        y = np.zeros((n, n), dtype=complex)
        for _ in range(3 * n):
            ia, ib = (int(k) for k in rng.integers(-1, n, size=2))
            stamp(y, ia, ib, complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0)))
        assert np.array_equal(y, y.T)

    # a symmetric nodal matrix makes every network reciprocal
    for _ in range(20):
        net = PhasorNetwork()
        n_nodes = int(rng.integers(3, 8))
        names = [f"n{k}" for k in range(n_nodes)] + ["ground"]
        for _ in range(int(rng.integers(n_nodes, 3 * n_nodes))):
            a, b = rng.choice(len(names), size=2, replace=False)
            z = complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
            y_end = complex(0, rng.uniform(1e-4, 1e-3))
            net.add_branch(names[a], names[b], z)
            for end in (names[a], names[b]):  # a shunt at each end
                net.add_branch(end, "ground", 1.0 / y_end)
        line = LineSectionModel(0.02 + 0.3j, 0.2 + 1.0j, 1e-9j, 5e-10j,
                                length_km=50.0, mutual_skew=0.15)
        net.add_coupled_branch("p", "q", line.series_matrix(), line.shunt_matrix_per_end())
        net.add_branch("n0", "p.A", 1.0 + 1.0j)
        for phase in "ABC":
            net.add_branch(f"q.{phase}", "ground", 2.0 + 0.5j)
        probes = ("n0", "p.B", "q.A")
        v = drive_each(net, probes, 0.5 + 1.5j)
        for src in probes:
            for dst in probes:
                assert abs(v[src, dst] - v[dst, src]) < 1e-9 * max(abs(v[src, dst]), 1.0)


def test_isolated_node_named():
    net = PhasorNetwork()
    net.add_source("a", 1.0, 1.0 + 0j)
    net.add_branch("a", "b", 1.0 + 0j)
    net.node("floating")
    with pytest.raises(SingularNetworkError) as err:
        solve_steady_state(net)
    assert err.value.node == "floating"


def test_empty_network_rejected():
    with pytest.raises(SingularNetworkError):
        solve_steady_state(PhasorNetwork())
    bolted = PhasorNetwork()  # a source, but its only node is bolted to ground
    bolted.add_source("a", 1.0 + 0j, 1.0 + 0j)
    bolted.add_branch("a", "ground", 0j)
    with pytest.raises(SingularNetworkError, match="bolted to ground"):
        solve_steady_state(bolted)


def skipping_oracle_voltages(net):
    """Node voltages from a separate copy of the assembly loops that skip
    every zero shunt term, solved as solve_steady_state solves."""
    row, roots = merge_nodes(len(net._ids), [(br.from_node, br.to_node)
                                             for br in net.branches if br.is_short])
    n = len(roots)
    y = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    for br in net.branches:
        if br.is_short:
            continue
        ia, ib = row[br.from_node], row[br.to_node]
        stamp(y, ia, ib, 1.0 / br.series_impedance)
    for cb in net.coupled:
        yblk = np.linalg.inv(cb.series_impedance)
        for r in range(3):
            for c in range(3):
                g = yblk[r, c]
                ir, ic = row[cb.from_nodes[r]], row[cb.from_nodes[c]]
                jr, jc = row[cb.to_nodes[r]], row[cb.to_nodes[c]]
                if ir >= 0 and ic >= 0:
                    y[ir, ic] += g
                if jr >= 0 and jc >= 0:
                    y[jr, jc] += g
                if ir >= 0 and jc >= 0:
                    y[ir, jc] -= g
                if jr >= 0 and ic >= 0:
                    y[jr, ic] -= g
                ys = cb.shunt_admittance_per_end[r, c]
                if ys != 0:
                    if ir >= 0 and ic >= 0:
                        y[ir, ic] += ys
                    if jr >= 0 and jc >= 0:
                        y[jr, jc] += ys
    for src in net.sources:
        i = row[src.node]
        g = 1.0 / src.internal_impedance
        if i >= 0:
            y[i, i] += g
            rhs[i] += src.emf * g
    v = np.linalg.solve(y, rhs)
    return np.array([v[i] if i >= 0 else 0j for i in row])


def assembly_network(rng):
    """Random branches (some bolted), two sources, a coupled branch whose
    shunt matrix is zero off the diagonal and one with no shunt at all."""
    net = PhasorNetwork()
    names = ["n0", "n1", "n2", "n3", "p.A", "q.B", "ground"]
    net.add_source("n0", complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)),
                   complex(rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0)))
    net.add_source("n2", complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                   complex(rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0)))
    for _ in range(10):
        a, b = rng.choice(len(names), size=2, replace=False)
        z = 0j if rng.uniform() < 0.2 else complex(rng.uniform(0.1, 5.0),
                                                    rng.uniform(-3.0, 3.0))
        net.add_branch(names[a], names[b], z)
    line = LineSectionModel(0.02 + 0.3j, 0.2 + 1.0j, 1e-3j, 5e-4j,
                            length_km=rng.uniform(5.0, 50.0), mutual_skew=0.15)
    net.add_coupled_branch("p", "q", line.series_matrix(),
                           np.diag(np.diag(line.shunt_matrix_per_end())))
    net.add_coupled_branch("q", "r", line.series_matrix(20.0))
    net.add_branch("n1", "p.B", 1.0 + 1.0j)
    net.add_branch("n3", "p.C", 0j)  # bolted onto the coupled branch
    for phase in "ABC":
        net.add_branch(f"r.{phase}", "ground", 2.0 + 0.5j)
    return net


def test_assembly_adds_zero_shunts_without_changing_a_bit():
    rng = np.random.default_rng(21)
    solved = 0
    for _ in range(60):
        net = assembly_network(rng)
        try:
            want = skipping_oracle_voltages(net)
            got = solve_steady_state(net).node_voltages
        except (np.linalg.LinAlgError, SingularNetworkError):
            continue
        assert got.tobytes() == want.tobytes()
        solved += 1
    assert solved >= 30


def test_stacked_assembly_matches_one_assembly_per_case():
    rng = np.random.default_rng(22)
    net = assembly_network(rng)
    row, roots = merge_nodes(len(net._ids), [(br.from_node, br.to_node)
                                             for br in net.branches if br.is_short])
    m = 5

    def draw(shape=()):
        return rng.uniform(0.1, 2.0, size=shape) + 1j * rng.uniform(-2.0, 2.0, size=shape)

    admittances = [None if br.is_short else draw((m,)) for br in net.branches]
    sections = [(draw((3, 3, m)), draw((3, 3, m)) * (rng.uniform(size=(3, 3, m)) < 0.5))
                for _ in net.coupled]
    y, rhs = nodal_system(net, row, len(roots), admittances, sections, rows=(m,))
    assert y.shape == (len(roots), len(roots), m) and rhs.shape == (len(roots), m)
    for k in range(m):
        yk, rhsk = nodal_system(
            net, row, len(roots),
            [None if g is None else complex(g[k]) for g in admittances],
            [(a[:, :, k], b[:, :, k]) for a, b in sections])
        assert np.ascontiguousarray(y[:, :, k]).tobytes() == yk.tobytes()
        assert np.ascontiguousarray(rhs[:, k]).tobytes() == rhsk.tobytes()


# -- Group 2: solving ----------------------------------------------------------


def test_voltage_divider():
    net = PhasorNetwork()
    net.add_source("mid", 1.0 + 0j, 1.0 + 0j)
    net.add_branch("mid", "ground", 1.0 + 0j)
    sol = solve_steady_state(net)
    assert sol.voltage("mid") == pytest.approx(0.5 + 0j, abs=1e-12)


def test_ladder_matches_mesh_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        zs = [complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 4.0)) for _ in range(5)]
        emf = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        net = ladder_network(*zs, emf=emf)
        sol = solve_steady_state(net)
        v1, v2, v3 = ladder_oracle(*zs, emf=emf)
        assert abs(sol.voltage("n1") - v1) < 1e-9 * abs(emf)
        assert abs(sol.voltage("n2") - v2) < 1e-9 * abs(emf)
        assert abs(sol.voltage("n3") - v3) < 1e-9 * abs(emf)


def test_superposition():
    def build(e1, e2):
        net = ladder_network(1 + 1j, 2 + 3j, 5 - 1j, 1 + 0.5j, 3 + 2j, emf=e1)
        net.add_source("n3", e2, 0.5 + 2j)
        return solve_steady_state(net)

    full = build(1.0 + 0j, 0.7 - 0.4j)
    only1 = build(1.0 + 0j, 0j)
    only2 = build(0j, 0.7 - 0.4j)
    for node in ("n1", "n2", "n3"):
        combined = only1.voltage(node) + only2.voltage(node)
        assert abs(full.voltage(node) - combined) < 1e-9


def test_reciprocity():
    def build():
        net = PhasorNetwork()
        net.add_branch("a", "b", 1 + 2j)
        net.add_branch("b", "c", 2 - 1j)
        net.add_branch("a", "ground", 3 + 1j)
        net.add_branch("c", "ground", 1 + 4j)
        net.add_branch("b", "ground", 5 + 0j)
        return net

    v = drive_each(build(), ("a", "b"), 2.0 + 0.5j)
    assert abs(v["a", "b"] - v["b", "a"]) < 1e-9


def test_power_balance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        zs = [complex(rng.uniform(0.2, 4.0), rng.uniform(0.0, 4.0)) for _ in range(5)]
        net = ladder_network(*zs)
        for node in ("n1", "n2"):  # a capacitive shunt at each end of z1
            net.add_branch(node, "ground", 1.0 / 1e-4j)
        sol = solve_steady_state(net)
        delivered, absorbed = power_balance(sol)
        assert abs(delivered - absorbed) < 1e-8 * max(abs(delivered), 1.0)


def test_balanced_source_symmetric_line_balanced_load_end():
    net = PhasorNetwork()
    net.add_three_phase_source("bus", 230940.0, 1 + 10j)
    line = LineSectionModel(0.025 + 0.31j, 0.30 + 1.02j, 3.9e-6j, 2.4e-6j, length_km=100.0)
    net.add_coupled_branch("bus", "load", line.series_matrix(), line.shunt_matrix_per_end())
    sol = solve_steady_state(net)
    mags = [sol.rms(f"load.{p}") for p in "ABC"]
    assert max(mags) - min(mags) < 1e-9 * mags[0]
    delivered, absorbed = power_balance(sol)
    assert abs(delivered - absorbed) < 1e-8 * abs(delivered)


def test_singular_network_reported():
    net = PhasorNetwork()
    net.add_source("a", 1.0, 1.0 + 0j)
    net.add_branch("b", "c", 1.0 + 0j)  # b-c island has no tie anywhere
    with pytest.raises(SingularNetworkError):
        solve_steady_state(net)


# -- Group 3: faults -----------------------------------------------------------


def case_network():
    net = PhasorNetwork()
    net.add_three_phase_source("bus", 230940.1076758503, 1 + 10j)
    return net


LINE = LineSectionModel(0.025 + 0.31j, 0.30 + 1.02j, 3.9e-6j, 2.4e-6j,
                        length_km=100.0, mutual_skew=0.15)


def test_bolted_three_phase_ground_fault_zero_volts():
    fault = FaultSpec(1, 50.0)
    sol = solve_steady_state(apply_fault(case_network(), fault, LINE))
    for p in "ABC":
        assert sol.rms(f"fault.{p}") == 0.0


def test_bolted_isolated_three_phase_fault_small_volts():
    """Ungrounded bolted ABC fault floats at a small common-mode voltage."""
    fault = FaultSpec(2, 50.0)
    sol = solve_steady_state(apply_fault(case_network(), fault, LINE))
    base = 230940.1076758503
    for p in "ABC":
        assert 0.0 < sol.rms(f"fault.{p}") / base < 0.15
    # all three fault phases sit at the same (common-mode) voltage
    va, vb, vc = (sol.voltage(f"fault.{p}") for p in "ABC")
    assert abs(va - vb) < 1e-6 * base and abs(vb - vc) < 1e-6 * base


def test_every_fault_code_solvable_and_sane():
    base = 230940.1076758503
    for code, (phases, grounded) in FAULT_CONNECTIONS.items():
        fault = FaultSpec(code, 40.0, (0.5, 0.5, 0.5), 1.0)
        sol = solve_steady_state(apply_fault(case_network(), fault, LINE))
        for k, p in enumerate("ABC"):
            mag = sol.rms(f"fault.{p}") / base
            if k in phases:
                assert mag < 0.6, (code, p, mag)
            else:
                assert mag > 0.5, (code, p, mag)
        delivered, absorbed = power_balance(sol)
        assert abs(delivered - absorbed) < 1e-8 * abs(delivered)


# bolted (0) or resistive: only some fault nodes merge
_FAULT_OHMS = st.one_of(st.just(0.0), st.floats(1e-3, 50.0))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(code=st.integers(1, 11), distance=st.floats(0.1, LINE.length_km - 0.1),
       phase_ohms=st.tuples(_FAULT_OHMS, _FAULT_OHMS, _FAULT_OHMS),
       ground_ohms=_FAULT_OHMS)
def test_random_faults_balance_power(code, distance, phase_ohms, ground_ohms):
    fault = FaultSpec(code, distance, phase_ohms, ground_ohms)
    sol = solve_steady_state(apply_fault(case_network(), fault, LINE))
    delivered, absorbed = power_balance(sol)
    assert abs(delivered - absorbed) <= 1e-8 * abs(delivered)


def test_unknown_fault_code_rejected():
    with pytest.raises(ValueError):
        FaultSpec(12, 50.0)


@pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
def test_bad_fault_resistance_named(bad):
    with pytest.raises(ValueError, match="phase_resistances"):
        FaultSpec(9, 50.0, (0.0, bad, 0.0))
    with pytest.raises(ValueError, match="ground_resistance"):
        FaultSpec(9, 50.0, ground_resistance=bad)


def test_fault_distance_must_split_line():
    for bad in (0.0, 100.0, -3.0, 120.0):
        with pytest.raises(ValueError):
            apply_fault(case_network(), FaultSpec(9, bad), LINE)


def test_apply_fault_leaves_original_untouched():
    net = case_network()
    n_branches = len(net.branches)
    out = apply_fault(net, FaultSpec(9, 30.0), LINE)
    assert len(net.branches) == n_branches
    assert len(net.coupled) == 0
    assert len(out.coupled) == 2


def test_transposed_line_rotation_symmetry():
    """With mutual_skew=0 an AG fault maps onto a BG fault under A->B->C."""
    line = LineSectionModel(0.025 + 0.31j, 0.30 + 1.02j, 3.9e-6j, 2.4e-6j,
                            length_km=100.0, mutual_skew=0.0)
    sol_ag = solve_steady_state(apply_fault(case_network(), FaultSpec(9, 25.0), line))
    sol_bg = solve_steady_state(apply_fault(case_network(), FaultSpec(10, 25.0), line))
    base = 230940.1076758503
    rotate = {"A": "B", "B": "C", "C": "A"}
    for group in ("bus", "fault", "load"):
        for p in "ABC":
            lhs = sol_ag.rms(f"{group}.{p}") / base
            rhs = sol_bg.rms(f"{group}.{rotate[p]}") / base
            assert abs(lhs - rhs) < 1e-6

