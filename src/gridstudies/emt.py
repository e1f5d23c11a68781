"""Fixed-step electromagnetic transient solver.

Lumped elements become trapezoidal companion models (a conductance in
parallel with a history current source), distributed lines become lossless
travelling-wave models with history buffers, and every step solves one nodal
conductance system G v = i.  G never changes during a run, so it is stamped
and inverted once and each step is the product v = G⁻¹ i; a voltage source
is its Norton pair (a resistor to ground and a current source).  A run ends
at the step on which any flashover switch reaches its strength, recording
every switch that does, and fails (LinAlgError) on the first step whose
node voltages are not all finite.

Companion models (step dt):
    resistor   G = 1/R                history 0
    inductor   G = dt/(2L)            h(t+dt) = i(t) + G v(t)
    capacitor  G = 2C/dt              h(t+dt) = -i(t) - G v(t)
with branch current i(t) = G v(t) + h(t).

A travelling-wave line of surge impedance Zc and travel time tau >= dt sees,
at each end, Zc in parallel with a history source assembled from the far-end
voltage and current recorded tau seconds earlier (linear interpolation covers
non-integer tau/dt).

EmtBatch steps many assembled networks of one structure in lock step, each
row in the scalar stepper's arithmetic, so a row ends exactly where
EmtSimulation.run ends for its network, with the same verdict.  It takes
only networks whose G is diagonal (no resistor between two non-ground
nodes, no L or C), so its solve multiplies each node by its G⁻¹ diagonal
entry; its per-step arrays are node-major, one row per node across the
batch.  A batch is made from one assembled network of the structure and
takes its rows as column arrays (BatchRows), one column per row, so a
caller that knows how its rows' values differ fills many rows from one
template without assembling each; `batch_rows` reads an assembled
network's own row.  It keeps the line histories of all its rows in one
time-major ring, prefilled with each line's pre-history, so one gather
reads every far end's samples, and it advances K steps per numpy pass,
K being the fewest steps between a solve and the newest sample it reads.
Nodes that no surge current reaches can be held: they leave the solve and
keep their pre-history voltage.

State 0 is the declared initial condition (rest unless initial voltages,
storage currents, or line voltages say otherwise); the solver produces states
1..N at t = dt .. N*dt.  Sources that jump at t = 0 keep second-order accuracy
when the declared initial state is the post-jump one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .nodal import NodeRegistry, stamp


@dataclass
class DoubleRampSource:
    """Piecewise-linear surge current: 0 -> peak over the front, peak -> peak/2
    over the tail, then the tail slope continues until the current reaches
    zero, where it stays (the waveform never reverses polarity).

    The three parameters may also be arrays of one shape, a stack of
    waveforms evaluated together; t broadcasts against them."""

    peak_amps: float
    front_time_s: float
    half_time_s: float

    def __post_init__(self):
        tf, th = self.front_time_s, self.half_time_s
        if not np.all((0 < tf) & (tf < th)):
            raise ValueError("need 0 < front time < time to half value")

    def __call__(self, t):
        ip, tf, th = self.peak_amps, self.front_time_s, self.half_time_s
        t = np.asarray(t, dtype=float)
        front = ip * t / tf
        tail = ip * (1.0 - 0.5 * (t - tf) / (th - tf))
        out = np.where(t <= tf, front, tail)
        out = np.where(t <= 0, 0.0, out)
        out = np.where(ip >= 0, np.maximum(out, 0.0), np.minimum(out, 0.0))
        return float(out) if out.ndim == 0 else out


@dataclass
class BergeronLine:
    """v0 is the line's interior pre-history voltage per end; i0 the t=0
    current into the line at each end (nonzero when a source is already
    driving the end at t=0)."""

    node_a: int
    node_b: int
    surge_impedance: float
    travel_time: float
    v0_a: float = 0.0
    v0_b: float = 0.0
    i0_a: float = 0.0
    i0_b: float = 0.0

    def __post_init__(self):
        if not (0 < self.surge_impedance < math.inf
                and 0 < self.travel_time < math.inf):
            raise ValueError(
                "surge impedance and travel time must be finite and positive")


class EmtNetwork(NodeRegistry):
    """Element container; `assemble(dt)` compiles it into a stepper."""

    def __init__(self):
        super().__init__()
        self.resistors: list[tuple[int, int, float]] = []
        self.storage: list[tuple[int, int, str, float, float]] = []  # a, b, kind, value, i0
        self.lines: list[BergeronLine] = []
        self.current_sources: list[tuple[int, object]] = []
        self.flashover_switches: list[tuple[int, int, float]] = []  # a, b, volts
        self.initial_voltages: dict[int, float] = {}

    def require_node(self, name: str) -> int:
        if name not in self._names:
            raise KeyError(f"unknown node '{name}'")
        return self._names[name]

    def add_resistor(self, a: str, b: str, ohms: float) -> int:
        if not 0 < ohms < math.inf:
            raise ValueError(f"resistance {ohms} is not in (0, inf)")
        self.resistors.append((self.node(a), self.node(b), ohms))
        return len(self.resistors) - 1

    def add_inductor(self, a: str, b: str, henries: float, i0: float = 0.0) -> int:
        if not 0 < henries < math.inf:
            raise ValueError(f"inductance {henries} is not in (0, inf)")
        self.storage.append((self.node(a), self.node(b), "L", henries, i0))
        return len(self.storage) - 1

    def add_capacitor(self, a: str, b: str, farads: float, i0: float = 0.0) -> int:
        if not 0 < farads < math.inf:
            raise ValueError(f"capacitance {farads} is not in (0, inf)")
        self.storage.append((self.node(a), self.node(b), "C", farads, i0))
        return len(self.storage) - 1

    def add_line(self, a: str, b: str, surge_impedance: float, travel_time: float,
                 v0_a: float = 0.0, v0_b: float = 0.0,
                 i0_a: float = 0.0, i0_b: float = 0.0) -> BergeronLine:
        line = BergeronLine(self.node(a), self.node(b), surge_impedance, travel_time,
                            v0_a, v0_b, i0_a, i0_b)
        self.lines.append(line)
        return line

    def add_current_source(self, node: str, waveform):
        """`waveform` is amps into the node: a constant or a callable of t."""
        self.current_sources.append((self.node(node), waveform))

    def add_voltage_source(self, node: str, emf, internal_ohms: float):
        """Source to ground behind a resistance; emf is a constant or callable.
        Stored as its Norton pair: the resistance to ground in parallel with
        a current source of emf / resistance."""
        r = internal_ohms
        if not 0 < r < math.inf:
            raise ValueError("voltage source needs a finite positive resistance")
        self.add_resistor(node, "ground", r)
        self.add_current_source(node, (lambda t: emf(t) / r) if callable(emf)
                                else emf / r)

    def add_flashover_switch(self, a: str, b: str, strength_volts: float) -> int:
        """Voltage-controlled flashover switch: it flashes on the step the
        magnitude of the across-voltage reaches the strength (inclusive),
        and that step ends the run."""
        if not 0 < strength_volts < math.inf:
            raise ValueError("strength must be finite and positive")
        self.flashover_switches.append((self.node(a), self.node(b), strength_volts))
        return len(self.flashover_switches) - 1

    def set_initial_voltage(self, node: str, volts: float):
        """Declare the t=0 voltage (post-jump if a source steps at t=0)."""
        self.initial_voltages[self.node(node)] = volts

    def assemble(self, dt: float) -> "EmtSimulation":
        """Stamp and invert G; raises LinAlgError when G is singular."""
        return EmtSimulation(self, dt)


@dataclass
class SimResult:
    times: np.ndarray
    node_traces: dict
    branch_traces: dict
    flashovers: list  # (switch index, time, stress), all on the run's last step


class EmtSimulation:
    """Compiled stepper for one network at a fixed dt.  Node id k >= 1 is
    row k - 1 of G; voltage vectors are indexed by node id, ground at 0."""

    def __init__(self, net: EmtNetwork, dt: float):
        if not 0 < dt < math.inf:
            raise ValueError("dt must be finite and positive")
        self.net = net
        self.dt = dt
        self.n = 0  # index of the current (already known) state

        for line in net.lines:
            # the delay in steps as the stepper computes it: below 1 the later
            # interpolation sample would be a buffer column not yet written
            if line.travel_time / dt < 1.0:
                raise ValueError(
                    f"line travel time {line.travel_time} is below the step {dt}")

        n_all = len(net._ids)
        v_init = np.zeros(n_all)
        for line in net.lines:
            v_init[line.node_a] = line.v0_a
            v_init[line.node_b] = line.v0_b
        for node, volts in net.initial_voltages.items():
            v_init[node] = volts
        self._v_init = v_init

        self._lc_a = np.array([e[0] for e in net.storage], dtype=np.intp)
        self._lc_b = np.array([e[1] for e in net.storage], dtype=np.intp)
        self._lc_g = np.array(
            [dt / (2.0 * val) if kind == "L" else 2.0 * val / dt
             for (_a, _b, kind, val, _i0) in net.storage])
        self._lc_sign = np.array(
            [1.0 if kind == "L" else -1.0 for (_a, _b, kind, _v, _i0) in net.storage])
        i0 = np.array([e[4] for e in net.storage])
        # histories for the first solve, from the declared t=0 state
        vb0 = v_init[self._lc_a] - v_init[self._lc_b]
        self._lc_h = self._lc_sign * (i0 + self._lc_g * vb0)

        nl = len(net.lines)
        self._ln_ends = np.empty(2 * nl, dtype=np.intp)
        self._ln_zc = np.empty(2 * nl)
        self._ln_delay = np.empty(2 * nl)     # travel time in steps (>= 1)
        self._ln_v0 = np.empty(2 * nl)
        self._ln_i0 = np.empty(2 * nl)
        for k, line in enumerate(net.lines):
            self._ln_ends[2 * k] = line.node_a
            self._ln_ends[2 * k + 1] = line.node_b
            self._ln_zc[2 * k] = self._ln_zc[2 * k + 1] = line.surge_impedance
            self._ln_delay[2 * k] = self._ln_delay[2 * k + 1] = line.travel_time / dt
            self._ln_v0[2 * k] = line.v0_a
            self._ln_v0[2 * k + 1] = line.v0_b
            self._ln_i0[2 * k] = line.i0_a
            self._ln_i0[2 * k + 1] = line.i0_b
        self._ln_far = np.arange(2 * nl, dtype=np.intp) ^ 1  # other end of same line
        self._ln_rows = np.arange(2 * nl, dtype=np.intp)
        self._ln_depth = np.ceil(self._ln_delay).astype(np.intp) + 2
        depth_max = int(self._ln_depth.max(initial=1))
        # column 0 holds the t=0 end samples; m < 0 reads fall back to v0/0
        end_v0 = v_init[self._ln_ends]
        self._buf_v = np.tile(end_v0[:, None], (1, depth_max))
        self._buf_i = np.tile(self._ln_i0[:, None], (1, depth_max))
        self._update_line_histories()

        self._fo_a = np.array([e[0] for e in net.flashover_switches], dtype=np.intp)
        self._fo_b = np.array([e[1] for e in net.flashover_switches], dtype=np.intp)
        self._fo_strength = np.array([e[2] for e in net.flashover_switches])
        # (switch index, time, stress) for each switch that reached its strength
        self.flashover_events: list[tuple[int, float, float]] = []

        self._base_inj = np.zeros(n_all)
        self._varying_inj: list[tuple[int, object]] = []
        for node, wave in net.current_sources:
            if callable(wave):
                self._varying_inj.append((node, wave))
            else:
                self._base_inj[node] += float(wave)
        self._hist_idx = np.concatenate([self._lc_a, self._lc_b, self._ln_ends])

        g = np.zeros((n_all - 1, n_all - 1))
        for a, b, ohms in net.resistors:
            stamp(g, a - 1, b - 1, 1.0 / ohms)
        for a, b, cond in zip(self._lc_a, self._lc_b, self._lc_g):
            stamp(g, a - 1, b - 1, cond)
        for node, zc in zip(self._ln_ends, self._ln_zc):
            stamp(g, node - 1, -1, 1.0 / zc)
        for k in range(1, n_all):
            if g[k - 1, k - 1] == 0.0:
                raise ValueError(
                    f"node '{net.node_name(k)}' has no conductance to anything")
        self._ginv = np.linalg.inv(g)

    # -- stepping -------------------------------------------------------------

    def solve_step(self) -> np.ndarray:
        """Advance one step; returns voltages indexed by node id, and records
        every flashover switch whose stress reaches its strength."""
        n = self.n + 1
        t = n * self.dt

        rhs = self._base_inj.copy()
        for node, fn in self._varying_inj:
            rhs[node] += fn(t)
        # history sources: branch model injects -h at 'from', +h at 'to';
        # each line end injects -h at its node
        vals = np.concatenate([-self._lc_h, self._lc_h, -self._ln_h])
        rhs += np.bincount(self._hist_idx, weights=vals, minlength=len(rhs))

        # non-finite values pass through; run() checks every step's voltages
        v = np.zeros(rhs.size)
        v[1:] = self._ginv @ rhs[1:]
        self.n = n

        if len(self._lc_h):
            vb = v[self._lc_a] - v[self._lc_b]
            self._lc_h = self._lc_sign * (self._lc_h + 2.0 * self._lc_g * vb)

        if len(self._ln_h):
            self._record_line_ends(v)

        if len(self._fo_strength):
            stress = np.abs(v[self._fo_a] - v[self._fo_b])
            hits = stress >= self._fo_strength
            if hits.any():
                for k in np.flatnonzero(hits):
                    self.flashover_events.append((int(k), t, float(stress[k])))

        return v

    def _record_line_ends(self, v):
        """Buffer each line end's state at step n from that step's node
        voltages, then form the histories for the next solve."""
        ve = v[self._ln_ends]
        ie = ve / self._ln_zc + self._ln_h
        col = self.n % self._ln_depth
        self._buf_v[self._ln_rows, col] = ve
        self._buf_i[self._ln_rows, col] = ie
        self._update_line_histories()

    def _update_line_histories(self):
        """History sources for the next solve: far-end state one delay back,
        linearly interpolated between buffered samples."""
        q = (self.n + 1) - self._ln_delay
        m0 = np.floor(q).astype(np.intp)
        frac = q - m0
        vf0, if0 = self._read_far(m0)
        vf1, if1 = self._read_far(m0 + 1)
        vf = (1.0 - frac) * vf0 + frac * vf1
        iw = (1.0 - frac) * if0 + frac * if1
        self._ln_h = -vf / self._ln_zc - iw

    def _read_far(self, m):
        """Far-end (v, i) samples at step m; before 0 means the initial state."""
        far = self._ln_far
        init = m < 0
        mm = np.where(init, 0, m)
        col = mm % self._ln_depth[far]
        v = self._buf_v[far, col]
        i = self._buf_i[far, col]
        v = np.where(init, self._ln_v0[far], v)
        i = np.where(init, 0.0, i)
        return v, i

    # kept: the energy ledger of test_emt.py::test_line_energy_conservation
    def line_stored_energy(self, line_index: int) -> float:
        """Field energy on a line, rebuilt from its travelling-wave buffers.

        Each end's entering wave f = (v + Zc i)/2 over the last travel time is
        still inside the line and carries f^2 dt / Zc per recorded step.
        """
        total = 0.0
        for e in (2 * line_index, 2 * line_index + 1):
            d = self._ln_delay[e]
            zc = self._ln_zc[e]
            full = int(math.floor(d))
            frac = d - full
            last = full + (1 if frac > 1e-12 else 0)
            for back in range(last):
                m = self.n - back
                weight = 1.0 if back < full else frac
                if m < 0:
                    v, i = self._ln_v0[e], 0.0
                else:
                    col = m % self._ln_depth[e]
                    v, i = self._buf_v[e, col], self._buf_i[e, col]
                wave = 0.5 * (v + zc * i)
                total += weight * wave * wave * self.dt / zc
        return total

    def run(self, t_end: float, record: tuple = (),
            record_storage: tuple = ()) -> SimResult:
        """Step from the initial state to t_end, or to the first step on
        which a flashover switch reaches its strength, recording named node
        voltages and the currents of selected L/C branches (by storage
        index).  Raises LinAlgError on the first step whose node voltages
        are not all finite."""
        if self.n != 0:
            raise RuntimeError("run() must start from the initial state")
        if not 0 < t_end < math.inf:
            raise ValueError("t_end must be finite and positive")
        steps = int(math.ceil(t_end / self.dt - 1e-12))
        rec_nodes = [self.net.require_node(name) for name in record]
        node_traces = {name: np.zeros(steps + 1) for name in record}
        branch_traces = {k: np.zeros(steps + 1) for k in record_storage}
        for name, node in zip(record, rec_nodes):
            node_traces[name][0] = self._v_init[node]
        for k in record_storage:
            branch_traces[k][0] = self.net.storage[k][4]
        times = np.arange(steps + 1) * self.dt
        while self.n < steps:
            h_before = self._lc_h.copy() if record_storage else None
            v = self.solve_step()
            if not np.isfinite(v).all():
                raise np.linalg.LinAlgError(
                    f"node voltages are not finite at step {self.n}")
            for name, node in zip(record, rec_nodes):
                node_traces[name][self.n] = v[node]
            for k in record_storage:
                a, b, _kind, _val, _i0 = self.net.storage[k]
                branch_traces[k][self.n] = self._lc_g[k] * (v[a] - v[b]) + h_before[k]
            if self.flashover_events:
                break
        end = self.n + 1
        times = times[:end]
        node_traces = {k: tr[:end] for k, tr in node_traces.items()}
        branch_traces = {k: tr[:end] for k, tr in branch_traces.items()}
        return SimResult(times, node_traces, branch_traces, list(self.flashover_events))


def _batch_structure(sim: EmtSimulation) -> tuple:
    """What the rows of one EmtBatch share: step, nodes, line ends and
    delays, switch nodes.  A network a batch cannot step raises ValueError."""
    if len(sim._lc_g) or [type(w) for _n, w in sim._varying_inj] != [DoubleRampSource]:
        raise ValueError("a batched network has no inductor or capacitor and "
                         "exactly one varying source, a DoubleRampSource")
    if any(a and b and a != b for a, b, _ohms in sim.net.resistors):
        raise ValueError("a batched network's G must be diagonal: no resistor "
                         "between two non-ground nodes")
    return (sim.dt, sim._base_inj.size, *(a.tobytes() for a in (
        sim._hist_idx, sim._ln_delay, sim._ln_zc, sim._fo_a, sim._fo_b)))


class BatchRows(NamedTuple):
    """The values of k rows of an EmtBatch, one column per row: each
    field's last axis runs over the rows.  Node k is entry k of a node
    array (ground is 0) and entry k - 1 of the G⁻¹ diagonal; line j's a and
    b ends are line ends 2j and 2j + 1."""

    node: np.ndarray       # (k,) node of the DoubleRampSource
    ramp: np.ndarray       # (3, k) its peak, front time and half time
    ginv_diag: np.ndarray  # (nodes - 1, k) diagonal of G⁻¹
    inject: np.ndarray     # (nodes, k) constant injections
    line_v0: np.ndarray    # (ends, k) line pre-history voltage per end
    line_t0: np.ndarray    # (2 ends, k) t=0 [v; i] per end
    strength: np.ndarray   # (switches, k) switch strengths


def batch_rows(sim: EmtSimulation) -> BatchRows:
    """An assembled, not yet stepped network's values as one row; copies,
    so the row pins no G⁻¹ or line buffer of the simulation.  Raises
    ValueError for a network a batch cannot step."""
    _batch_structure(sim)
    if sim.n != 0:
        raise ValueError("a batch row starts from the initial state")
    [(node, wave)] = sim._varying_inj
    return BatchRows(
        np.array([node]),
        np.array([[wave.peak_amps], [wave.front_time_s], [wave.half_time_s]]),
        np.diagonal(sim._ginv)[:, None].copy(), sim._base_inj[:, None].copy(),
        sim._ln_v0[:, None].copy(),
        np.concatenate([sim._buf_v[:, 0], sim._buf_i[:, 0]])[:, None],
        sim._fo_strength[:, None].copy())


# Steps whose verdicts a batch judges at once; each chunk's interpolation
# rows, weights and surge values come together.
CHUNK_STEPS = 32


def _interpolation(m, delay):
    """For solves m and line delays in steps (broadcast against each
    other): the step m0 of the older far-end sample each solve reads and
    the weight frac of the newer one, m0 + 1, in
    EmtSimulation._update_line_histories' arithmetic."""
    q = m - delay
    m0 = np.floor(q).astype(np.intp)
    return m0, q - m0


def _histories(flat, at, weight, zc):
    """-h of every end for each of len(at) solves: the far-end state one
    delay back, interpolated between the ring samples in rows `at` of
    `flat` with weights `weight`, both (solves, 4E): each solve's older
    [v; i] samples, then its newer.  vf/zc + iw is bitwise the negation
    of the scalar -vf/zc - iw."""
    solves, width = at.shape
    part = flat.take(at.ravel(), axis=0)
    # the weights are spelled out to full rows: against a (rows, 1)
    # column numpy runs one short inner loop per row
    part *= weight.repeat(flat.shape[1]).reshape(part.shape)
    part = part.reshape(solves, 2, width // 2, flat.shape[1])
    w = part[:, 0] + part[:, 1]
    ends = width // 4
    return w[:, :ends] / zc + w[:, ends:]


def _solve(inject, neg_h, bins, ginv_diag, v):
    """Node voltages of each solve into v[:, 1:nodes]: the injections
    (solves, nodes, b) plus every end's -h summed at its node, times the
    G⁻¹ diagonal.  `bins` puts each end's -h at its node and solve; a
    node sums its ends in end order, as the scalar bincount does."""
    rhs = np.bincount(bins, weights=neg_h.ravel(),
                      minlength=inject.size).reshape(inject.shape)
    np.add(inject, rhs, out=rhs)
    np.multiply(ginv_diag, rhs[:, 1:], out=v[:, 1:inject.shape[1]])


class EmtBatch:
    """Rows of one network structure, stepped in lock step.

    The rows share node numbering, lines, switch nodes and the step; each
    keeps its own G⁻¹ diagonal, constant injections, line state, switch
    strengths and one DoubleRampSource, whose node may differ row by row.
    A batch takes only networks whose G is diagonal: every resistor goes to
    ground and lines stamp 1/Zc from each end to ground, so nodes couple
    only through line histories.  Each row's arithmetic is
    EmtSimulation.solve_step's, in its order, with the product G⁻¹ rhs
    taken as one elementwise product by the diagonal: for finite rhs the
    dense product's off-diagonal terms are exact zeros, so the voltages
    are the same bits, up to the sign of a zero voltage.  The diagonal is
    finite and non-zero, so a row's voltages are non-finite on exactly the
    steps the dense product's are.  So a row ends on the step, and with
    the verdict, that EmtSimulation.run reaches for its network.

    `like`, an assembled network, gives the structure; `extend` takes rows
    as BatchRows columns and `add` one assembled network's row.  `run`
    reads the rows and changes nothing, so a second call returns the same
    arrays.

    `held` names nodes that leave the solve and keep the pre-history
    voltage of their first line end on every step.  Every line at a held
    node joins two held nodes, no row's surge drives one, and each row's
    held line ends start at their pre-history (voltage v0, current 0), so
    while G is diagonal no surge current reaches a held node: in exact
    arithmetic it stays at rest.  Holding it is the caller's claim that
    the full network's rounding never moves it far enough to change a
    verdict.  The lines at held nodes leave the ring; each held node keeps
    a row of the voltages, filled once, which the switches across it
    read.  A row whose held voltages are not finite ends at step 1 as not
    finite: where each held line's two ends share their pre-history, the
    full network's voltages are not finite from step 1 on as well.

    Per-step arrays are node-major, shape (nodes, b) for b rows, so a
    node's values over all rows are one contiguous row.  The line
    histories live in one flat ring of time-major regions: a region of
    depth D over E ends has shape (D, 2E, b), and its column (m - 1) % D
    holds its ends' [v; i] at step m.  An end needs as many columns as
    its solves reach back, by the interpolation's floor over the run's
    steps, rounded up to a multiple of K.  The first region, as deep as
    the shallowest need, takes every end's samples; the second, as deep
    as the deepest need, keeps the ends that read further back, copied
    from the first on each pass.  So short lines hold no more columns
    than they read (in a strike network 4 for the tower lines, 54 for
    the spans).  Each column starts as the pre-history (the end's v0,
    current 0) and column D - 1 then takes the declared t=0 samples.  A
    pass reads before it writes and reaches back at most D steps, so a
    read of a step before 0 lands on a column no step has written yet
    and returns the pre-history, as EmtSimulation._read_far does.

    No solve reads a ring sample newer than K steps before its own step
    (K from the interpolation's floor over the run's steps: 2 in a strike
    network, whose shortest line is 2.06 steps), so one numpy pass
    advances K steps: one gather of the far-end samples, one bincount over
    K x nodes, one product by the G⁻¹ diagonal and one K-column write per
    region.  D is a multiple of K, so a pass never wraps.  The voltages a
    verdict needs are judged once per chunk of CHUNK_STEPS steps (rounded
    up to a multiple of K): a row ends on its first step with a switch at
    its strength or a voltage that is not finite.  A region at least a
    chunk deep still holds the chunk's voltages of its ends' nodes for
    the finiteness check; the switch nodes and the nodes it misses are
    kept per step.  Rows are independent, so stepping a row past its end
    changes no other row.
    """

    def __init__(self, like: EmtSimulation, held=()):
        self.dt = like.dt
        self._structure = _batch_structure(like)
        self._ln_ends, self._ln_zc = like._ln_ends, like._ln_zc
        self._ln_delay, self._ln_far = like._ln_delay, like._ln_far
        self._fo_a, self._fo_b = like._fo_a, like._fo_b
        nodes, ends = like._base_inj.size, like._ln_ends.size
        self._heights = (nodes - 1, nodes, ends, 2 * ends, like._fo_a.size)
        self._blocks: list[BatchRows] = []

        is_held = np.zeros(nodes, dtype=bool)
        is_held[list(held)] = True
        dropped = is_held[self._ln_ends]
        if is_held[0] or (dropped != dropped[self._ln_far]).any():
            raise ValueError("held nodes are non-ground nodes whose lines "
                             "join only held nodes")
        self._is_held, self._held = is_held, np.flatnonzero(is_held)
        # a held node keeps the pre-history of its first line end
        first = dict(zip(self._ln_ends[::-1].tolist(), range(ends - 1, -1, -1)))
        if not set(self._held.tolist()) <= first.keys():
            raise ValueError("a held node needs a line end")
        self._held_end = np.array([first[k] for k in self._held.tolist()],
                                  dtype=np.intp)
        # the run's numbering: voltage rows of the solved nodes (ground
        # first), then of the held ones; the ends left, in end order
        self._order = np.concatenate([np.flatnonzero(~is_held), self._held])
        self._node_row = np.empty_like(self._order)
        self._node_row[self._order] = np.arange(nodes)
        self._kept, self._dropped = np.flatnonzero(~dropped), np.flatnonzero(dropped)
        self._end_node = self._node_row[self._ln_ends[self._kept]]
        self._end_far = (np.cumsum(~dropped) - 1)[self._ln_far[self._kept]]
        self._solved = nodes - self._held.size

    def extend(self, rows: BatchRows):
        """Keep k more rows, given as column arrays."""
        k = rows.node.shape[0]
        if [c.shape for c in rows] != [(k,), (3, k),
                                       *((h, k) for h in self._heights)]:
            raise ValueError("rows do not match the batch's structure")
        if self._is_held[rows.node].any():
            raise ValueError("a row's surge drives a held node")
        self._blocks.append(rows)

    def add(self, sim: EmtSimulation):
        """Keep an assembled, not yet stepped network's values as a row."""
        if _batch_structure(sim) != self._structure:
            raise ValueError("network does not match the batch's structure")
        self.extend(batch_rows(sim))

    def _plan(self, t_end: float) -> SimpleNamespace:
        """How `run` steps to t_end: `steps`; `passes`, K; `chunk`, the
        steps judged at once, a multiple of K; `regions`, (depth, [v; i]
        rows of its ends, first ring row) each, and `ring_rows` in all;
        `kinds`, the distinct delays of the ends left, and `kind`, each
        end's index among them; `watch`, the voltage rows each step keeps
        for the verdicts; `across`, the switches' a then b nodes as watch
        entries; `loose`, the watch entries of nodes no deep region
        holds."""
        if not 0 < t_end < math.inf:
            raise ValueError("t_end must be finite and positive")
        steps = int(math.ceil(t_end / self.dt - 1e-12))
        delay = self._ln_delay[self._kept]
        kinds = np.array(sorted(set(delay.tolist())))
        kind = np.searchsorted(kinds, delay)
        m = np.arange(1, steps + 1)[:, None]
        m0, _frac = _interpolation(m, kinds)
        # solve m reads samples m0 and m0 + 1
        passes = min(max(int((m - m0 - 1).min(initial=CHUNK_STEPS)), 1),
                     CHUNK_STEPS)
        chunk = -(-CHUNK_STEPS // passes) * passes
        # each delay's depth: the most steps a solve reaches back, rounded
        # up to a multiple of K.  The shallowest holds every end's newest
        # samples; the ends that need more also keep the deepest
        need = -(-(m - m0).max(axis=0, initial=1) // passes) * passes
        ends = self._kept.size
        staged = np.arange(2 * ends)
        short = int(need.min()) if need.size else passes
        regions = [(short, staged, 0)]
        far = need[kind] > short
        if far.any():
            regions.append((int(need.max()), np.concatenate(
                [staged[:ends][far], staged[ends:][far]]), short * 2 * ends))
        ring_rows = sum(d * rows.size for d, rows, _first in regions)
        deep = np.zeros(ends, dtype=bool)
        for d, rows, _first in regions:
            deep[rows[:rows.size // 2]] |= d >= chunk
        # the voltages kept per step: the switch nodes, then the solved
        # nodes with no end in a region that holds a whole chunk
        pairs = self._node_row[np.concatenate([self._fo_a, self._fo_b])].tolist()
        loose = np.ones(self._solved, dtype=bool)
        loose[[0, *self._end_node[deep].tolist()]] = False
        watch = [*dict.fromkeys(pairs), *np.flatnonzero(loose).tolist()]
        where = {k: i for i, k in enumerate(watch)}
        return SimpleNamespace(
            steps=steps, passes=passes, chunk=chunk, regions=regions,
            ring_rows=ring_rows, kinds=kinds, kind=kind,
            watch=np.array(watch, dtype=np.intp),
            across=np.array([where[k] for k in pairs], dtype=np.intp),
            loose=np.arange(len(watch) - loose.sum(), len(watch)))

    def run(self, t_end: float) -> tuple:
        """Step every row from its initial state to t_end, or to the first
        step on which one of its switches reaches its strength or one of
        its node voltages is not finite.  Returns each row's end step (0
        where it reaches t_end) and whether its voltages stayed finite.  A
        row that has ended keeps stepping, unjudged, until every row has
        ended by the end of a chunk.  Raises ValueError when a row's held
        line ends do not start at their pre-history."""
        plan = self._plan(t_end)
        steps, passes, chunk = plan.steps, plan.passes, plan.chunk
        rows = BatchRows(*(col[0] if len(col) == 1 else
                           np.concatenate(col, axis=-1)
                           for col in zip(*self._blocks)))
        held, count = self._dropped, self._ln_ends.size
        moved = (rows.line_t0[held].view(np.int64)
                 != rows.line_v0[held].view(np.int64))
        if moved.any() or rows.line_t0[held + count].any():
            raise ValueError("a row's held line ends do not start at their "
                             "pre-history")
        b, solved, order = rows.node.size, self._solved, self._order
        cols = np.arange(b)
        ends, line_ends = self._kept.size, self._end_node
        ginv_diag = rows.ginv_diag[order[1:solved] - 1]
        zc = np.repeat(self._ln_zc[self._kept], b).reshape(ends, b)
        step = np.arange(passes)[:, None]
        bins = ((step[:, None] * solved + line_ends[:, None]) * b + cols).ravel()
        # each pass's injections: the constant ones, and at the surge node
        # base + surge(t), as the scalar rhs[node] += fn(t) does
        inject = np.repeat(rows.inject[order[:solved]][None], passes, axis=0)
        surged = (step * solved + self._node_row[rows.node]) * b + cols
        surge_base = inject.ravel()[surged[0]]
        surge = DoubleRampSource(*rows.ramp[:, None])

        # the regions, filled with the pre-history, then column D - 1
        # with the t=0 samples; a pass writes the first region, then
        # copies the ends of the second into it
        flat = np.empty((plan.ring_rows, b))
        regions = []
        pre = np.concatenate([rows.line_v0[self._kept], np.zeros((ends, b))])
        t0 = rows.line_t0[np.concatenate([self._kept, self._kept + count])]
        place = np.empty(2 * ends, dtype=np.intp)  # staged row in its region
        base = np.empty(plan.kinds.size, dtype=np.intp)
        width = np.empty(plan.kinds.size, dtype=np.intp)
        depth = np.empty(plan.kinds.size, dtype=np.intp)
        for d, staged, first in plan.regions:
            region = flat[first:first + d * staged.size].reshape(d, staged.size, b)
            region[:] = pre[staged]
            region[d - 1] = t0[staged]
            regions.append((d, staged, region))
            place[staged] = np.arange(staged.size)
            kinds = plan.kind[staged[:staged.size // 2]]
            base[kinds], width[kinds], depth[kinds] = first, staged.size, d
        (shallow, _all, newest), *deeper = regions
        # per gathered row, older samples then newer: the kind of its far
        # end's line and the far end's [v; i] row in its region
        far = np.concatenate([self._end_far, self._end_far + ends])
        kind = np.tile(plan.kind, 2)
        kind = np.concatenate([kind, kind + plan.kinds.size])
        far = np.tile(place[far], 2)

        v = np.zeros((passes, order.size, b))
        v[:, solved:] = rows.line_v0[self._held_end]
        # held voltages that are not finite fail their row on step 1
        finite = np.isfinite(v[0, solved:]).all(axis=0)
        end = np.where(finite, 0, 1)
        live = finite.copy()
        kept_v = np.empty((chunk, plan.watch.size, b))
        switches = self._fo_a.size
        for n0 in range(0, steps if live.any() else 0, chunk):
            m = np.arange(n0 + 1, n0 + chunk + 1)
            m0, frac = _interpolation(m[:, None], plan.kinds)
            # step m0 is column (m0 - 1) % D of its region
            at = (np.concatenate([(m0 - 1) % depth, m0 % depth], axis=1)
                  * np.tile(width, 2) + np.tile(base, 2))[:, kind] + far
            weight = np.concatenate([1.0 - frac, frac], axis=1)[:, kind]
            injected = surge_base + surge((m * self.dt)[:, None])
            judged = min(chunk, steps - n0)
            for j in range(0, judged, passes):
                now = slice(j, j + passes)
                neg_h = _histories(flat, at[now], weight[now], zc)
                inject.ravel()[surged] = injected[now]
                _solve(inject, neg_h, bins, ginv_diag, v)
                col = (n0 + j) % shallow
                staging = newest[col:col + passes]
                ve, ie = staging[:, :ends], staging[:, ends:]
                # in-range indices: mode "clip" spares the buffered copy
                # numpy makes of `out` in its default "raise" mode
                v.take(line_ends, axis=1, out=ve, mode="clip")
                np.divide(ve, zc, out=ie)
                ie -= neg_h  # i = v/zc + h
                for d, staged, region in deeper:
                    col = (n0 + j) % d
                    staging.take(staged, axis=1, out=region[col:col + passes],
                                 mode="clip")
                v.take(plan.watch, axis=1, out=kept_v[now], mode="clip")
            # the chunk's verdicts: switch stresses from the kept voltages;
            # finiteness from the deep regions' columns and the kept rest
            pair = kept_v[:judged].take(plan.across, axis=1)
            stress = pair[:, :switches]
            np.subtract(stress, pair[:, switches:], out=stress)
            over = (np.abs(stress, out=stress) >= rows.strength).any(axis=1)
            ok = np.True_
            for d, staged, region in regions:
                if d >= chunk:  # the chunk's columns, wrapping at most once
                    col, half = n0 % d, staged.size // 2
                    parts = (region[col:col + judged, :half],
                             region[:max(col + judged - d, 0), :half])
                    if not all(np.isfinite(part).all() for part in parts):
                        ok = ok & np.concatenate([np.isfinite(part).all(axis=1)
                                                  for part in parts])
            if plan.loose.size:
                ok = ok & np.isfinite(kept_v[:judged, plan.loose]).all(axis=1)
            stop = (over | ~ok) & live
            if stop.any():
                hit = stop.any(axis=0)
                first = stop.argmax(axis=0)[hit]
                end[hit] = n0 + 1 + first
                finite[hit] = np.broadcast_to(ok, stop.shape)[first, cols[hit]]
                live &= ~hit
                if not live.any():
                    break
        return end, finite

