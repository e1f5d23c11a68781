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
batch.  It keeps the line histories of all its rows in one time-major
ring, prefilled with each line's pre-history, so one gather per step reads
every far end's samples.  run_lockstep takes a stream of assembled
networks, groups them into batches by structure and returns each one's
verdict in input order.

State 0 is the declared initial condition (rest unless initial voltages,
storage currents, or line voltages say otherwise); the solver produces states
1..N at t = dt .. N*dt.  Sources that jump at t = 0 keep second-order accuracy
when the declared initial state is the post-jump one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class EmtBatch:
    """Assembled networks of one structure, stepped in lock step.

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
    the verdict, that EmtSimulation.run reaches for its network.  `add`
    keeps a row's values and no reference into its EmtSimulation, so the
    caller can drop the simulation; `run` stacks the rows and changes
    nothing, so a second call returns the same arrays.

    Per-step arrays are node-major, shape (nodes, b) for b rows, so a
    node's values over all rows are one contiguous row, and the line-end
    voltages go into the ring with one row gather.

    The line histories of all rows live in one time-major ring of shape
    (D, 2E, b): D is the deepest line end's buffer depth, E the number of
    line ends, and column n % D holds every end's [v; i] at step n.  Each
    column starts as the pre-history (the end's v0, current 0) and column
    0 then takes the declared t=0 samples.  A read of a step before 0 lands
    on a column no step has written yet (no read reaches back more than
    D - 3 steps), so it returns the pre-history, as
    EmtSimulation._read_far does.
    """

    def __init__(self, like: EmtSimulation):
        self.dt = like.dt
        self._structure = _batch_structure(like)
        self._hist_idx = like._hist_idx
        self._ln_ends, self._ln_zc = like._ln_ends, like._ln_zc
        self._ln_delay, self._ln_far = like._ln_delay, like._ln_far
        self._depth = int(like._ln_depth.max(initial=1))
        self._fo_a, self._fo_b = like._fo_a, like._fo_b
        # per row: surge node, (peak, front time, half time), G⁻¹ diagonal,
        # constant injections, line v0, t=0 [v; i] per end, switch strengths
        self._rows = []

    def add(self, sim: EmtSimulation):
        """Keep an assembled, not yet stepped network's values as a row."""
        if sim.n != 0 or _batch_structure(sim) != self._structure:
            raise ValueError("network does not match the batch's structure")
        [(node, wave)] = sim._varying_inj
        self._rows.append((
            node, (wave.peak_amps, wave.front_time_s, wave.half_time_s),
            np.diagonal(sim._ginv).copy(), sim._base_inj, sim._ln_v0,
            np.concatenate([sim._buf_v[:, 0], sim._buf_i[:, 0]]),
            sim._fo_strength))

    def run(self, t_end: float) -> tuple:
        """Step every row from its initial state to t_end, or to the first
        step on which one of its switches reaches its strength or one of
        its node voltages is not finite.  Returns each row's end step (0
        where it reaches t_end) and whether its voltages stayed finite.  A
        row that has ended keeps stepping, masked, until every row has."""
        if not 0 < t_end < math.inf:
            raise ValueError("t_end must be finite and positive")
        steps = int(math.ceil(t_end / self.dt - 1e-12))
        node, ramp, gdiag, base, ln_v0, ln_t0, strength = (
            np.column_stack(col) for col in zip(*self._rows))
        b, nodes = len(self._rows), base.shape[0]
        ends, depth = self._ln_ends.size, self._depth
        rows = np.arange(b)
        surge = DoubleRampSource(*ramp[:, None])(
            (np.arange(1, steps + 1) * self.dt)[:, None])
        # the constant injections; each step sets the surge node's entry to
        # base + surge(t), as the scalar rhs[node] += fn(t) does
        inject = node.ravel() * b + rows  # into base.ravel()
        surged = base.ravel()[inject] + surge
        hist = (self._hist_idx[:, None] * b + rows).ravel()
        # per-end factors are spelled out to full (ends, b) arrays: against
        # an (ends, 1) column numpy runs one short inner loop per end
        zc = np.repeat(self._ln_zc, b).reshape(ends, b)

        ring = np.empty((depth, 2 * ends, b))
        ring[:, :ends] = ln_v0
        ring[:, ends:] = 0.0
        ring[0] = ln_t0
        flat = ring.reshape(depth * 2 * ends, b)
        # per [v; i] row of an end: its delay and the ring row of its far end
        delay = np.tile(self._ln_delay, 2)
        far = np.concatenate([self._ln_far, self._ln_far + ends])

        chunk = 32  # steps whose interpolation rows and weights come at once

        def interpolation(n0):
            """For the solves after steps n0 .. n0 + chunk - 1: the ring rows
            of every end's far-end samples one delay back, at steps m0 and
            m0 + 1, and their weights 1 - frac and frac."""
            q = np.arange(n0 + 1, n0 + chunk + 1)[:, None] - delay
            m0 = np.floor(q).astype(np.intp)
            frac = q - m0
            at = np.concatenate([m0, m0 + 1], axis=1) % depth * (2 * ends)
            return at + np.tile(far, 2), np.concatenate([1.0 - frac, frac], axis=1)

        def histories(at, weight):
            """-h of every end for the next solve: far-end state one delay
            back, interpolated between the ring samples at rows `at`.
            vf/zc + iw is bitwise the negation of the scalar -vf/zc - iw."""
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
            v.take(self._ln_ends, axis=0, out=ve)
            np.divide(ve, zc, out=ie)
            ie -= neg_h  # i = v/zc + h
            if n % chunk == 0:
                at, weight = interpolation(n)
            neg_h = histories(at[n % chunk], weight[n % chunk])
            over = np.abs(v[self._fo_a] - v[self._fo_b]) >= strength
            if over.any() or not v_ok.all():
                failed = live & ~v_ok.all(axis=0)
                finite[failed] = False
                hit = failed | live & over.any(axis=0)
                end[hit] = n
                live &= ~hit
                # NaN compares false, which keeps ended rows from flashing
                strength[:, hit] = np.nan
                if not live.any():
                    break
        return end, finite


# Rows per lock-step batch.  Memory, not speed, sets it: while its batch
# runs, each row holds its columns of the line-history ring (about 75 kB in
# a strike network); before that, an open row holds its own copy of its G⁻¹
# diagonal (46 floats) and t=0 line-end samples, and its injections, line
# v0 and switch strengths: a few hundred floats, and no G⁻¹ or line buffer.
# Larger batches raise peak memory for little further gain.
REPLAY_BATCH = 32


def run_lockstep(sims, t_end: float) -> list:
    """Run a stream of assembled, not yet stepped networks to t_end in
    lock step; None stands for a network that failed to assemble.

    Networks of one structure (`_batch_structure`) share an open EmtBatch,
    which runs when it holds REPLAY_BATCH rows; the part-filled ones run
    after the stream ends.  Returns, in input order, each network's
    (end step, finite) from EmtBatch.run, and (0, False) for a None."""
    verdicts, open_batches = [], {}

    def run(batch, rows):
        for i, step, ok in zip(rows, *batch.run(t_end)):
            verdicts[i] = int(step), bool(ok)

    for i, sim in enumerate(sims):
        verdicts.append((0, False))
        if sim is None:
            continue
        key = _batch_structure(sim)
        if key not in open_batches:
            open_batches[key] = EmtBatch(sim), []
        batch, rows = open_batches[key]
        batch.add(sim)
        rows.append(i)
        if len(rows) == REPLAY_BATCH:
            run(*open_batches.pop(key))
    for batch, rows in open_batches.values():
        run(batch, rows)
    return verdicts
