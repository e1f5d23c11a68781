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
at each end, Zc in parallel with a history source (Dommel 1969, lossless
Bergeron line).  Each end keeps one outgoing wave per step, w = v/Zc + i
(written as v (2/Zc) + h), and the next solve's -h at an end is the far
end's w one travel time earlier: h_a(t) = -(2/Zc) v_b(t - tau) - h_b(t -
tau).  A delay of tau/dt steps lies between the far-end samples `back` =
ceil(tau/dt) and back - 1 steps before the solve, so both samples and the
weight frac = back - tau/dt of the newer one are fixed when the network is
assembled (linear interpolation covers non-integer tau/dt).

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
network's own row.  It keeps the outgoing waves of all its rows in one
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
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .nodal import NodeRegistry, stamp
from .record import record


@record
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


@record
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


class SimResult(NamedTuple):
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

        lines = net.lines
        self._ln_ends = np.array([e for ln in lines for e in (ln.node_a, ln.node_b)],
                                 dtype=np.intp)
        self._ln_zc = np.repeat([ln.surge_impedance for ln in lines], 2)
        self._ln_v0 = np.array([v for ln in lines for v in (ln.v0_a, ln.v0_b)])
        self._ln_i0 = np.array([i for ln in lines for i in (ln.i0_a, ln.i0_b)])
        self._ln_far = np.arange(2 * len(lines), dtype=np.intp) ^ 1  # other end
        # the delay in steps (>= 1) lies between the far-end samples `back`
        # and back - 1 steps before a solve; the newer one weighs `frac`
        delay = np.repeat([ln.travel_time / dt for ln in lines], 2)
        self._ln_back = np.ceil(delay).astype(np.intp)
        self._ln_frac = self._ln_back - delay
        # row n % depth holds each end's outgoing wave w = v/zc + i at step
        # n: row 0 the t=0 state, every other row the pre-history (v0, 0)
        depth = int(self._ln_back.max(initial=0)) + 1
        self._ln_w = np.tile(self._ln_v0 / self._ln_zc, (depth, 1))
        self._ln_w[0] = v_init[self._ln_ends] / self._ln_zc + self._ln_i0
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
        vals = np.concatenate([-self._lc_h, self._lc_h, self._ln_neg_h])
        rhs += np.bincount(self._hist_idx, weights=vals, minlength=len(rhs))

        # non-finite values pass through; run() checks every step's voltages
        v = np.zeros(rhs.size)
        v[1:] = self._ginv @ rhs[1:]
        self.n = n

        if len(self._lc_h):
            vb = v[self._lc_a] - v[self._lc_b]
            self._lc_h = self._lc_sign * (self._lc_h + 2.0 * self._lc_g * vb)

        if len(self._ln_ends):
            self._record_line_ends(v)

        if len(self._fo_strength):
            stress = np.abs(v[self._fo_a] - v[self._fo_b])
            hits = stress >= self._fo_strength
            if hits.any():
                for k in np.flatnonzero(hits):
                    self.flashover_events.append((int(k), t, float(stress[k])))

        return v

    def _record_line_ends(self, v):
        """Buffer each line end's outgoing wave at step n, v (2/zc) + h,
        then form the history sources for the next solve."""
        self._ln_w[self.n % len(self._ln_w)] = (
            v[self._ln_ends] * (2.0 / self._ln_zc) - self._ln_neg_h)
        self._update_line_histories()

    def _update_line_histories(self):
        """-h of every end for the next solve: the far end's outgoing wave
        one delay back, interpolated between its two buffered samples
        (Dommel's h_a(t) = -(2/Z) v_b(t - tau) - h_b(t - tau))."""
        older = self.n + 1 - self._ln_back
        depth, far, frac = len(self._ln_w), self._ln_far, self._ln_frac
        self._ln_neg_h = ((1.0 - frac) * self._ln_w[older % depth, far]
                          + frac * self._ln_w[(older + 1) % depth, far])

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
    """What the rows of one EmtBatch share: step, nodes, line ends,
    delays and surge impedances, switch nodes.  A network a batch cannot step raises ValueError."""
    if len(sim._lc_g) or [type(w) for _n, w in sim._varying_inj] != [DoubleRampSource]:
        raise ValueError("a batched network has no inductor or capacitor and "
                         "exactly one varying source, a DoubleRampSource")
    if any(a and b and a != b for a, b, _ohms in sim.net.resistors):
        raise ValueError("a batched network's G must be diagonal: no resistor "
                         "between two non-ground nodes")
    return (sim.dt, sim._base_inj.size, *(a.tobytes() for a in (
        sim._hist_idx, sim._ln_back, sim._ln_frac, sim._ln_zc, sim._fo_a,
        sim._fo_b)))


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
    so the row pins no G⁻¹ or wave buffer of the simulation.  Raises
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
        np.concatenate([sim._v_init[sim._ln_ends], sim._ln_i0])[:, None],
        sim._fo_strength[:, None].copy())


# Steps whose verdicts a batch judges at once, with their surge values.
CHUNK_STEPS = 32


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
    node's values over all rows are one contiguous row.  The outgoing
    waves w = v/zc + i of the ends left live in one time-major ring of
    shape (D, E, b) for E ends, whose column (m - 1) % D holds the ends'
    waves at step m.  Solve m reads the far end's waves at steps m - back
    and m - back + 1, weighted 1 - frac and frac, both fixed per end, so
    the gather's rows for a pass and its (K 2E, b) weight block are built
    once per run.  D is the largest `back` rounded up to a multiple of K
    (54 in a shield batch, whose spans are 53.68 steps).  Each column
    starts as the pre-history wave (v0/zc, current 0) and column D - 1
    then takes the declared t=0 waves.  A pass reads before it writes and
    reaches back at most D steps, so a read of a step before 0 lands on a
    column no step has written yet and returns the pre-history, as in
    EmtSimulation's buffer.

    No solve reads a ring sample newer than K = min(back) - 1 steps before
    its own step (at least 1, at most CHUNK_STEPS; 2 in a strike network,
    whose shortest line is 2.06 steps), so one numpy pass advances K
    steps: one gather of the far-end waves, one bincount over K x nodes,
    one product by the G⁻¹ diagonal into K steps of the voltages and one
    K-column ring write (take, multiply by 2/zc, subtract -h).  D is a
    multiple of K, so a pass never wraps.  The voltages of a chunk of
    CHUNK_STEPS steps (rounded up to a multiple of K) are kept, (chunk,
    nodes, b), and judged at once: a row ends on its first step with a
    switch at its strength or a node voltage that is not finite, the
    scalar rule.  Rows are independent, so stepping a row past its end
    changes no other row.
    """

    def __init__(self, like: EmtSimulation, held=()):
        self.dt = like.dt
        self._structure = _batch_structure(like)
        self._ln_ends, self._ln_zc = like._ln_ends, like._ln_zc
        self._ln_back, self._ln_frac = like._ln_back, like._ln_frac
        self._ln_far = like._ln_far
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
        steps judged at once, and `depth`, D, both multiples of K."""
        if not 0 < t_end < math.inf:
            raise ValueError("t_end must be finite and positive")
        back = self._ln_back[self._kept]
        # solve m reads the samples of steps m - back and m - back + 1
        passes = min(max(int(back.min(initial=CHUNK_STEPS + 1)) - 1, 1),
                     CHUNK_STEPS)
        return SimpleNamespace(
            steps=int(math.ceil(t_end / self.dt - 1e-12)), passes=passes,
            chunk=-(-CHUNK_STEPS // passes) * passes,
            depth=-(-int(back.max(initial=1)) // passes) * passes)

    def run(self, t_end: float) -> tuple:
        """Step every row from its initial state to t_end, or to the first
        step on which one of its switches reaches its strength or one of
        its node voltages is not finite.  Returns each row's end step (0
        where it reaches t_end) and whether its voltages stayed finite.  A
        row that has ended keeps stepping, unjudged, until every row has
        ended by the end of a chunk.  Raises ValueError when a row's held
        line ends do not start at their pre-history."""
        plan = self._plan(t_end)
        steps, passes, chunk, depth = (plan.steps, plan.passes, plan.chunk,
                                       plan.depth)
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
        kept, ends, line_ends = self._kept, self._kept.size, self._end_node
        ginv_diag = rows.ginv_diag[order[1:solved] - 1]
        zc = self._ln_zc[kept, None]
        step = np.arange(passes)[:, None]
        bins = ((step[:, None] * solved + line_ends[:, None]) * b + cols).ravel()
        # each pass's injections: the constant ones, and at the surge node
        # base + surge(t), as the scalar rhs[node] += fn(t) does
        inject = np.repeat(rows.inject[order[:solved]][None], passes, axis=0)
        surged = (step * solved + self._node_row[rows.node]) * b + cols
        surge_base = inject.ravel()[surged[0]]
        surge = DoubleRampSource(*rows.ramp[:, None])

        # the ring of outgoing waves, filled with the pre-history, then
        # column D - 1 with the t=0 waves
        ring = np.empty((depth, ends, b))
        ring[:] = rows.line_v0[kept] / zc
        ring[depth - 1] = rows.line_t0[kept] / zc + rows.line_t0[kept + count]
        flat = ring.reshape(-1, b)
        # the pass after step s gathers rows at[s % D: s % D + K]: per
        # solve, each end's far-end wave `back` steps before it, then one
        # step later, which weigh 1 - frac and frac
        back, frac = self._ln_back[kept], self._ln_frac[kept]
        t = np.arange(depth)[:, None]
        at = np.concatenate([(t - back) % depth, (t + 1 - back) % depth], axis=1)
        at = at * ends + np.tile(self._end_far, 2)
        weight = np.tile(np.concatenate([1.0 - frac, frac]), passes)
        # spelled out to full rows: against a (rows, 1) column numpy runs
        # one short inner loop per row
        weight = weight.repeat(b).reshape(-1, b)
        two_g = np.repeat(2.0 / self._ln_zc[kept], b).reshape(ends, b)
        part = np.empty_like(weight)
        halves = part.reshape(passes, 2, ends, b)
        neg_h = np.empty((passes, ends, b))

        v = np.zeros((chunk, order.size, b))
        v[:, solved:] = rows.line_v0[self._held_end]
        end = np.zeros(b, dtype=np.intp)
        finite = np.ones(b, dtype=bool)
        live = finite.copy()
        fo_a, fo_b = self._node_row[self._fo_a], self._node_row[self._fo_b]
        for n0 in range(0, steps, chunk):
            m = np.arange(n0 + 1, n0 + chunk + 1)
            injected = surge_base + surge((m * self.dt)[:, None])
            judged = min(chunk, steps - n0)
            for j in range(0, judged, passes):
                now = slice(j, j + passes)
                col = (n0 + j) % depth
                # in-range indices: mode "clip" spares the buffered copy
                # numpy makes of `out` in its default "raise" mode
                flat.take(at[col:col + passes].ravel(), axis=0, out=part,
                          mode="clip")
                part *= weight
                np.add(halves[:, 0], halves[:, 1], out=neg_h)
                inject.ravel()[surged] = injected[now]
                _solve(inject, neg_h, bins, ginv_diag, v[now])
                written = ring[col:col + passes]
                v[now].take(line_ends, axis=1, out=written, mode="clip")
                written *= two_g
                written -= neg_h  # w = v (2/zc) + h
            # the chunk's verdicts, read from its voltages
            over = (np.abs(v[:judged, fo_a] - v[:judged, fo_b])
                    >= rows.strength).any(axis=1)
            ok = np.isfinite(v[:judged]).all(axis=1)
            stop = (over | ~ok) & live
            if stop.any():
                hit = stop.any(axis=0)
                first = stop.argmax(axis=0)[hit]
                end[hit] = n0 + 1 + first
                finite[hit] = ok[first, cols[hit]]
                live &= ~hit
                if not live.any():
                    break
        return end, finite
