"""Radial distribution feeder studies.

Models a balanced medium-voltage feeder as a per-phase positive-sequence
ladder: a stiff source behind an impedance, series line segments, and
constant-PQ loads at every junction, with optional photovoltaic generation
and an energy-storage unit at the last bus.  Three modes share one ladder
iteration: a single power flow (solve_snapshot), an hourly time series with
shape-driven loads (run_daily), and Monte Carlo sampling of random load
levels (run_monte_carlo).

The two series modes compute every row's inputs first (storage dispatch
depends only on the hour and the previous state of charge, never on the
power flow) and solve all rows in one call to solve_lockstep.  Each pass of
the fixed-point iteration steps every unconverged row at once, and a row
leaves the arrays on the pass it converges.  Its forward sweep multiplies in
real arithmetic (re*re - im*im, re*im + im*re), as numpy's scalar complex
product does, because numpy's SIMD array product rounds differently; every
other step is the array operation solve_snapshot applies.  So each row is
bit-identical to solve_snapshot on that row, which stays as the
one-snapshot oracle.

All electrical quantities are per phase unless a name says otherwise:
voltages are line-to-neutral volts, powers per phase in kVA.  Meter and
balance figures are three-phase totals.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from .record import record
from .report import write_columns

SQRT3 = math.sqrt(3.0)
PF_TOL = 1e-8  # largest voltage change of a converged pass, per unit
PF_MAX_ITER = 100


class ConvergenceError(RuntimeError):
    """Power flow failed to settle; carries the per-iteration deviations."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = tuple(float(t) for t in trace)


@record(frozen=True)
class HourlyShape:
    """Hourly values in [lower, 1]: load and generation multipliers (lower 0;
    from_values sets the peak to 1) or a storage signal (lower -1, charging)."""

    values: tuple
    lower: float = 0.0

    def __post_init__(self):
        if not self.values:
            raise ValueError("shape needs at least one hour")
        if any(not self.lower <= v <= 1.0 for v in self.values):
            raise ValueError(f"shape values must lie within [{self.lower:g}, 1]; "
                             "use from_values to normalize")

    @classmethod
    def from_values(cls, values):
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("shape needs at least one hour")
        top = max(values)
        if top <= 0:
            raise ValueError("cannot normalize a non-positive shape")
        return cls(tuple(v / top for v in values))

    def at(self, hour):
        if hour >= len(self.values):
            raise ValueError(
                f"shape covers {len(self.values)} hours, hour {hour} requested")
        return self.values[hour]

    def __len__(self):
        return len(self.values)


def _check_impedance(owner, z):
    """A series impedance: finite, with a non-negative resistance."""
    if not (0 <= z.real < math.inf and math.isfinite(z.imag)):
        raise ValueError(f"{owner}: impedance_ohm must be finite, with a "
                         f"non-negative real part, got {z!r}")


@record(frozen=True)
class SourceSpec:
    kv_ll: float = 4.8
    impedance_ohm: complex = 0.05 + 0.5j

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.kv_ll < math.inf:
            raise ValueError("kv_ll must be finite and > 0")
        _check_impedance("source", self.impedance_ohm)

    @property
    def volts_ln(self):
        return self.kv_ll * 1e3 / SQRT3


@record(frozen=True)
class LineSegment:
    name: str
    impedance_ohm: complex = 0.5 + 0.9j

    def __post_init__(self):
        _check_impedance(self.name, self.impedance_ohm)


@record(frozen=True)
class LoadSpec:
    """Three-phase constant-PQ load; kw is the three-phase total rating."""

    name: str
    kw: float
    power_factor: float
    shape: HourlyShape | None = None

    def __post_init__(self):
        if not 0 <= self.kw < math.inf:
            raise ValueError(f"{self.name}: kw must be finite and >= 0")
        if not 0 < self.power_factor <= 1:
            raise ValueError(f"{self.name}: power_factor outside (0, 1]")


@record(frozen=True)
class PvSpec:
    """Active-power-only generator; output is rated_kw times its shape."""

    rated_kw: float
    shape: HourlyShape | None = None

    def __post_init__(self):
        if not 0 < self.rated_kw < math.inf:
            raise ValueError("rated_kw must be finite and > 0")


@record(frozen=True)
class StorageSpec:
    rated_kw: float
    rated_kwh: float
    soc: float = 0.5
    soc_min: float = 0.1
    soc_max: float = 1.0
    round_trip_efficiency: float = 0.9
    dispatch: HourlyShape | None = None

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("rated_kw", "rated_kwh"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise ValueError("need 0 <= soc_min < soc_max <= 1")
        if not self.soc_min <= self.soc <= self.soc_max:
            raise ValueError("soc outside [soc_min, soc_max]")
        if not 0 < self.round_trip_efficiency <= 1:
            raise ValueError("round_trip_efficiency outside (0, 1]")

    @property
    def one_way_efficiency(self):
        return math.sqrt(self.round_trip_efficiency)


@record(frozen=True)
class Feeder:
    """Radial chain: source, then alternating line segments and loads.

    Bus 0 is the substation side of line 1; bus k sits after line k and
    carries load k.  Generation and storage, when present, connect at the
    last bus.
    """

    source: SourceSpec
    lines: tuple
    loads: tuple
    pv: PvSpec | None = None
    storage: StorageSpec | None = None

    def __post_init__(self):
        if not self.lines or len(self.lines) != len(self.loads):
            raise ValueError("need one load at the end of every line segment")
        names = [seg.name for seg in self.lines] + [ld.name for ld in self.loads]
        if len(set(names)) != len(names):
            raise ValueError("element names must be unique")


class HourInputs(NamedTuple):
    """Resolved element powers for one snapshot; load_kw are 3-phase totals."""

    load_kw: tuple
    pv_kw: float = 0.0
    storage_kw: float = 0.0


class Snapshot(NamedTuple):
    """Converged power flow. Powers per phase in kVA, losses in 3-phase kW."""

    bus_voltage: tuple
    line_power_kva: tuple
    load_power_kva: tuple
    source_power_kva: complex
    line_losses_kw: tuple
    line_losses_kvar: tuple
    pv_kw: float
    storage_kw: float
    iterations: int

    @property
    def source_kw(self):
        return 3.0 * self.source_power_kva.real

    @property
    def source_kvar(self):
        return 3.0 * self.source_power_kva.imag

    @property
    def losses_kw(self):
        return sum(self.line_losses_kw)

    @property
    def losses_kvar(self):
        return sum(self.line_losses_kvar)


def solve_snapshot(feeder, inputs=None):
    """Fixed-point load-current injection on the ladder network.

    Constant-PQ load currents are recomputed from the latest voltages, then
    one backward current sweep and one forward voltage sweep update the bus
    voltages.  Converged when the largest voltage change drops below
    PF_TOL (per unit of the source voltage) within PF_MAX_ITER passes.
    """
    if inputs is None:
        inputs = HourInputs(tuple(ld.kw for ld in feeder.loads))
    n = len(feeder.loads)
    if len(inputs.load_kw) != n:
        raise ValueError(f"expected {n} load powers, got {len(inputs.load_kw)}")

    e = complex(feeder.source.volts_ln)
    z = np.array([seg.impedance_ohm for seg in feeder.lines], dtype=complex)
    tan_phi = np.array([math.tan(math.acos(ld.power_factor)) for ld in feeder.loads])
    kw = np.array(inputs.load_kw, dtype=float)
    s_load = (kw + 1j * kw * tan_phi) * 1e3 / 3.0
    # local generation and storage discharge subtract from the last bus demand
    s_va = s_load.copy()
    s_va[-1] -= (inputs.pv_kw + inputs.storage_kw) * 1e3 / 3.0

    v = np.full(n + 1, e, dtype=complex)
    trace = []
    converged = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(PF_MAX_ITER):
            i_load = np.conj(s_va / v[1:])
            branch = np.cumsum(i_load[::-1])[::-1]
            v_new = np.empty_like(v)
            v_new[0] = e - feeder.source.impedance_ohm * branch[0]
            for k in range(n):
                v_new[k + 1] = v_new[k] - z[k] * branch[k]
            dev = float(np.max(np.abs(v_new - v))) / feeder.source.volts_ln
            trace.append(dev)
            v = v_new
            if dev < PF_TOL:
                converged = True
                break
    if not converged:
        raise ConvergenceError(
            f"power flow did not converge in {len(trace)} iterations "
            f"(last voltage change {trace[-1]:.3e} pu)", trace)

    i_load = np.conj(s_va / v[1:])
    branch = np.cumsum(i_load[::-1])[::-1]
    line_s = v[:-1] * np.conj(branch) / 1e3
    # np.hypot, as solve_lockstep takes it: np.abs of complex values rounds
    # differently by array stride and SIMD level
    loss = np.hypot(branch.real, branch.imag) ** 2 * z * 3.0 / 1e3
    return Snapshot(
        bus_voltage=tuple(v),
        line_power_kva=tuple(line_s),
        load_power_kva=tuple(s_load / 1e3),
        source_power_kva=complex(line_s[0]),
        line_losses_kw=tuple(loss.real),
        line_losses_kvar=tuple(loss.imag),
        pv_kw=float(inputs.pv_kw),
        storage_kw=float(inputs.storage_kw),
        iterations=len(trace))


class Flows(NamedTuple):
    """Converged power flows of many rows: Snapshot's solved fields, each an
    array with a leading row axis."""

    bus_voltage: np.ndarray
    line_power_kva: np.ndarray
    load_power_kva: np.ndarray
    source_power_kva: np.ndarray
    line_losses_kw: np.ndarray
    line_losses_kvar: np.ndarray
    iterations: np.ndarray

    def snapshot(self, row, pv_kw=0.0, storage_kw=0.0):
        """One row as the Snapshot solve_snapshot returns, scalar types
        included: write_daily_csv repr()s them."""
        return Snapshot(
            bus_voltage=tuple(self.bus_voltage[row]),
            line_power_kva=tuple(self.line_power_kva[row]),
            load_power_kva=tuple(self.load_power_kva[row]),
            source_power_kva=complex(self.source_power_kva[row]),
            line_losses_kw=tuple(self.line_losses_kw[row]),
            line_losses_kvar=tuple(self.line_losses_kvar[row]),
            pv_kw=float(pv_kw),
            storage_kw=float(storage_kw),
            iterations=int(self.iterations[row]))


def solve_lockstep(feeder, load_kw, injection_kw):
    """solve_snapshot on many rows at once, bit for bit.

    load_kw is a (rows, loads) array of three-phase load kW, injection_kw the
    rows' generation plus storage discharge at the last bus, in kW.  Each
    pass steps every unconverged row with solve_snapshot's operations, and a
    row leaves the arrays on the pass it converges.  The forward sweep is
    written in real arithmetic, as numpy's scalar complex product computes
    it; numpy's SIMD array product rounds differently.  If any row fails to
    converge, solve_snapshot on the first such row raises its
    ConvergenceError, message and trace included.
    """
    load_kw = np.asarray(load_kw, dtype=float)
    injection_kw = np.asarray(injection_kw, dtype=float)
    rows, n = load_kw.shape
    if n != len(feeder.loads):
        raise ValueError(f"expected {len(feeder.loads)} load powers, got {n}")

    e = complex(feeder.source.volts_ln)
    zs = feeder.source.impedance_ohm
    z = np.array([seg.impedance_ohm for seg in feeder.lines], dtype=complex)
    tan_phi = np.array([math.tan(math.acos(ld.power_factor)) for ld in feeder.loads])
    s_load = (load_kw + 1j * load_kw * tan_phi) * 1e3 / 3.0
    s_va = s_load.copy()
    s_va[:, -1] -= injection_kw * 1e3 / 3.0

    v_out = np.empty((rows, n + 1), dtype=complex)
    iterations = np.zeros(rows, dtype=int)
    row = np.arange(rows)  # run index of each row still iterating
    v = np.full((rows, n + 1), e)
    s = s_va
    passes = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while row.size and passes < PF_MAX_ITER:
            passes += 1
            i_load = np.conj(s / v[:, 1:])
            branch = np.cumsum(i_load[:, ::-1], axis=1)[:, ::-1]
            b_re, b_im = branch.real, branch.imag
            v_new = np.empty_like(v)
            re, im = v_new.real, v_new.imag
            re[:, 0] = e.real - (zs.real * b_re[:, 0] - zs.imag * b_im[:, 0])
            im[:, 0] = e.imag - (zs.real * b_im[:, 0] + zs.imag * b_re[:, 0])
            for k in range(n):
                zr, zi = z[k].real, z[k].imag
                re[:, k + 1] = re[:, k] - (zr * b_re[:, k] - zi * b_im[:, k])
                im[:, k + 1] = im[:, k] - (zr * b_im[:, k] + zi * b_re[:, k])
            dev = np.max(np.abs(v_new - v), axis=1) / feeder.source.volts_ln
            v = v_new
            done = dev < PF_TOL
            if done.any():
                v_out[row[done]] = v[done]
                iterations[row[done]] = passes
                keep = ~done
                row, v, s = row[keep], v[keep], s[keep]
    if row.size:
        first = int(row[0])
        solve_snapshot(feeder, HourInputs(tuple(load_kw[first]),
                                          pv_kw=injection_kw[first]))
        raise RuntimeError(f"row {first} converged alone but not in lock step")

    i_load = np.conj(s_va / v_out[:, 1:])
    branch = np.cumsum(i_load[:, ::-1], axis=1)[:, ::-1]
    line_s = v_out[:, :-1] * np.conj(branch) / 1e3
    # np.hypot, as solve_snapshot takes it: np.abs of complex values rounds
    # differently by array stride and SIMD level
    loss = np.hypot(branch.real, branch.imag) ** 2 * z * 3.0 / 1e3
    return Flows(
        bus_voltage=v_out,
        line_power_kva=line_s,
        load_power_kva=s_load / 1e3,
        source_power_kva=line_s[:, 0],
        line_losses_kw=loss.real,
        line_losses_kvar=loss.imag,
        iterations=iterations)


# -- storage -----------------------------------------------------------------

def dispatch_storage(spec, hour, soc):
    """Signed storage power for this hour, positive discharging.

    Follows rated_kw times the dispatch signal, clipped so the hour's energy
    transfer cannot push the state of charge outside its bounds after
    accounting for the one-way efficiency.
    """
    signal = spec.dispatch.at(hour) if spec.dispatch else 0.0
    raw = spec.rated_kw * signal
    eta = spec.one_way_efficiency
    if raw > 0:
        limit = (soc - spec.soc_min) * spec.rated_kwh * eta
        return min(raw, max(0.0, limit))
    if raw < 0:
        limit = (spec.soc_max - soc) * spec.rated_kwh / eta
        return -min(-raw, max(0.0, limit))
    return 0.0


def apply_storage_power(spec, soc, kw):
    """State of charge after one hour at the given signed power."""
    eta = spec.one_way_efficiency
    if kw > 0:
        return soc - kw / (eta * spec.rated_kwh)
    return soc - kw * eta / spec.rated_kwh


# -- daily mode ----------------------------------------------------------------

class HourRecord(NamedTuple):
    hour: int
    snapshot: Snapshot
    soc: float


class Meter(NamedTuple):
    kwh: float = 0.0
    kvarh: float = 0.0
    peak_kw: float = 0.0
    peak_kva: float = 0.0
    losses_kwh: float = 0.0
    losses_kvarh: float = 0.0
    peak_losses_kw: float = 0.0

    @classmethod
    def over(cls, kw, kvar, loss_kw=(), loss_kvar=()):
        """Meter of hourly three-phase powers.  Energies add in hour order from
        0.0 (np.sum pairs, sum compensates from Python 3.12: both move last
        bits); peaks start at 0.0, so a -0.0 storage hour is never the peak."""
        def total(xs):
            return functools.reduce(operator.add, xs, 0.0)

        return cls(kwh=total(kw), kvarh=total(kvar), peak_kw=max((0.0, *kw)),
                   peak_kva=max((0.0, *map(math.hypot, kw, kvar))),
                   losses_kwh=total(loss_kw), losses_kvarh=total(loss_kvar),
                   peak_losses_kw=max((0.0, *loss_kw)))


class DailyResult(NamedTuple):
    feeder: Feeder
    records: tuple

    def meters(self):
        """{element name: Meter} in summary order; the source meters all line losses."""
        snaps = [rec.snapshot for rec in self.records]
        zero = [0.0] * len(snaps)
        cols = {"source": ([s.source_kw for s in snaps], [s.source_kvar for s in snaps],
                           [s.losses_kw for s in snaps], [s.losses_kvar for s in snaps])}
        for k, seg in enumerate(self.feeder.lines):
            kva = [s.line_power_kva[k] for s in snaps]
            cols[seg.name] = ([3.0 * x.real for x in kva], [3.0 * x.imag for x in kva],
                              [s.line_losses_kw[k] for s in snaps],
                              [s.line_losses_kvar[k] for s in snaps])
        for k, ld in enumerate(self.feeder.loads):
            kva = [s.load_power_kva[k] for s in snaps]
            cols[ld.name] = ([3.0 * x.real for x in kva], [3.0 * x.imag for x in kva])
        if self.feeder.pv:
            cols["pv"] = ([s.pv_kw for s in snaps], zero)
        if self.feeder.storage:
            cols["storage"] = ([s.storage_kw for s in snaps], zero)
        return {name: Meter.over(*hourly) for name, hourly in cols.items()}


def run_daily(feeder, hours=200):
    """One power flow per hour with shape-driven loads, generation and storage."""
    st = feeder.storage
    shapes = [(ld.name, ld.shape) for ld in feeder.loads]
    shapes += [("generation", feeder.pv and feeder.pv.shape),
               ("dispatch", st and st.dispatch)]
    for label, shape in shapes:
        if shape and len(shape) < hours:
            raise ValueError(
                f"{label}: shape covers {len(shape)} hours, {hours} needed")

    # dispatch and state of charge never depend on the power flow, so every
    # hour's inputs are known before one lock-step solve
    soc = st.soc if st else math.nan
    load_kw = np.empty((hours, len(feeder.loads)))
    pv_kw, storage_kw, socs = [], [], []
    for hour in range(hours):
        load_kw[hour] = [ld.kw * (ld.shape.at(hour) if ld.shape else 1.0)
                         for ld in feeder.loads]
        pv = 0.0
        if feeder.pv:
            mult = feeder.pv.shape.at(hour) if feeder.pv.shape else 1.0
            pv = feeder.pv.rated_kw * mult
        storage = 0.0
        if st:
            storage = dispatch_storage(st, hour, soc)
            soc = apply_storage_power(st, soc, storage)
        pv_kw.append(pv)
        storage_kw.append(storage)
        socs.append(soc)
    flows = solve_lockstep(feeder, load_kw, np.add(pv_kw, storage_kw))
    return DailyResult(feeder, tuple(
        HourRecord(hour, flows.snapshot(hour, pv_kw[hour], storage_kw[hour]),
                   socs[hour])
        for hour in range(hours)))


# -- Monte Carlo mode ----------------------------------------------------------

MC_MEAN_FRACTION = 0.5
MC_STD_FRACTION = 0.05


def draw_load_kw(feeder, seed, run_index):
    """Per-run load powers; each run owns an independent, reproducible stream."""
    rng = np.random.default_rng((seed, run_index))
    out = []
    for ld in feeder.loads:
        kw = rng.normal(MC_MEAN_FRACTION * ld.kw, MC_STD_FRACTION * ld.kw)
        out.append(max(0.0, kw))
    return tuple(out)


class McStats(NamedTuple):
    mean_kw: float
    std_kw: float
    mean_kvar: float
    std_kvar: float


class McResult(NamedTuple):
    """Per-run per-phase powers, rows ordered by run index."""

    feeder: Feeder
    load_kva: np.ndarray
    line_kva: np.ndarray
    source_kva: np.ndarray

    def columns(self):
        """(name, per-run phase-A kVA) of loads, lines, source: stats and CSV order."""
        f = self.feeder
        return ([(ld.name, self.load_kva[:, k]) for k, ld in enumerate(f.loads)]
                + [(seg.name, self.line_kva[:, k]) for k, seg in enumerate(f.lines)]
                + [("source", self.source_kva)])

    def stats(self):
        """Per-element phase-A sample statistics in Table form."""
        return {name: McStats(mean_kw=float(np.mean(col.real)),
                              std_kw=float(np.std(col.real, ddof=1)),
                              mean_kvar=float(np.mean(col.imag)),
                              std_kvar=float(np.std(col.imag, ddof=1)))
                for name, col in self.columns()}


def run_monte_carlo(feeder, n_runs, mode="internal", seed=0, table=None):
    """One power flow per run with random load levels.

    internal mode draws each load's power from a normal distribution around
    half its rating; external mode takes the powers from a pre-read table.
    Reactive power keeps each load's rated power factor.  Generation, when
    present, injects its full rating in every run.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    if feeder.storage is not None:
        raise ValueError("storage is not part of the Monte Carlo snapshot mode")
    if mode not in ("internal", "external"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "external":
        if table is None:
            raise ValueError("external mode needs a load table")
        check_load_table(feeder, table, n_runs)

    names = [ld.name for ld in feeder.loads]
    kw = np.empty((n_runs, len(names)))
    for run in range(n_runs):
        kw[run] = (draw_load_kw(feeder, seed, run) if mode == "internal"
                   else [table[run][name] for name in names])
    pv_kw = feeder.pv.rated_kw if feeder.pv else 0.0
    flows = solve_lockstep(feeder, kw, np.full(n_runs, float(pv_kw)))
    return McResult(feeder, flows.load_power_kva, flows.line_power_kva,
                    flows.source_power_kva)


# -- load tables -----------------------------------------------------------------

LOAD_TABLE_HEADER = ("run", "load", "kW")


def read_load_table(path):
    """Parse a run,load,kW table into one dict of load powers per run;
    runs are numbered 0..N-1 and powers are finite and non-negative."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("line 1: empty file, expected header") from None
        if tuple(header) != LOAD_TABLE_HEADER:
            raise ValueError(f"line 1: expected header {LOAD_TABLE_HEADER}")
        runs = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                run = int(row[0])
                kw = float(row[2])
            except ValueError:
                raise ValueError(f"line {lineno}: bad number in {row!r}") from None
            if not 0.0 <= kw < math.inf:
                raise ValueError(f"line {lineno}: kW must be finite, >= 0: {row[2]!r}")
            name = row[1]
            block = runs.setdefault(run, {})
            if name in block:
                raise ValueError(f"line {lineno}: duplicate entry for run {run}, "
                                 f"load {name!r}")
            block[name] = kw
    missing = sorted(set(range(len(runs))) - runs.keys())
    if missing:
        raise ValueError(f"run {missing[0]} is missing; runs must be 0..{len(runs) - 1}")
    return tuple(runs[run] for run in range(len(runs)))


def check_load_table(feeder, table, n_runs):
    """A pre-read table fits the request: at least n_runs runs, each run used
    names exactly the feeder's loads, and every kW is finite and >= 0, as
    read_load_table demands of a file."""
    if len(table) < n_runs:
        raise ValueError(f"load table provides {len(table)} runs, {n_runs} requested")
    names = [ld.name for ld in feeder.loads]
    for run, row in enumerate(table[:n_runs]):
        if row.keys() != set(names):
            raise ValueError(f"run {run}: loads {sorted(row)}, feeder has {names}")
        for name in names:
            if not 0.0 <= row[name] < math.inf:
                raise ValueError(f"run {run}, load {name!r}: kW must be finite, "
                                 f">= 0: {row[name]!r}")


# -- shipped shapes and cases ----------------------------------------------------

def default_load_shape(hours=200, seed=0, peak_hour=19):
    """Diurnal sinusoid with reproducible noise, normalized to peak 1.0."""
    rng = np.random.default_rng(seed)
    values = []
    for h in range(hours):
        phase = 2.0 * math.pi * ((h % 24) - peak_hour) / 24.0
        base = 0.65 + 0.3 * math.cos(phase) + rng.normal(0.0, 0.03)
        values.append(max(0.2, base))
    return HourlyShape.from_values(values)


def default_pv_shape(hours=200):
    """Clipped half-sine over daylight hours, zero at night."""
    values = []
    for h in range(hours):
        hod = h % 24
        values.append(max(0.0, math.sin(math.pi * (hod - 6.0) / 12.0)))
    return HourlyShape(tuple(values))


def storage_strategy(hours=200, variant=1):
    """Square-wave dispatch; the two variants charge in different windows."""
    if variant == 1:
        charge = range(1, 6)
    elif variant == 2:
        charge = range(11, 16)
    else:
        raise ValueError(f"unknown storage strategy {variant}")
    discharge = range(18, 23)
    values = []
    for h in range(hours):
        hod = h % 24
        if hod in charge:
            values.append(-0.8)
        elif hod in discharge:
            values.append(0.8)
        else:
            values.append(0.0)
    return HourlyShape(tuple(values), lower=-1.0)


CASE_NAMES = ("A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4")

LOAD_RATINGS = (("load1", 285.0, 0.90), ("load2", 240.0, 0.89),
                ("load3", 192.0, 0.90))
GENERATOR_KW = 300.0


def build_case(name, hours=200):
    """Feeder for one of the eight shipped studies.

    A-cases are hourly series: A1 plain, A2 adds generation, A3 and A4 add
    storage with the two dispatch strategies.  B-cases are Monte Carlo
    snapshots: B2 and B4 include the constant generator, B3 and B4 take
    their load levels from an external table.
    """
    if name not in CASE_NAMES:
        raise ValueError(f"unknown case {name!r}")
    time_mode = name.startswith("A")
    loads = []
    for k, (label, kw, pf) in enumerate(LOAD_RATINGS):
        shape = default_load_shape(hours, seed=11 + k, peak_hour=18 + k) \
            if time_mode else None
        loads.append(LoadSpec(label, kw, pf, shape=shape))
    lines = tuple(LineSegment(f"line{k + 1}") for k in range(3))

    pv = None
    if name in ("A2", "A3", "A4"):
        pv = PvSpec(GENERATOR_KW, default_pv_shape(hours))
    elif name in ("B2", "B4"):
        pv = PvSpec(GENERATOR_KW)

    storage = None
    if name in ("A3", "A4"):
        variant = 1 if name == "A3" else 2
        storage = StorageSpec(100.0, 400.0,
                              dispatch=storage_strategy(hours, variant))
    return Feeder(SourceSpec(), lines, tuple(loads), pv=pv, storage=storage)


# -- CSV output -------------------------------------------------------------------

def write_daily_csv(daily, path):
    """Hourly series: source totals, per-load kW, injections, state of charge."""
    names = [ld.name for ld in daily.feeder.loads]
    header = (["hour", "source_kW", "source_kvar"]
              + [f"{n}_kW" for n in names]
              + ["pv_kW", "storage_kW", "soc", "losses_kW"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rec in daily.records:
            snap = rec.snapshot
            row = [rec.hour, repr(snap.source_kw), repr(snap.source_kvar)]
            row += [repr(3.0 * s.real) for s in snap.load_power_kva]
            row += [repr(snap.pv_kw), repr(snap.storage_kw),
                    repr(rec.soc), repr(snap.losses_kw)]
            writer.writerow(row)


def meter_rows(meter):
    """Label-value pairs for a meter summary block."""
    return (
        ("kWh", meter.kwh),
        ("kvarh", meter.kvarh),
        ("peak_kW", meter.peak_kw),
        ("peak_kVA", meter.peak_kva),
        ("losses_kWh", meter.losses_kwh),
        ("losses_kvarh", meter.losses_kvarh),
        ("peak_losses_kW", meter.peak_losses_kw))


def write_mc_csv(result, path):
    """Per-run phase-A powers for every load, line and the source."""
    columns = result.columns()
    header = ["run"]
    for name, _ in columns:
        header += [f"{name}_kW", f"{name}_kvar"]
    write_columns(path, header,
                  [np.arange(result.source_kva.shape[0]),
                   *(part for _, col in columns for part in (col.real, col.imag))])
