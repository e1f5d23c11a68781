"""Radial distribution feeder studies.

Models a balanced medium-voltage feeder as a per-phase positive-sequence
ladder: a stiff source behind an impedance, series line segments, and
constant-PQ loads at every junction, with optional photovoltaic generation
and an energy-storage unit at the last bus.  Three modes build on one
snapshot solver: a single power flow, an hourly time series with shape-driven
loads, and Monte Carlo sampling of random load levels.

All electrical quantities are per phase unless a name says otherwise:
voltages are line-to-neutral volts, powers per phase in kVA.  Meter and
balance figures are three-phase totals.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .report import write_csv

SQRT3 = math.sqrt(3.0)
PF_TOL = 1e-8  # largest voltage change of a converged pass, per unit
PF_MAX_ITER = 100


class ConvergenceError(RuntimeError):
    """Power flow failed to settle; carries the per-iteration deviations."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = tuple(float(t) for t in trace)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SourceSpec:
    kv_ll: float = 4.8
    impedance_ohm: complex = 0.05 + 0.5j

    def __post_init__(self):
        if self.kv_ll <= 0:
            raise ValueError("source voltage must be positive")
        if self.impedance_ohm.real < 0:
            raise ValueError("source resistance must be non-negative")

    @property
    def volts_ln(self):
        return self.kv_ll * 1e3 / SQRT3


@dataclass(frozen=True)
class LineSegment:
    name: str
    impedance_ohm: complex = 0.5 + 0.9j

    def __post_init__(self):
        if self.impedance_ohm.real < 0:
            raise ValueError(f"{self.name}: negative series resistance")


@dataclass(frozen=True)
class LoadSpec:
    """Three-phase constant-PQ load; kw is the three-phase total rating."""

    name: str
    kw: float
    power_factor: float
    shape: HourlyShape | None = None

    def __post_init__(self):
        if self.kw < 0:
            raise ValueError(f"{self.name}: negative power rating")
        if not 0 < self.power_factor <= 1:
            raise ValueError(f"{self.name}: power factor outside (0, 1]")


@dataclass(frozen=True)
class PvSpec:
    """Active-power-only generator; output is rated_kw times its shape."""

    rated_kw: float
    shape: HourlyShape | None = None

    def __post_init__(self):
        if self.rated_kw <= 0:
            raise ValueError("generator rating must be positive")


@dataclass(frozen=True)
class StorageSpec:
    rated_kw: float
    rated_kwh: float
    soc: float = 0.5
    soc_min: float = 0.1
    soc_max: float = 1.0
    round_trip_efficiency: float = 0.9
    dispatch: HourlyShape | None = None

    def __post_init__(self):
        if self.rated_kw <= 0 or self.rated_kwh <= 0:
            raise ValueError("storage ratings must be positive")
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise ValueError("need 0 <= soc_min < soc_max <= 1")
        if not self.soc_min <= self.soc <= self.soc_max:
            raise ValueError("initial state of charge outside its bounds")
        if not 0 < self.round_trip_efficiency <= 1:
            raise ValueError("round-trip efficiency outside (0, 1]")

    @property
    def one_way_efficiency(self):
        return math.sqrt(self.round_trip_efficiency)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class HourInputs:
    """Resolved element powers for one snapshot; load_kw are 3-phase totals."""

    load_kw: tuple
    pv_kw: float = 0.0
    storage_kw: float = 0.0


@dataclass(frozen=True)
class Snapshot:
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

    def balance_error_kw(self):
        """Source input minus loads, losses and local injections."""
        load = 3.0 * sum(s.real for s in self.load_power_kva)
        return self.source_kw - (load + self.losses_kw
                                 - self.pv_kw - self.storage_kw)


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
    loss = np.abs(branch) ** 2 * z * 3.0 / 1e3
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

@dataclass(frozen=True)
class HourRecord:
    hour: int
    snapshot: Snapshot
    soc: float


@dataclass(frozen=True)
class Meter:
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


@dataclass(frozen=True)
class DailyResult:
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
    """One snapshot per hour with shape-driven loads, generation and storage."""
    st = feeder.storage
    shapes = [(ld.name, ld.shape) for ld in feeder.loads]
    shapes += [("generation", feeder.pv and feeder.pv.shape),
               ("dispatch", st and st.dispatch)]
    for label, shape in shapes:
        if shape and len(shape) < hours:
            raise ValueError(
                f"{label}: shape covers {len(shape)} hours, {hours} needed")

    soc = st.soc if st else math.nan
    records = []
    for hour in range(hours):
        load_kw = tuple(
            ld.kw * (ld.shape.at(hour) if ld.shape else 1.0)
            for ld in feeder.loads)
        pv_kw = 0.0
        if feeder.pv:
            mult = feeder.pv.shape.at(hour) if feeder.pv.shape else 1.0
            pv_kw = feeder.pv.rated_kw * mult
        storage_kw = 0.0
        if st:
            storage_kw = dispatch_storage(st, hour, soc)
            soc = apply_storage_power(st, soc, storage_kw)
        snap = solve_snapshot(feeder, HourInputs(load_kw, pv_kw, storage_kw))
        records.append(HourRecord(hour, snap, soc))
    return DailyResult(feeder, tuple(records))


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


@dataclass(frozen=True)
class McStats:
    mean_kw: float
    std_kw: float
    mean_kvar: float
    std_kvar: float


@dataclass(frozen=True)
class McResult:
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
    """Solve one snapshot per run with random load levels.

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
    load_kva = np.empty((n_runs, len(names)), dtype=complex)
    line_kva = np.empty((n_runs, len(names)), dtype=complex)
    source_kva = np.empty(n_runs, dtype=complex)
    pv_kw = feeder.pv.rated_kw if feeder.pv else 0.0
    for run in range(n_runs):
        if mode == "internal":
            kw = draw_load_kw(feeder, seed, run)
        else:
            kw = tuple(table[run][name] for name in names)
        snap = solve_snapshot(feeder, HourInputs(kw, pv_kw=pv_kw))
        load_kva[run] = snap.load_power_kva
        line_kva[run] = snap.line_power_kva
        source_kva[run] = snap.source_power_kva
    return McResult(feeder, load_kva, line_kva, source_kva)


# -- load tables -----------------------------------------------------------------

LOAD_TABLE_HEADER = ("run", "load", "kW")


def write_load_table(path, rows):
    """rows: iterable of (run_index, load_name, kw)."""
    write_csv(path, LOAD_TABLE_HEADER,
              ((int(run), name, float(kw)) for run, name, kw in rows))


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
    """A pre-read table fits the request: at least n_runs runs, and each run
    used names exactly the feeder's loads."""
    if len(table) < n_runs:
        raise ValueError(f"load table provides {len(table)} runs, {n_runs} requested")
    names = [ld.name for ld in feeder.loads]
    for run, row in enumerate(table[:n_runs]):
        if row.keys() != set(names):
            raise ValueError(f"run {run}: loads {sorted(row)}, feeder has {names}")


def synthesize_load_table(feeder, n_runs, seed):
    """Rows for an external table, drawn with the internal distribution."""
    rows = []
    for run in range(n_runs):
        kw = draw_load_kw(feeder, seed, run)
        for ld, value in zip(feeder.loads, kw):
            rows.append((run, ld.name, value))
    return rows


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
    write_csv(path, header,
              ([run, *(part for _, col in columns
                       for part in (float(col[run].real), float(col[run].imag)))]
               for run in range(result.source_kva.shape[0])))
