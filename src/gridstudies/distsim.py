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
import math
from dataclasses import dataclass, field

import numpy as np

SQRT3 = math.sqrt(3.0)


class ConvergenceError(RuntimeError):
    """Power flow failed to settle; carries the per-iteration deviations."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = tuple(float(t) for t in trace)


def _pf_to_tan(power_factor):
    return math.tan(math.acos(power_factor))


@dataclass(frozen=True)
class LoadShape:
    """Hourly multipliers in [0, 1]; from_values rescales so the peak is 1.0."""

    multipliers: tuple

    def __post_init__(self):
        if not self.multipliers:
            raise ValueError("shape needs at least one hour")
        if any(not 0.0 <= m <= 1.0 for m in self.multipliers):
            raise ValueError("shape multipliers must lie in [0, 1]; "
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
        if hour >= len(self.multipliers):
            raise ValueError(
                f"shape covers {len(self.multipliers)} hours, "
                f"hour {hour} requested")
        return self.multipliers[hour]

    def __len__(self):
        return len(self.multipliers)


@dataclass(frozen=True)
class DispatchShape:
    """Hourly storage signal in [-1, 1]; negative means charging."""

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("dispatch shape needs at least one hour")
        if any(abs(v) > 1.0 + 1e-12 for v in self.values):
            raise ValueError("dispatch signal must stay within [-1, 1]")

    def at(self, hour):
        if hour >= len(self.values):
            raise ValueError(
                f"dispatch shape covers {len(self.values)} hours, "
                f"hour {hour} requested")
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
    kv_ll: float = 4.8
    shape: LoadShape | None = None

    def __post_init__(self):
        if self.kw < 0:
            raise ValueError(f"{self.name}: negative power rating")
        if not 0 < self.power_factor <= 1:
            raise ValueError(f"{self.name}: power factor outside (0, 1]")

    @property
    def kvar(self):
        return self.kw * _pf_to_tan(self.power_factor)


@dataclass(frozen=True)
class PvSpec:
    """Active-power-only generator; output is rated_kw times its shape."""

    rated_kw: float
    shape: LoadShape | None = None

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
    dispatch: DispatchShape | None = None

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


def rated_inputs(feeder):
    return HourInputs(tuple(ld.kw for ld in feeder.loads))


def solve_snapshot(feeder, inputs=None, tol=1e-8, max_iter=100):
    """Fixed-point load-current injection on the ladder network.

    Constant-PQ load currents are recomputed from the latest voltages, then
    one backward current sweep and one forward voltage sweep update the bus
    voltages.  Converged when the largest voltage change drops below tol
    (per unit of the source voltage) within max_iter passes.
    """
    if inputs is None:
        inputs = rated_inputs(feeder)
    n = len(feeder.loads)
    if len(inputs.load_kw) != n:
        raise ValueError(f"expected {n} load powers, got {len(inputs.load_kw)}")

    e = complex(feeder.source.volts_ln)
    z = np.array([seg.impedance_ohm for seg in feeder.lines], dtype=complex)
    tan_phi = np.array([_pf_to_tan(ld.power_factor) for ld in feeder.loads])
    kw = np.array(inputs.load_kw, dtype=float)
    s_load = (kw + 1j * kw * tan_phi) * 1e3 / 3.0
    # local generation and storage discharge subtract from the last bus demand
    s_va = s_load.copy()
    s_va[-1] -= (inputs.pv_kw + inputs.storage_kw) * 1e3 / 3.0

    v = np.full(n + 1, e, dtype=complex)
    trace = []
    converged = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            i_load = np.conj(s_va / v[1:])
            branch = np.cumsum(i_load[::-1])[::-1]
            v_new = np.empty_like(v)
            v_new[0] = e - feeder.source.impedance_ohm * branch[0]
            for k in range(n):
                v_new[k + 1] = v_new[k] - z[k] * branch[k]
            dev = float(np.max(np.abs(v_new - v))) / feeder.source.volts_ln
            trace.append(dev)
            v = v_new
            if dev < tol:
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

    def combine(self, other):
        """Meter over the union of two disjoint spans: energies add, peaks max."""
        return Meter(
            kwh=self.kwh + other.kwh,
            kvarh=self.kvarh + other.kvarh,
            peak_kw=max(self.peak_kw, other.peak_kw),
            peak_kva=max(self.peak_kva, other.peak_kva),
            losses_kwh=self.losses_kwh + other.losses_kwh,
            losses_kvarh=self.losses_kvarh + other.losses_kvarh,
            peak_losses_kw=max(self.peak_losses_kw, other.peak_losses_kw))


def _element_power(feeder, snap, name):
    """Three-phase (kW, kvar) of one named element in a snapshot."""
    if name == "source":
        return snap.source_kw, snap.source_kvar
    for k, seg in enumerate(feeder.lines):
        if seg.name == name:
            s = snap.line_power_kva[k]
            return 3.0 * s.real, 3.0 * s.imag
    for k, ld in enumerate(feeder.loads):
        if ld.name == name:
            s = snap.load_power_kva[k]
            return 3.0 * s.real, 3.0 * s.imag
    if name == "pv":
        return snap.pv_kw, 0.0
    if name == "storage":
        return snap.storage_kw, 0.0
    raise KeyError(f"unknown element {name!r}")


@dataclass(frozen=True)
class DailyResult:
    feeder: Feeder
    records: tuple

    def element_names(self):
        names = ["source"]
        names += [seg.name for seg in self.feeder.lines]
        names += [ld.name for ld in self.feeder.loads]
        if self.feeder.pv:
            names.append("pv")
        if self.feeder.storage:
            names.append("storage")
        return tuple(names)

    def meter(self, name, start=0, stop=None):
        stop = len(self.records) if stop is None else stop
        line_index = {seg.name: k for k, seg in enumerate(self.feeder.lines)}
        m = Meter()
        for rec in self.records[start:stop]:
            snap = rec.snapshot
            p, q = _element_power(self.feeder, snap, name)
            kva = math.hypot(p, q)
            if name == "source":
                lp, lq = snap.losses_kw, snap.losses_kvar
            elif name in line_index:
                k = line_index[name]
                lp, lq = snap.line_losses_kw[k], snap.line_losses_kvar[k]
            else:
                lp, lq = 0.0, 0.0
            m = m.combine(Meter(
                kwh=p, kvarh=q, peak_kw=max(p, 0.0), peak_kva=kva,
                losses_kwh=lp, losses_kvarh=lq, peak_losses_kw=max(lp, 0.0)))
        return m


def run_daily(feeder, hours=200, tol=1e-8):
    """One snapshot per hour with shape-driven loads, generation and storage."""
    for ld in feeder.loads:
        if ld.shape and len(ld.shape) < hours:
            raise ValueError(
                f"{ld.name}: shape covers {len(ld.shape)} hours, {hours} needed")
    if feeder.pv and feeder.pv.shape and len(feeder.pv.shape) < hours:
        raise ValueError(
            f"generation shape covers {len(feeder.pv.shape)} hours, "
            f"{hours} needed")
    st = feeder.storage
    if st and st.dispatch and len(st.dispatch) < hours:
        raise ValueError(
            f"dispatch shape covers {len(st.dispatch)} hours, {hours} needed")

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
        snap = solve_snapshot(
            feeder, HourInputs(load_kw, pv_kw, storage_kw), tol=tol)
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

    def stats(self):
        """Per-element phase-A sample statistics in Table form."""
        out = {}
        elements = (
            [(ld.name, self.load_kva[:, k]) for k, ld in enumerate(self.feeder.loads)]
            + [(seg.name, self.line_kva[:, k]) for k, seg in enumerate(self.feeder.lines)]
            + [("source", self.source_kva)])
        for name, col in elements:
            out[name] = McStats(
                mean_kw=float(np.mean(col.real)),
                std_kw=float(np.std(col.real, ddof=1)),
                mean_kvar=float(np.mean(col.imag)),
                std_kvar=float(np.std(col.imag, ddof=1)))
        return out


def run_monte_carlo(feeder, n_runs, mode="internal", seed=0, table=None,
                    tol=1e-8):
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
        if len(table) < n_runs:
            raise ValueError(
                f"load table provides {len(table)} runs, {n_runs} requested")

    n_loads = len(feeder.loads)
    load_kva = np.empty((n_runs, n_loads), dtype=complex)
    line_kva = np.empty((n_runs, n_loads), dtype=complex)
    source_kva = np.empty(n_runs, dtype=complex)
    pv_kw = feeder.pv.rated_kw if feeder.pv else 0.0
    for run in range(n_runs):
        if mode == "internal":
            kw = draw_load_kw(feeder, seed, run)
        else:
            row = table[run]
            kw = []
            for ld in feeder.loads:
                if ld.name not in row:
                    raise ValueError(f"run {run} is missing load {ld.name!r}")
                kw.append(row[ld.name])
            kw = tuple(kw)
        snap = solve_snapshot(feeder, HourInputs(kw, pv_kw=pv_kw), tol=tol)
        load_kva[run] = snap.load_power_kva
        line_kva[run] = snap.line_power_kva
        source_kva[run] = snap.source_power_kva
    return McResult(feeder, load_kva, line_kva, source_kva)


# -- load tables -----------------------------------------------------------------

LOAD_TABLE_HEADER = ("run", "load", "kW")


def write_load_table(path, rows):
    """rows: iterable of (run_index, load_name, kw)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOAD_TABLE_HEADER)
        for run, name, kw in rows:
            writer.writerow([int(run), name, repr(float(kw))])


def read_load_table(path):
    """Parse a run,load,kW table into one dict of load powers per run."""
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
            name = row[1]
            block = runs.setdefault(run, {})
            if name in block:
                raise ValueError(f"line {lineno}: duplicate entry for run {run}, "
                                 f"load {name!r}")
            block[name] = kw
    return tuple(runs[run] for run in sorted(runs))


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
    return LoadShape.from_values(values)


def default_pv_shape(hours=200):
    """Clipped half-sine over daylight hours, zero at night."""
    values = []
    for h in range(hours):
        hod = h % 24
        values.append(max(0.0, math.sin(math.pi * (hod - 6.0) / 12.0)))
    return LoadShape(tuple(values))


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
    return DispatchShape(tuple(values))


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
    names = ([ld.name for ld in result.feeder.loads]
             + [seg.name for seg in result.feeder.lines] + ["source"])
    header = ["run"]
    for n in names:
        header += [f"{n}_kW", f"{n}_kvar"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for run in range(result.source_kva.shape[0]):
            cells = [run]
            cols = (list(result.load_kva[run]) + list(result.line_kva[run])
                    + [result.source_kva[run]])
            for s in cols:
                cells += [repr(float(s.real)), repr(float(s.imag))]
            writer.writerow(cells)
