"""Monte Carlo lightning performance of a shielded overhead line.

Strokes are sampled over a ground strip that straddles the line, attributed
to ground, shield wires, or phase conductors with an electrogeometric
model, and every stroke that reaches the line is replayed as a surge on a
traveling-wave network to decide whether an insulator string flashes over.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .emt import BatchRows, DoubleRampSource, EmtBatch, EmtNetwork, batch_rows
from .record import field, fields, record, replace
from .report import write_columns

LIGHT_SPEED_M_S = 299_792_458.0

# Lateral attraction radii grow with the return-stroke peak current.
WIRE_RADIUS_KA_COEFF = 7.1
GROUND_RADIUS_KA_COEFF = 6.4
RADIUS_KA_EXPONENT = 0.75

# A stroke lands on a structure when it is within this fraction of the span
# from the nearest tower; fatter bands for fatter strokes.
TOWER_BAND_HIGH_KA = 64.0
TOWER_BAND_LOW_KA = 25.0

# Impact codes: `wire` indexes WIRE_LABELS, `place` indexes PLACE_LABELS.
GROUND, SHIELD, PHASE_A, PHASE_C = range(4)
TOWER, SPAN = 1, 2
WIRE_LABELS = ("Ground", "Shield wire", "Phase A", "Phase C")
PLACE_LABELS = ("", "Tower", "Span")

EVENTS_HEADER = ("PhaseAngle", "StrokePeak", "FrontTime", "HalfPeak",
                 "Wire", "Tower", "Flashover")


@record(frozen=True)
class LineGeometry:
    """Flat-configuration line: three phases under two shield wires.

    Heights are at the towers; sags lower the wires at midspan.  The outer
    phases sit at +-phase_y_m, the shields at +-shield_y_m, and the middle
    phase on the centerline where the shield wires screen it completely.
    """

    phase_y_m: float = 6.0
    phase_height_m: float = 7.0
    phase_sag_m: float = 3.5
    shield_y_m: float = 1.9219
    shield_height_m: float = 10.5
    shield_sag_m: float = 4.718
    span_m: float = 321.8688
    tower_count: int = 5
    strip_half_width_m: float = 500.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} = {getattr(self, f.name)} is not finite")
        if self.tower_count < 2:
            raise ValueError("need at least two towers")
        if self.span_m <= 0 or self.strip_half_width_m <= 0:
            raise ValueError("span and strip width must be positive")
        if not 0 < self.phase_y_m or not 0 < self.shield_y_m:
            raise ValueError("wire offsets must be positive")
        if self.shield_height_m <= self.phase_height_m:
            raise ValueError("shield wires must run above the phases")
        if not 0 <= self.phase_sag_m < self.phase_height_m:
            raise ValueError("phase sag out of range")
        if not 0 <= self.shield_sag_m < self.shield_height_m:
            raise ValueError("shield sag out of range")
        mid_shield = self.shield_height_m - self.shield_sag_m
        mid_phase = self.phase_height_m - self.phase_sag_m
        if mid_shield <= mid_phase:
            raise ValueError("shield wires must clear the phases at midspan")

    @property
    def span_count(self) -> int:
        return self.tower_count - 1

    @property
    def line_length_m(self) -> float:
        return self.span_count * self.span_m

    def towers_x(self) -> np.ndarray:
        return np.arange(self.tower_count) * self.span_m

    def shield_positions(self, at_midspan: bool = False) -> tuple:
        h = self.shield_height_m - (self.shield_sag_m if at_midspan else 0.0)
        return ((-self.shield_y_m, h), (self.shield_y_m, h))

    def outer_phase_positions(self, at_midspan: bool = False) -> tuple:
        h = self.phase_height_m - (self.phase_sag_m if at_midspan else 0.0)
        return ((-self.phase_y_m, h), (self.phase_y_m, h))


DEFAULT_GEOMETRY = LineGeometry()


def striking_distances(peak_ka) -> tuple:
    """Attraction radii (wire, ground) in meters for peak currents in kA."""
    peak_ka = np.asarray(peak_ka, dtype=float)
    if np.any(peak_ka <= 0):
        raise ValueError("peak current must be positive")
    scale = peak_ka ** RADIUS_KA_EXPONENT
    return WIRE_RADIUS_KA_COEFF * scale, GROUND_RADIUS_KA_COEFF * scale


@record(frozen=True)
class Impacts:
    """Where strokes terminate, one integer code per stroke in each field.

    `wire` indexes WIRE_LABELS, `place` indexes PLACE_LABELS (0 on ground),
    and `index` is the tower or span number, -1 on ground.  `impacts[i]` is
    the record of stroke i alone, with scalar fields.
    """

    wire: np.ndarray
    place: np.ndarray
    index: np.ndarray

    @property
    def on_line(self) -> np.ndarray:
        return self.wire != GROUND

    def __getitem__(self, i) -> "Impacts":
        return Impacts(self.wire[i], self.place[i], self.index[i])


def _capture_height(y, wire_y: float, wire_h: float, radius):
    """Height where a channel descending at y meets the wire's circle,
    -inf where it passes the circle by."""
    gap = radius * radius - (y - wire_y) ** 2
    with np.errstate(invalid="ignore"):
        return np.where(gap >= 0, wire_h + np.sqrt(gap), -np.inf)


def classify_impact(x_m, y_m, peak_ka,
                    geometry: LineGeometry = DEFAULT_GEOMETRY) -> Impacts:
    """Attribute strokes to ground, a shield wire, or an outer phase.

    Takes arrays (or scalars, as 0-d arrays) of strike points and peaks.
    The channel descends vertically at y and terminates on whatever surface
    it meets first: a wire's attraction circle or the ground plane.  Wire
    attribution always uses the tower cross-section; the middle phase is
    screened and never takes a direct hit.  Line strokes then land on a
    tower or within a span depending on how close x falls to a structure,
    with a capture band that widens with the peak current.
    """
    x, y, peak = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                       for v in (x_m, y_m, peak_ka)))
    rc, rg = striking_distances(peak)
    shield = np.maximum.reduce([_capture_height(y, wy, wh, rc)
                                for wy, wh in geometry.shield_positions()])
    left, right = (_capture_height(y, wy, wh, rc)
                   for wy, wh in geometry.outer_phase_positions())
    phase = np.maximum(left, right)
    on_line = np.maximum(shield, phase) > rg
    wire = np.where(phase > shield,
                    np.where(left >= right, PHASE_A, PHASE_C), SHIELD)

    distances = np.abs(geometry.towers_x() - x[..., None])
    nearest = np.argmin(distances, axis=-1)
    span = geometry.span_m
    band = np.select([peak > TOWER_BAND_HIGH_KA, peak >= TOWER_BAND_LOW_KA],
                     [span / 4.0, span / 8.0], span / 16.0)
    at_tower = distances.min(axis=-1) <= band
    span_index = np.minimum(x // span, geometry.span_count - 1).astype(int)
    return Impacts(wire=np.where(on_line, wire, GROUND),
                   place=np.where(on_line, np.where(at_tower, TOWER, SPAN), 0),
                   index=np.where(on_line, np.where(at_tower, nearest,
                                                    span_index), -1))


def exposure_width(geometry: LineGeometry, peak_ka: float,
                   at_midspan: bool = False) -> float:
    """Width of ground strip from which a stroke reaches a phase conductor.

    Scans 120 000 lateral positions on one side of the line (the geometry is
    symmetric) and doubles the width where an outer phase outcompetes both
    the shield wires and the ground plane.
    """
    rc, rg = striking_distances(peak_ka)
    shields = geometry.shield_positions(at_midspan)
    phases = geometry.outer_phase_positions(at_midspan)
    reach = max(abs(p[0]) for p in phases) + rc + 2.0
    y = np.linspace(0.0, reach, 120_000)
    shield_best = np.maximum.reduce([_capture_height(y, *w, rc) for w in shields])
    phase_best = np.maximum.reduce([_capture_height(y, *w, rc) for w in phases])
    exposed = (phase_best > shield_best) & (phase_best > rg)
    return 2.0 * float(exposed.sum()) * (y[1] - y[0])


class CriticalCurrents(NamedTuple):
    """Largest peak currents that can still reach a phase conductor."""

    tower_ka: float
    span_ka: float


def _critical(geometry: LineGeometry, at_midspan: bool) -> float:
    """Bisection on [1, 300] kA, to 0.005 kA, for the largest peak current
    with a nonzero exposure width."""
    lo, hi = 1.0, 300.0
    if exposure_width(geometry, hi, at_midspan) > 0:
        return math.inf
    if exposure_width(geometry, lo, at_midspan) <= 0:
        return 0.0
    while hi - lo > 0.005:
        mid = 0.5 * (lo + hi)
        if exposure_width(geometry, mid, at_midspan) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_currents(geometry: LineGeometry = DEFAULT_GEOMETRY) -> CriticalCurrents:
    """Shielding-failure limits at the towers and at midspan, in kA."""
    return CriticalCurrents(tower_ka=_critical(geometry, at_midspan=False),
                            span_ka=_critical(geometry, at_midspan=True))


# kept: DEFAULT_GEOMETRY's provenance; test_calibration_recovers_defaults
def calibrate_geometry(geometry: LineGeometry = DEFAULT_GEOMETRY,
                       tower_target_ka: float = 17.62,
                       span_target_ka: float = 64.15) -> LineGeometry:
    """Retune shield placement so the shielding-failure limits hit targets.

    Pulls the shield wires toward the centerline to raise the tower limit
    (centered shields leave the outer phases exposed to bigger strokes)
    and deepens their sag to raise the midspan limit, each by bisection;
    returns a new geometry rounded to 0.1 mm.
    """
    lo, hi = 0.05, geometry.phase_y_m
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        trial = replace(geometry, shield_y_m=mid)
        if _critical(trial, at_midspan=False) > tower_target_ka:
            lo = mid
        else:
            hi = mid
    shield_y = round(0.5 * (lo + hi), 4)
    adjusted = replace(geometry, shield_y_m=shield_y)

    max_sag = (adjusted.shield_height_m
               - (adjusted.phase_height_m - adjusted.phase_sag_m) - 0.05)
    lo, hi = 0.0, max_sag
    if _critical(replace(adjusted, shield_sag_m=hi), at_midspan=True) < span_target_ka:
        raise ValueError("span target not reachable with this geometry")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        trial = replace(adjusted, shield_sag_m=mid)
        if _critical(trial, at_midspan=True) < span_target_ka:
            lo = mid
        else:
            hi = mid
    return replace(adjusted, shield_sag_m=round(0.5 * (lo + hi), 4))


@record
class StrokeSample:
    """One batch of sampled strokes; every field is an array of length n.
    `sample[i]` is the row of stroke i alone, with scalar fields."""

    x_m: np.ndarray
    y_m: np.ndarray
    angle_deg: np.ndarray
    peak_ka: np.ndarray
    front_us: np.ndarray
    half_us: np.ndarray
    footing_ohm: np.ndarray
    strength_kv: np.ndarray

    def __len__(self) -> int:
        return self.x_m.size

    def __getitem__(self, i) -> "StrokeSample":
        return StrokeSample(*(getattr(self, f.name)[i] for f in fields(self)))


PEAK_MEDIAN_KA = 34.0
PEAK_SIGMA_LN = 0.740
FRONT_MEDIAN_US = 2.0
FRONT_SIGMA_LN = 0.494
HALF_MEDIAN_US = 77.5
HALF_SIGMA_LN = 0.577
FOOTING_RANGE_OHM = (10.0, 100.0)
STRENGTH_MEAN_KV = 977.5
STRENGTH_SD_KV = 48.875


def sample_strokes(n: int, seed: int,
                   geometry: LineGeometry = DEFAULT_GEOMETRY) -> StrokeSample:
    """Draw n strokes over the exposure strip.

    Peak current and both waveshape times are lognormal; the strike point
    is uniform over the strip; the footing resistance is uniform and the
    insulation strength normal, one value per stroke.
    """
    if n <= 0:
        raise ValueError("need a positive number of strokes")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, geometry.line_length_m, n)
    y = rng.uniform(-geometry.strip_half_width_m, geometry.strip_half_width_m, n)
    angle = rng.uniform(0.0, 360.0, n)
    peak = rng.lognormal(math.log(PEAK_MEDIAN_KA), PEAK_SIGMA_LN, n)
    front = rng.lognormal(math.log(FRONT_MEDIAN_US), FRONT_SIGMA_LN, n)
    half = rng.lognormal(math.log(HALF_MEDIAN_US), HALF_SIGMA_LN, n)
    footing = rng.uniform(FOOTING_RANGE_OHM[0], FOOTING_RANGE_OHM[1], n)
    strength = np.abs(rng.normal(STRENGTH_MEAN_KV, STRENGTH_SD_KV, n))
    return StrokeSample(x, y, angle, peak, front, half, footing, strength)


@record(frozen=True)
class StudyConfig:
    """Everything one study run depends on."""

    n: int = 50_000
    seed: int = 1
    geometry: LineGeometry = field(default_factory=LineGeometry)
    system_kv: float = 230.0
    shield_surge_ohms: float = 23.0
    phase_surge_ohms: float = 110.0
    tower_base_radius_m: float = 8.0
    tower_speed_factor: float = 0.85
    extension_towers: int = 2
    dt_s: float = 20e-9
    t_end_s: float = 15e-6
    ground_flash_density: float = 2.2
    strip_length_km: float = 1.0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("need a positive number of strokes")
        for name in ("system_kv", "shield_surge_ohms", "phase_surge_ohms",
                     "tower_base_radius_m", "tower_speed_factor", "dt_s",
                     "t_end_s", "ground_flash_density", "strip_length_km"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} = {value} is not in (0, inf)")
        if self.tower_speed_factor > 1:
            raise ValueError(f"tower_speed_factor = {self.tower_speed_factor}"
                             " exceeds 1: no surge outruns light")
        if self.t_end_s <= self.dt_s:
            raise ValueError("need 0 < dt < simulation window")
        if self.extension_towers < 1:
            raise ValueError("need at least one extension tower per side")
        if not self.tower_surge_ohms > 0:
            raise ValueError(
                f"tower_base_radius_m = {self.tower_base_radius_m} leaves the "
                f"tower surge impedance at {self.tower_surge_ohms:g} ohm")
        tau_tower = self.geometry.shield_height_m / (self.tower_speed_factor
                                                     * LIGHT_SPEED_M_S)
        if tau_tower < self.dt_s:
            raise ValueError("dt exceeds the tower travel time; reduce dt")

    @property
    def tower_surge_ohms(self) -> float:
        h = self.geometry.shield_height_m
        return 60.0 * (math.log(math.sqrt(2.0) * 2.0 * h
                                / self.tower_base_radius_m) - 1.0)


_PHASE_NAMES = {PHASE_A: "a", PHASE_C: "c"}


def _phase_volts(angle_deg, config: StudyConfig) -> tuple:
    """Instantaneous phase a, b and c voltages at a stroke's phase angle."""
    v_peak = math.sqrt(2.0) * config.system_kv * 1e3 / math.sqrt(3.0)
    return tuple(v_peak * math.cos(math.radians(angle_deg + shift))
                 for shift in (0.0, -120.0, 120.0))


def _tower_node(wire: int, k: int) -> str:
    """The node a stroke to `wire` at tower k of a strike network strikes."""
    return f"s{k}" if wire == SHIELD else f"p{_PHASE_NAMES.get(wire)}{k}"


def build_strike_network(stroke: StrokeSample, impact: Impacts,
                         config: StudyConfig) -> EmtNetwork:
    """Assemble the traveling-wave network for one line stroke.

    The struck line is padded with extension towers on both sides; every
    conductor ends in its matched impedance, the phases behind steady
    sources that hold the instantaneous power-frequency voltage, so the
    network sits in exact equilibrium until the surge arrives.  The
    insulator switches on the real towers are the network's only flashover
    switches.  `stroke` is one row of a sample and `impact` its codes.
    """
    wire, place, index = int(impact.wire), int(impact.place), int(impact.index)
    if wire == GROUND:
        raise ValueError("only line strokes get a network")
    phase = _PHASE_NAMES.get(wire)
    split_span = index if place == SPAN else None
    geom = config.geometry
    ext = config.extension_towers
    total = geom.tower_count + 2 * ext
    tau_tower = geom.shield_height_m / (config.tower_speed_factor * LIGHT_SPEED_M_S)
    tau_span = geom.span_m / LIGHT_SPEED_M_S
    z_tower = config.tower_surge_ohms
    z_shield = config.shield_surge_ohms
    z_phase = config.phase_surge_ohms

    volts = dict(zip("abc", _phase_volts(stroke.angle_deg, config)))

    net = EmtNetwork()
    for k in range(total):
        net.add_line(f"s{k}", f"g{k}", z_tower, tau_tower)
        net.add_resistor(f"g{k}", "ground", stroke.footing_ohm)
        for p in "abc":
            net.set_initial_voltage(f"p{p}{k}", volts[p])

    inject = None
    for k in range(total - 1):
        span = k - ext  # real span index for k between the real towers
        if wire == SHIELD and span == split_span:
            net.add_line(f"s{k}", "mid", z_shield, tau_span / 2.0)
            net.add_line("mid", f"s{k + 1}", z_shield, tau_span / 2.0)
            inject = "mid"
        else:
            net.add_line(f"s{k}", f"s{k + 1}", z_shield, tau_span)
        for p in "abc":
            if p == phase and span == split_span:
                net.set_initial_voltage("mid", volts[p])
                net.add_line(f"p{p}{k}", "mid", z_phase, tau_span / 2.0,
                             v0_a=volts[p], v0_b=volts[p])
                net.add_line("mid", f"p{p}{k + 1}", z_phase, tau_span / 2.0,
                             v0_a=volts[p], v0_b=volts[p])
                inject = "mid"
            else:
                net.add_line(f"p{p}{k}", f"p{p}{k + 1}", z_phase, tau_span,
                             v0_a=volts[p], v0_b=volts[p])

    last = total - 1
    net.add_resistor("s0", "ground", z_shield)
    net.add_resistor(f"s{last}", "ground", z_shield)
    for p in "abc":
        net.add_voltage_source(f"p{p}0", volts[p], z_phase)
        net.add_voltage_source(f"p{p}{last}", volts[p], z_phase)

    for k in range(ext, ext + geom.tower_count):
        for p in "abc":
            net.add_flashover_switch(f"s{k}", f"p{p}{k}", stroke.strength_kv * 1e3)

    if inject is None:
        inject = _tower_node(wire, ext + index)
    front = stroke.front_us * 1e-6
    half = max(stroke.half_us * 1e-6, front * 1.001)
    net.add_current_source(inject, DoubleRampSource(-stroke.peak_ka * 1e3,
                                                    front, half))
    return net


class EventResult(NamedTuple):
    flashover: bool = False
    close_time_s: float | None = None
    failed: bool = False


def simulate_event(stroke: StrokeSample, impact: Impacts,
                   config: StudyConfig) -> EventResult:
    """Replay one line stroke (a row of a sample); a numerical failure of
    the solver (a singular matrix, or node voltages that are not finite on
    some step) is reported, not raised."""
    try:
        net = build_strike_network(stroke, impact, config)
        res = net.assemble(config.dt_s).run(config.t_end_s)
    except np.linalg.LinAlgError:
        return EventResult(failed=True)
    if res.flashovers:  # the run ends at the step of its first flashover
        return EventResult(flashover=True, close_time_s=res.flashovers[0][1])
    return EventResult()


# The most line strokes per lock-step batch; a struck-wire group of g
# strokes runs as ceil(g / REPLAY_BATCH) batches whose sizes differ by at
# most one, so 84 strokes run as two of 42, not 64 and 20.  Memory, not
# speed, sets it: while its batch runs, each row holds its ring of outgoing
# waves, a chunk of its solved node voltages and its pass buffers,
# 31.0-32.4 kB in a shield stroke's batch (tracemalloc over every shield
# batch at n=4000, seed 2), so a batch of 64 peaks near 2.1 MB.  Larger
# batches raise peak memory for little further gain.
REPLAY_BATCH = 64


def _replay_batches(sample: StrokeSample, impacts: Impacts,
                    config: StudyConfig):
    """The lock-step batches of `replay_strokes`: yields (stroke indices,
    template, held nodes, BatchRows) per batch, with template and rows
    None for the strokes of a structure whose network is singular.

    Every tower stroke shares one structure, where only the struck node
    differs; a span stroke's follows its wire and span.  Structures run
    from the most strokes to the fewest, and each structure's network is
    built and assembled once, from its first stroke.  A stroke
    changes only values in the network, so its row is filled from the
    template and the stroke's columns, each value formed as
    build_strike_network and EmtSimulation form it:
      - G⁻¹ diagonal: the template's, and at each tower foot 1 / G with G
        stamped as 1 / footing, then 1 / Zc of the tower line;
      - constant injections: the phase sources' Norton currents, the
        phase voltage over the phase surge impedance;
      - line pre-history and t=0 end voltages: the phase voltage on phase
        conductor ends (with the split node of a struck phase span), 0 on
        shield and tower ends; t=0 currents 0;
      - switch strengths, ramp, and the struck node.
    Until an insulator flashes, G is diagonal and every line joins two
    nodes of one conductor (the shield with its towers, or one phase), so
    the surge reaches only the conductor it strikes and every other
    conductor rests at its power-frequency voltage.  A batch steps the
    struck conductor (with the split node of a struck span) and holds every
    other non-ground node (EmtBatch's `held`); so a structure's strokes
    batch by struck wire, in stroke order, as the fewest batches of at most
    REPLAY_BATCH rows, whose sizes differ by at most one.
    Every input check of build_strike_network runs first, over all
    strokes: the first stroke that fails one is built alone, which raises
    that check's ValueError before any batch steps."""
    n = len(sample)
    footing = sample.footing_ohm
    strength = sample.strength_kv * 1e3
    front = sample.front_us * 1e-6
    half = sample.half_us * 1e-6
    half = np.where(front * 1.001 > half, front * 1.001, half)  # Python's max
    valid = ((0 < footing) & (footing < math.inf) & (0 < strength)
             & (strength < math.inf) & (0 < front) & (front < half)
             & ~np.isinf(sample.angle_deg))  # math.cos refuses an infinity
    if not valid.all():
        first = int(np.argmin(valid))
        build_strike_network(sample[first], impacts[first], config)  # raises
    ramp = np.stack([-sample.peak_ka * 1e3, front, half])
    foot = 1.0 / (1.0 / footing + 1.0 / config.tower_surge_ohms)
    volts = np.zeros((n, 4))  # 0 V, then the phase a, b and c voltages
    volts[:, 1:] = np.array([_phase_volts(angle, config) for angle in
                             sample.angle_deg.tolist()]).reshape(n, 3)

    structures = {}
    for i, codes in enumerate(zip(impacts.wire.tolist(), impacts.place.tolist(),
                                  impacts.index.tolist())):
        structures.setdefault(TOWER if codes[1] == TOWER else codes,
                              []).append(i)
    ext = config.extension_towers
    towers = config.geometry.tower_count + 2 * ext

    # the structures with the most strokes first: their batches are the
    # largest, and the later, smaller ones reuse the memory they free
    for key, strokes in sorted(structures.items(),
                               key=lambda item: -len(item[1])):
        strokes = np.array(strokes)
        first = strokes[0]
        try:
            template = build_strike_network(sample[first], impacts[first],
                                            config).assemble(config.dt_s)
        except np.linalg.LinAlgError:
            yield strokes, None, (), None
            continue
        own, net = batch_rows(template), template.net
        names = [net.node_name(node) for node in range(own.inject.shape[0])]
        # per node: the column of `volts` it rests at, which names its
        # conductor; a struck wire's conductor rests at column[wire]
        column = {PHASE_A: 1, PHASE_C: 3}
        mid = column.get(int(impacts.wire[first]), 0)
        rest = np.array([mid if name == "mid" else
                         " abc".index(name[1]) if name[0] == "p" else 0
                         for name in names])
        ends = rest[[end for line in net.lines
                     for end in (line.node_a, line.node_b)]]
        sources = [node for node, wave in net.current_sources
                   if not callable(wave)]
        feet = [net.require_node(f"g{k}") - 1 for k in range(towers)]

        def fill(rows):
            v = volts[rows]
            if key == TOWER:
                node = np.array([net.require_node(_tower_node(w, ext + k))
                                 for w, k in zip(impacts.wire[rows].tolist(),
                                                 impacts.index[rows].tolist())])
            else:
                node = np.repeat(own.node, rows.size)
            ginv = np.repeat(own.ginv_diag, rows.size, axis=1)
            ginv[feet] = foot[rows]
            inject = np.zeros((own.inject.shape[0], rows.size))
            inject[sources] = v[:, rest[sources]].T / config.phase_surge_ohms
            line_v0 = v[:, ends].T
            return BatchRows(
                node, ramp[:, rows], ginv, inject, line_v0,
                np.concatenate([line_v0, np.zeros_like(line_v0)]),
                np.repeat(strength[None, rows], own.strength.shape[0], axis=0))

        wires = impacts.wire[strokes]
        for wire in sorted(set(wires.tolist())):
            group = strokes[wires == wire]
            held = (np.flatnonzero(rest[1:] != column.get(wire, 0)) + 1).tolist()
            for rows in np.array_split(group, -(-group.size // REPLAY_BATCH)):
                yield rows, template, held, fill(rows)


def replay_strokes(sample: StrokeSample, impacts: Impacts,
                   config: StudyConfig) -> list:
    """Replay line strokes (rows of `sample`, with their `impacts`) in lock
    step; row i's EventResult equals simulate_event(sample[i], impacts[i],
    config), close time bit for bit.

    One network per structure is built and assembled, a template whose
    values each stroke's batch row replaces (`_replay_batches`); no
    per-stroke network is built.  A stroke whose voltages are not finite
    on some step is failed alone; every stroke of a structure whose
    template is singular is failed."""
    results = [EventResult(failed=True)] * len(sample)
    for rows, template, held, columns in _replay_batches(sample, impacts,
                                                         config):
        if template is None:
            continue
        batch = EmtBatch(template, held)
        batch.extend(columns)
        for i, step, ok in zip(rows.tolist(),
                               *(a.tolist() for a in batch.run(config.t_end_s))):
            results[i] = (EventResult(flashover=True, close_time_s=step * config.dt_s)
                          if ok and step else EventResult(failed=not ok))
    return results


class StrokeCounts(NamedTuple):
    """Partition of one batch of strokes by termination and outcome."""

    total: int
    ground: int
    line: int
    shield: int
    phase: int
    tower: int
    span: int
    shield_tower: int
    shield_span: int
    phase_tower: int
    phase_span: int
    flashovers: int
    flashover_tower: int
    flashover_span: int
    failures: int


class FlashoverRate(NamedTuple):
    """Exposure implied by a stroke batch and the resulting line rate."""

    years: int
    per_100km_year: float


def exposure_years(n_strokes: int, l1_km: float, l2_km: float,
                   ground_flash_density: float) -> int:
    """Years of exposure a batch of strokes over an l1 x l2 km strip
    represents at the given ground flash density, rounded to whole years."""
    return round(n_strokes / (l1_km * l2_km * ground_flash_density))


def flashover_rate(n_strokes: int, n_flashovers: int, l1_km: float,
                   l2_km: float, ground_flash_density: float) -> FlashoverRate:
    """Scale batch counts to flashovers per 100 km-year.

    The batch covers an l1 x l2 km strip; with the given ground flash
    density it represents `exposure_years` of exposure over a line of
    length l2, which must round to at least one year.
    """
    if n_strokes <= 0:
        raise ValueError("need a positive stroke count")
    if n_flashovers < 0 or n_flashovers > n_strokes:
        raise ValueError("flashover count out of range")
    if l1_km <= 0 or l2_km <= 0 or ground_flash_density <= 0:
        raise ValueError("strip dimensions and flash density must be positive")
    years = exposure_years(n_strokes, l1_km, l2_km, ground_flash_density)
    if years == 0:
        raise ValueError(f"n_strokes={n_strokes} rounds to 0 years of "
                         f"exposure; need more strokes")
    rate = (n_flashovers / years) * (100.0 / l2_km)
    return FlashoverRate(years=years, per_100km_year=rate)


class StudyResult(NamedTuple):
    config: StudyConfig
    sample: StrokeSample
    impacts: Impacts
    flashover: np.ndarray      # bool per stroke
    failed: np.ndarray         # bool per stroke
    counts: StrokeCounts
    rate: FlashoverRate


def _count(impacts: Impacts, flash: np.ndarray,
           failed: np.ndarray) -> StrokeCounts:
    def count(mask):
        return int(np.count_nonzero(mask))

    line, shield = impacts.on_line, impacts.wire == SHIELD
    phase = line & ~shield
    tower, span = impacts.place == TOWER, impacts.place == SPAN
    return StrokeCounts(total=impacts.wire.size, ground=count(~line),
                        line=count(line), shield=count(shield),
                        phase=count(phase), tower=count(tower),
                        span=count(span), shield_tower=count(shield & tower),
                        shield_span=count(shield & span),
                        phase_tower=count(phase & tower),
                        phase_span=count(phase & span),
                        flashovers=count(flash),
                        flashover_tower=count(flash & tower),
                        flashover_span=count(flash & span),
                        failures=count(failed))


def run_study(config: StudyConfig = StudyConfig()) -> StudyResult:
    """Sample strokes, attribute them, and replay every line stroke in
    lock-step batches (`replay_strokes`); the results depend only on the
    configuration and seed."""
    strip = (config.strip_length_km, config.geometry.line_length_m / 1e3,
             config.ground_flash_density)
    flashover_rate(config.n, 0, *strip)  # under one year of exposure fails here
    sample = sample_strokes(config.n, config.seed, config.geometry)
    impacts = classify_impact(sample.x_m, sample.y_m, sample.peak_ka,
                              config.geometry)
    line = impacts.on_line
    results = replay_strokes(sample[line], impacts[line], config)
    flash = np.zeros(config.n, dtype=bool)
    failed = np.zeros(config.n, dtype=bool)
    flash[line] = [res.flashover for res in results]
    failed[line] = [res.failed for res in results]
    counts = _count(impacts, flash, failed)
    rate = flashover_rate(config.n, counts.flashovers, *strip)
    return StudyResult(config=config, sample=sample, impacts=impacts,
                       flashover=flash, failed=failed, counts=counts,
                       rate=rate)


def write_events_csv(path, result: StudyResult):
    """One row per stroke: waveshape, termination, and the verdict."""
    s, im = result.sample, result.impacts
    write_columns(path, EVENTS_HEADER, [
        s.angle_deg, s.peak_ka, s.front_us, s.half_us,
        [WIRE_LABELS[w] for w in im.wire.tolist()],
        [PLACE_LABELS[p] for p in im.place.tolist()],
        result.flashover])


def summary_lines(result: StudyResult) -> list:
    """Counts, flashovers, and the line rate as 'label = value' text."""
    c = result.counts
    km = result.config.geometry.line_length_m / 1e3
    lines = [
        f"Number of strokes to ground = {c.ground}",
        f"Number of strokes to the line = {c.line}",
        f"Number of strokes to towers = {c.tower}",
        f"Number of strokes to spans = {c.span}",
        f"Number of strokes to shield wires = {c.shield}",
        f"Number of strokes to shield wires at towers = {c.shield_tower}",
        f"Number of strokes to shield wires at spans = {c.shield_span}",
        f"Number of strokes to conductors = {c.phase}",
        f"Number of strokes to conductors at towers = {c.phase_tower}",
        f"Number of strokes to conductors at spans = {c.phase_span}",
        "",
        f"Number of flashovers = {c.flashovers}",
        f"Number of flashovers caused by strokes to spans = {c.flashover_span}",
        f"Number of flashovers caused by strokes to towers = {c.flashover_tower}",
        "",
        f"Number of random generated strokes = {c.total}",
        f"Length of the simulated test line = {km:.3f} (km)",
        f"Stroke density = {result.config.ground_flash_density:g}"
        " (strokes per km2 and year)",
        f"Number of total flashovers = {c.flashovers}",
        f"Number of simulated years = {result.rate.years}",
        f"Flashover rate = {result.rate.per_100km_year:.2f}"
        " (flashovers per 100 km and year)",
    ]
    if c.failures:
        lines += ["", f"Number of failed surge replays = {c.failures}"]
    return lines
