import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridstudies import emt, lightning
from gridstudies.emt import EmtNetwork, EmtSimulation
from gridstudies.lightning import (
    DEFAULT_GEOMETRY,
    EVENTS_HEADER,
    FOOTING_RANGE_OHM,
    FRONT_MEDIAN_US,
    GROUND,
    HALF_MEDIAN_US,
    PEAK_MEDIAN_KA,
    PEAK_SIGMA_LN,
    PHASE_A,
    PHASE_C,
    PLACE_LABELS,
    SHIELD,
    SPAN,
    TOWER,
    WIRE_LABELS,
    CriticalCurrents,
    Impacts,
    LineGeometry,
    StrokeSample,
    StudyConfig,
    build_strike_network,
    calibrate_geometry,
    classify_impact,
    critical_currents,
    exposure_width,
    exposure_years,
    flashover_rate,
    run_study,
    sample_strokes,
    simulate_event,
    striking_distances,
    summary_lines,
    write_events_csv,
)
from gridstudies.record import fields, replace
from gridstudies.report import write_text


# ---------------------------------------------------------------- sampling

class TestSampling:

    def test_medians_match_targets(self):
        s = sample_strokes(50_000, seed=3)
        assert abs(np.median(s.peak_ka) / PEAK_MEDIAN_KA - 1) < 0.03
        assert abs(np.median(s.front_us) / FRONT_MEDIAN_US - 1) < 0.03
        assert abs(np.median(s.half_us) / HALF_MEDIAN_US - 1) < 0.03

    def test_peak_distribution_shape(self):
        # one-sample KS statistic against the target lognormal
        s = sample_strokes(50_000, seed=3)
        data = np.sort(s.peak_ka)
        z = (np.log(data) - math.log(PEAK_MEDIAN_KA)) / PEAK_SIGMA_LN
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        n = data.size
        hi = np.arange(1, n + 1) / n - cdf
        lo = cdf - np.arange(0, n) / n
        assert max(hi.max(), lo.max()) < 0.01

    def test_bounds(self):
        geom = DEFAULT_GEOMETRY
        s = sample_strokes(5_000, seed=9)
        assert s.x_m.min() >= 0 and s.x_m.max() <= geom.line_length_m
        assert abs(s.y_m).max() <= geom.strip_half_width_m
        assert s.angle_deg.min() >= 0 and s.angle_deg.max() < 360
        assert s.footing_ohm.min() >= FOOTING_RANGE_OHM[0]
        assert s.footing_ohm.max() <= FOOTING_RANGE_OHM[1]
        assert s.strength_kv.min() > 0
        assert (s.peak_ka > 0).all()
        assert (s.front_us > 0).all() and (s.half_us > 0).all()

    def test_deterministic_per_seed(self):
        a = sample_strokes(400, seed=5)
        b = sample_strokes(400, seed=5)
        c = sample_strokes(400, seed=6)
        assert np.array_equal(a.peak_ka, b.peak_ka)
        assert np.array_equal(a.strength_kv, b.strength_kv)
        assert not np.array_equal(a.peak_ka, c.peak_ka)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_strokes(0, seed=1)

    def test_event_scalar_view(self):
        s = sample_strokes(10, seed=2)
        ev = s[3]
        assert ev.peak_ka == float(s.peak_ka[3])
        assert ev.footing_ohm == float(s.footing_ohm[3])


# ------------------------------------------------------ geometry and radii

class TestGeometry:

    def test_striking_distances_at_one_ka(self):
        rc, rg = striking_distances(1.0)
        assert rc == 7.1 and rg == 6.4

    def test_striking_distance_scaling(self):
        rc1, rg1 = striking_distances(10.0)
        rc2, rg2 = striking_distances(40.0)
        assert rc2 / rc1 == pytest.approx(4.0 ** 0.75, rel=1e-12)
        assert rc1 / rg1 == pytest.approx(7.1 / 6.4, rel=1e-12)

    def test_striking_distance_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            striking_distances(0.0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="above the phases"):
            LineGeometry(shield_height_m=6.0)
        with pytest.raises(ValueError, match="midspan"):
            LineGeometry(shield_sag_m=8.0)
        with pytest.raises(ValueError, match="two towers"):
            LineGeometry(tower_count=1)

    def test_line_length(self):
        geom = LineGeometry()
        assert geom.line_length_m == pytest.approx(4 * 321.8688)
        assert geom.span_count == 4


# ------------------------------------------------------------ impact model

def _oracle_capture_height(y, wire_y, wire_h, radius):
    """Upper crossing of the attraction circle, found by bisection on the
    in-circle predicate instead of the closed form."""
    def inside(h):
        return (y - wire_y) ** 2 + (h - wire_h) ** 2 <= radius * radius
    if not inside(wire_h):
        return -math.inf
    lo, hi = wire_h, wire_h + radius
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _oracle_classify(x, y, peak, geom):
    rc, rg = 7.1 * peak ** 0.75, 6.4 * peak ** 0.75
    shield = max(_oracle_capture_height(y, wy, wh, rc)
                 for wy, wh in geom.shield_positions())
    lefts = geom.outer_phase_positions()
    pl = _oracle_capture_height(y, lefts[0][0], lefts[0][1], rc)
    pr = _oracle_capture_height(y, lefts[1][0], lefts[1][1], rc)
    phase = max(pl, pr)
    if max(shield, phase) <= rg:
        return ("ground", "", -1, "")
    target = "phase" if phase > shield else "shield"
    towers = [k * geom.span_m for k in range(geom.tower_count)]
    dists = [abs(t - x) for t in towers]
    nearest = dists.index(min(dists))
    if peak > 64.0:
        band = geom.span_m / 4
    elif peak >= 25.0:
        band = geom.span_m / 8
    else:
        band = geom.span_m / 16
    if dists[nearest] <= band:
        place, index = "tower", nearest
    else:
        place = "span"
        index = min(int(x // geom.span_m), geom.span_count - 1)
    side = ("a" if pl >= pr else "c") if target == "phase" else ""
    return (target, place, index, side)


def _decode(im):
    """One stroke's impact codes in the oracle's (target, place, index,
    phase) form."""
    wire, place, index = int(im.wire), int(im.place), int(im.index)
    return (("ground", "shield", "phase", "phase")[wire],
            ("", "tower", "span")[place], index, ("", "", "a", "c")[wire])


class TestClassification:

    def test_far_stroke_lands_on_ground(self):
        im = classify_impact(100.0, 499.0, 5.0)
        assert _decode(im) == ("ground", "", -1, "") and not im.on_line
        assert WIRE_LABELS[im.wire] == "Ground" and PLACE_LABELS[im.place] == ""

    def test_center_stroke_lands_on_shield(self):
        im = classify_impact(0.0, 0.0, 40.0)
        assert im.wire == SHIELD and im.place == TOWER and im.index == 0

    def test_low_current_reaches_phase_somewhere(self):
        geom = DEFAULT_GEOMETRY
        assert exposure_width(geom, 10.0) > 0
        hit = None
        for y in np.linspace(0, 40, 2001):
            im = classify_impact(160.0, float(y), 10.0, geom)
            if _decode(im)[0] == "phase":
                hit = im
                break
        assert hit is not None
        assert hit.wire == PHASE_C and WIRE_LABELS[hit.wire] == "Phase C"

    def test_tower_band_widens_with_current(self):
        geom = DEFAULT_GEOMETRY
        x = geom.span_m / 5.0     # between span/8 and span/4 from tower 0
        near = classify_impact(x, 0.0, 80.0, geom)
        far = classify_impact(x, 0.0, 40.0, geom)
        assert near.place == TOWER and near.index == 0
        assert far.place == SPAN and far.index == 0

    def test_span_index_clamped_at_line_end(self):
        geom = DEFAULT_GEOMETRY
        im = classify_impact(3.5 * geom.span_m, 0.0, 30.0, geom)
        assert im.place == SPAN and im.index == 3

    def test_partition_is_total(self):
        s = sample_strokes(4_000, seed=21)
        kinds = {"ground": 0, "shield": 0, "phase": 0}
        impacts = classify_impact(s.x_m, s.y_m, s.peak_ka)
        for i in range(len(s)):
            im = impacts[i]
            kinds[_decode(im)[0]] += 1
            if im.on_line:
                assert im.place in (TOWER, SPAN) and im.index >= 0
        assert sum(kinds.values()) == 4_000
        assert kinds["ground"] > kinds["shield"] > kinds["phase"]

    def test_against_bisection_oracle(self):
        # independent route: capture heights from root-finding on the
        # circle-membership predicate, competition re-coded from scratch
        geom = DEFAULT_GEOMETRY
        s = sample_strokes(10_000, seed=77)
        impacts = classify_impact(s.x_m, s.y_m, s.peak_ka, geom)
        for i in range(len(s)):
            got = _decode(impacts[i])
            want = _oracle_classify(float(s.x_m[i]), float(s.y_m[i]),
                                    float(s.peak_ka[i]), geom)
            assert got == want


def _near(centers, offsets):
    """Values a hair away from (or exactly at) one of the centers."""
    return st.builds(lambda c, e: c + e, st.sampled_from(centers),
                     st.sampled_from([0.0, 1e-9, -1e-9, 1e-6, -1e-6]) | offsets)


_GEOM = DEFAULT_GEOMETRY
_BAND_EDGES = sorted({min(max(k * _GEOM.span_m + sign * _GEOM.span_m / d, 0.0),
                          _GEOM.line_length_m)
                      for k in range(_GEOM.tower_count) for d in (4, 8, 16)
                      for sign in (-1, 1)})
_STROKES = st.tuples(
    st.floats(0.0, _GEOM.line_length_m)
    | _near(_BAND_EDGES, st.floats(-0.5, 0.5)).map(
        lambda x: min(max(x, 0.0), _GEOM.line_length_m)),
    st.floats(-_GEOM.strip_half_width_m, _GEOM.strip_half_width_m)
    | st.floats(-40.0, 40.0),
    st.floats(1.0, 300.0) | _near([25.0, 64.0], st.floats(-0.01, 0.01)),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_STROKES, min_size=1, max_size=30))
def test_array_classification_matches_scalar_and_oracle(strokes):
    x, y, peak = (np.array(column) for column in zip(*strokes))
    batch = classify_impact(x, y, peak, _GEOM)
    assert batch.wire.shape == batch.place.shape == batch.index.shape == x.shape
    for i, (xi, yi, pi) in enumerate(strokes):
        one = classify_impact(xi, yi, pi, _GEOM)
        assert one.wire.shape == ()
        assert _decode(batch[i]) == _decode(one) == _oracle_classify(xi, yi, pi, _GEOM)


# -------------------------------------------------------- critical currents

class TestCriticalCurrents:

    def test_values_near_calibration_targets(self):
        cc = critical_currents()
        assert cc.tower_ka == pytest.approx(17.62, rel=0.05)
        assert cc.span_ka == pytest.approx(64.15, rel=0.05)
        assert cc.tower_ka < cc.span_ka

    def test_bisection_against_fine_scan(self):
        # scan the 0.1 kA window around each result in 0.001 kA steps; the
        # sign change must bracket the bisection answer within 0.02 kA
        cc = critical_currents()
        for value, midspan in ((cc.tower_ka, False), (cc.span_ka, True)):
            currents = np.arange(value - 0.05, value + 0.05, 0.001)
            widths = [exposure_width(DEFAULT_GEOMETRY, float(i), midspan)
                      for i in currents]
            exposed = [i for i, w in zip(currents, widths) if w > 0]
            shielded = [i for i, w in zip(currents, widths) if w == 0]
            assert exposed and shielded
            crossing = 0.5 * (max(exposed) + min(shielded))
            assert abs(crossing - value) < 0.02

    def test_exposure_closes_above_critical(self):
        cc = critical_currents()
        assert exposure_width(DEFAULT_GEOMETRY, cc.tower_ka + 0.5) == 0.0
        assert exposure_width(DEFAULT_GEOMETRY, cc.tower_ka - 0.5) > 0.0
        assert exposure_width(DEFAULT_GEOMETRY, cc.span_ka + 0.5, True) == 0.0
        assert exposure_width(DEFAULT_GEOMETRY, cc.span_ka - 0.5, True) > 0.0

    def test_shield_placement_moves_the_limit(self):
        # the shields sit inboard of the outer phases: pushing them outward
        # covers the phases better and lowers the limit, pulling them to
        # the center leaves the phases exposed to bigger strokes
        assert critical_currents(replace(DEFAULT_GEOMETRY,
                                         shield_y_m=3.0)).tower_ka < 17.61
        assert critical_currents(replace(DEFAULT_GEOMETRY,
                                         shield_y_m=1.0)).tower_ka > 17.63

    def test_deeper_shield_sag_exposes_midspan(self):
        tight = replace(DEFAULT_GEOMETRY, shield_sag_m=3.5)
        assert critical_currents(tight).span_ka < 64.0

    def test_unshielded_line_has_infinite_limit(self):
        naked = replace(DEFAULT_GEOMETRY, shield_y_m=25.0, shield_height_m=7.5,
                        shield_sag_m=3.5)
        assert critical_currents(naked).tower_ka == math.inf

    def test_calibration_recovers_defaults(self):
        start = replace(DEFAULT_GEOMETRY, shield_y_m=3.0, shield_sag_m=2.0)
        tuned = calibrate_geometry(start)
        assert tuned.shield_y_m == pytest.approx(DEFAULT_GEOMETRY.shield_y_m,
                                                 abs=2e-3)
        assert tuned.shield_sag_m == pytest.approx(DEFAULT_GEOMETRY.shield_sag_m,
                                                   abs=2e-3)
        cc = critical_currents(tuned)
        assert cc.tower_ka == pytest.approx(17.62, abs=0.05)
        assert cc.span_ka == pytest.approx(64.15, abs=0.05)


# ------------------------------------------------------------ surge replay

def _event(**kw):
    base = dict(x_m=0.0, y_m=0.0, angle_deg=30.0, peak_ka=34.0, front_us=2.0,
                half_us=77.5, footing_ohm=55.0, strength_kv=977.5)
    base.update(kw)
    return StrokeSample(**{k: np.array([v]) for k, v in base.items()})[0]


class TestSurgeReplay:

    def test_network_rests_at_power_frequency_voltages(self):
        config = StudyConfig(n=1)
        event = _event(peak_ka=1e-9)
        net = build_strike_network(event, Impacts(SHIELD, TOWER, 2), config)
        sim = net.assemble(config.dt_s)
        res = sim.run(5e-6, record=("pa4", "pb4", "pc4", "s4"))
        v = math.sqrt(2.0) * 230e3 / math.sqrt(3.0)
        for p, shift in (("pa4", 0.0), ("pb4", -120.0), ("pc4", 120.0)):
            want = v * math.cos(math.radians(30.0 + shift))
            trace = res.node_traces[p]
            assert np.max(np.abs(trace - want)) < 1e-3
        assert np.max(np.abs(res.node_traces["s4"])) < 1e-3
        assert len(net.flashover_switches) == 3 * config.geometry.tower_count

    def test_ground_impact_rejected(self):
        with pytest.raises(ValueError):
            build_strike_network(_event(), Impacts(GROUND, 0, -1), StudyConfig(n=1))

    def test_direct_phase_stroke_flashes(self):
        config = StudyConfig(n=1)
        res = simulate_event(_event(peak_ka=40.0),
                             Impacts(PHASE_A, SPAN, 1), config)
        assert res.flashover and not res.failed
        assert 0 < res.close_time_s < config.t_end_s

    def test_strong_insulation_never_flashes(self):
        config = StudyConfig(n=1)
        res = simulate_event(_event(strength_kv=1e5),
                             Impacts(SHIELD, TOWER, 2), config)
        assert not res.flashover and not res.failed
        assert res.close_time_s is None

    def test_stress_at_close_reaches_strength(self):
        config = StudyConfig(n=1)
        event = _event(peak_ka=120.0, strength_kv=500.0)
        net = build_strike_network(event, Impacts(SHIELD, TOWER, 2), config)
        sim = net.assemble(config.dt_s)
        res = sim.run(config.t_end_s)
        assert res.flashovers
        for k, _close_time, stress in res.flashovers:
            assert stress >= net.flashover_switches[k][2]

    def test_assembled_network_replays_identically(self):
        # running a network leaves it untouched: a second run of the same
        # EmtNetwork closes the same switch at the same time
        config = StudyConfig(n=1)
        net = build_strike_network(_event(peak_ka=120.0, strength_kv=500.0),
                                   Impacts(SHIELD, TOWER, 2), config)
        first, second = (net.assemble(config.dt_s).run(
            config.t_end_s, record=("s4", "pa4", "pb4")) for _ in range(2))
        assert first.flashovers and first.flashovers == second.flashovers
        assert np.array_equal(first.times, second.times)
        for name, trace in first.node_traces.items():
            assert np.array_equal(trace, second.node_traces[name])

    @pytest.mark.parametrize("stroke, impact, closes", [
        (dict(peak_ka=120.0, strength_kv=500.0), Impacts(SHIELD, TOWER, 2),
         [(6, 31)]),
        (dict(peak_ka=40.0), Impacts(PHASE_A, SPAN, 1), [(3, 79), (6, 79)]),
        (dict(peak_ka=100.0, footing_ohm=95.0), Impacts(SHIELD, TOWER, 2),
         [(6, 81)]),
    ], ids=["shield-tower", "phase-span", "weak-footing"])
    def test_reference_replays(self, stroke, impact, closes):
        # (switch, close step) are pinned and the run ends at that step; the
        # stress floats depend on BLAS, so they are only checked against the
        # strengths
        config = StudyConfig(n=1)
        net = build_strike_network(_event(**stroke), impact, config)
        res = net.assemble(config.dt_s).run(config.t_end_s)
        assert [(k, round(t / config.dt_s))
                for k, t, _stress in res.flashovers] == closes
        assert len(res.times) == closes[0][1] + 1
        for k, _t, stress in res.flashovers:
            assert stress >= net.flashover_switches[k][2]

    def test_weak_footing_flashes_strong_footing_holds(self):
        config = StudyConfig(n=1)
        hot = simulate_event(_event(peak_ka=100.0, footing_ohm=95.0),
                             Impacts(SHIELD, TOWER, 2), config)
        cold = simulate_event(_event(peak_ka=100.0, footing_ohm=10.0),
                              Impacts(SHIELD, TOWER, 2), config)
        assert hot.flashover and not cold.flashover

    def test_solver_failure_is_reported_not_raised(self, monkeypatch):
        # a NaN surge leaves non-finite voltages, which the solver reports
        res = simulate_event(_event(peak_ka=math.nan),
                             Impacts(SHIELD, TOWER, 2), StudyConfig(n=1))
        assert res.failed and not res.flashover

        # a pair of nodes with no path to ground: G is exactly singular
        def floating(*args):
            net = EmtNetwork()
            net.add_current_source("a", 1.0)
            net.add_resistor("a", "b", 50.0)
            return net

        monkeypatch.setattr(lightning, "build_strike_network", floating)
        res = simulate_event(_event(), Impacts(SHIELD, TOWER, 2),
                             StudyConfig(n=1))
        assert res.failed and not res.flashover

    def test_only_numerical_failures_are_reported(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        def bug(*args, **kwargs):
            raise TypeError("programming error")

        monkeypatch.setattr(EmtSimulation, "run", singular)
        res = simulate_event(_event(), Impacts(SHIELD, TOWER, 2),
                             StudyConfig(n=1))
        assert res.failed and not res.flashover
        monkeypatch.setattr(lightning, "build_strike_network", bug)
        with pytest.raises(TypeError, match="programming error"):
            simulate_event(_event(), Impacts(SHIELD, TOWER, 2), StudyConfig(n=1))

    def test_midspan_impact_builds_split_span(self):
        config = StudyConfig(n=1)
        net = build_strike_network(_event(), Impacts(SHIELD, SPAN, 1), config)
        names = set(net._names)
        assert "mid" in names

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dt"):
            StudyConfig(dt_s=100e-9)
        with pytest.raises(ValueError, match="positive"):
            StudyConfig(n=0)

    @pytest.mark.parametrize("name, bad", [
        ("system_kv", math.nan), ("system_kv", -230.0),
        ("shield_surge_ohms", math.inf), ("shield_surge_ohms", 0.0),
        ("phase_surge_ohms", math.nan), ("phase_surge_ohms", -1.0),
        ("tower_base_radius_m", -1.0), ("tower_base_radius_m", math.nan),
        ("tower_base_radius_m", 20.0),  # tower surge impedance below 0
        ("tower_speed_factor", math.nan), ("tower_speed_factor", 1.5),
        ("dt_s", math.nan), ("dt_s", -20e-9),
        ("t_end_s", math.nan), ("t_end_s", math.inf),
        ("ground_flash_density", math.nan), ("ground_flash_density", 0.0),
        ("strip_length_km", math.inf), ("strip_length_km", -1.0)])
    def test_config_names_a_bad_field_before_any_sampling(self, name, bad,
                                                           monkeypatch):
        def sampled(*args):
            raise AssertionError("strokes were sampled")

        monkeypatch.setattr(lightning, "sample_strokes", sampled)
        with pytest.raises(ValueError, match=name):
            lightning.run_study(StudyConfig(n=300, **{name: bad}))

    @pytest.mark.parametrize("name", [f.name for f in fields(LineGeometry)
                                      if f.type == "float"])
    def test_geometry_names_a_non_finite_field(self, name):
        with pytest.raises(ValueError, match=name):
            LineGeometry(**{name: math.nan})

    def test_tower_surge_impedance_from_base_radius(self):
        config = StudyConfig(n=1, tower_base_radius_m=8.0)
        h = config.geometry.shield_height_m
        want = 60.0 * (math.log(math.sqrt(2.0) * 2.0 * h / 8.0) - 1.0)
        assert config.tower_surge_ohms == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------- lock-step replay

def _verdict(res):
    close = None if res.close_time_s is None else res.close_time_s.hex()
    return res.flashover, close, res.failed


def _rows(strokes):
    """A StrokeSample and Impacts from (stroke fields, impact codes) pairs."""
    sample = StrokeSample(**{k: np.array([s[k] for s, _ in strokes])
                             for k in strokes[0][0]})
    wire, place, index = (np.array(c) for c in zip(*(i for _, i in strokes)))
    return sample, Impacts(wire, place, index)


def _peak_stress(stroke, impact, config):
    """Largest insulator stress over the window when nothing flashes."""
    net = build_strike_network(replace(stroke, strength_kv=1e12), impact, config)
    ends = [(net.node_name(a), net.node_name(b))
            for a, b, _ in net.flashover_switches]
    res = net.assemble(config.dt_s).run(
        config.t_end_s, record=tuple({n for pair in ends for n in pair}))
    tr = res.node_traces
    return max(np.abs(tr[a] - tr[b]).max() for a, b in ends)


_IMPACTS = st.one_of(
    st.tuples(st.sampled_from([SHIELD, PHASE_A, PHASE_C]), st.just(TOWER),
              st.integers(0, DEFAULT_GEOMETRY.tower_count - 1)),
    st.tuples(st.sampled_from([SHIELD, PHASE_A, PHASE_C]), st.just(SPAN),
              st.integers(0, DEFAULT_GEOMETRY.span_count - 1)))
_STROKE_FIELDS = st.fixed_dictionaries(dict(
    x_m=st.just(0.0), y_m=st.just(0.0), angle_deg=st.floats(0.0, 360.0),
    peak_ka=st.floats(3.0, 200.0), front_us=st.floats(0.5, 10.0),
    half_us=st.floats(20.0, 200.0), footing_ohm=st.floats(10.0, 100.0),
    strength_kv=st.floats(300.0, 1200.0)))
# None keeps the drawn strength; k puts it k parts in 1e15 off the peak stress
_NEAR_PEAK = st.none() | st.integers(-3, 3)
_SHORT = StudyConfig(n=1, t_end_s=4e-6)
# every impact code once, so each structure is replayed whatever is drawn
_EVERY_CODE = [
    (dict(x_m=0.0, y_m=0.0, angle_deg=13.0 * k, peak_ka=8.0 + 6.0 * k,
          front_us=1.0 + 0.2 * k, half_us=50.0 + 3.0 * k,
          footing_ohm=15.0 + 3.0 * k, strength_kv=900.0),
     codes, None if k % 8 == 7 else k % 8 - 3)
    for k, codes in enumerate(
        [(w, TOWER, i) for w in (SHIELD, PHASE_A, PHASE_C)
         for i in range(DEFAULT_GEOMETRY.tower_count)]
        + [(w, SPAN, i) for w in (SHIELD, PHASE_A, PHASE_C)
           for i in range(DEFAULT_GEOMETRY.span_count)])]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.lists(st.tuples(_STROKE_FIELDS, _IMPACTS, _NEAR_PEAK),
                min_size=1, max_size=6))
@example(_EVERY_CODE)
def test_lockstep_replay_matches_simulate_event(strokes):
    rows = []
    for fields_, codes, near in strokes:
        if near is not None:
            stroke, impact = _rows([(fields_, codes)])
            peak = _peak_stress(stroke[0], impact[0], _SHORT)
            fields_ = dict(fields_, strength_kv=peak / 1e3 * (1 + near * 1e-15))
        rows.append((fields_, codes))
    sample, impacts = _rows(rows)
    got = lightning.replay_strokes(sample, impacts, _SHORT)
    want = [simulate_event(sample[i], impacts[i], _SHORT)
            for i in range(len(sample))]
    assert [_verdict(r) for r in got] == [_verdict(r) for r in want]


def test_lockstep_replay_matches_simulate_event_on_a_study():
    config = StudyConfig(n=300, seed=9)
    sample = sample_strokes(config.n, config.seed, config.geometry)
    impacts = classify_impact(sample.x_m, sample.y_m, sample.peak_ka,
                              config.geometry)
    line = impacts.on_line
    sample, impacts = sample[line], impacts[line]
    got = lightning.replay_strokes(sample, impacts, config)
    want = [simulate_event(sample[i], impacts[i], config)
            for i in range(len(sample))]
    assert len(got) == 39 and sum(r.flashover for r in want) == 9
    assert [_verdict(r) for r in got] == [_verdict(r) for r in want]


def test_nan_row_fails_alone_in_its_batch():
    config = StudyConfig(n=1)
    base = dict(x_m=0.0, y_m=0.0, front_us=2.0, half_us=77.5,
                footing_ohm=55.0, strength_kv=977.5)
    peaks = [120.0, 20.0, math.nan, 100.0, 60.0]
    strokes = [(dict(base, peak_ka=p, angle_deg=40.0 * k), (SHIELD, TOWER, k))
               for k, p in enumerate(peaks)]
    sample, impacts = _rows(strokes)
    got = lightning.replay_strokes(sample, impacts, config)
    keep = [k for k, p in enumerate(peaks) if not math.isnan(p)]
    alone = lightning.replay_strokes(*_rows([strokes[k] for k in keep]), config)
    assert got[2].failed and not got[2].flashover
    assert [_verdict(got[k]) for k in keep] == [_verdict(r) for r in alone]
    assert not any(r.failed for r in alone) and any(r.flashover for r in alone)


@pytest.mark.parametrize("place", [TOWER, SPAN])
@pytest.mark.parametrize("wire", [SHIELD, PHASE_A, PHASE_C])
def test_every_strike_network_batches_with_a_diagonal_g(wire, place):
    # every lumped element goes to ground and a line stamps 1/Zc from each
    # end to ground, so G and its inverse are diagonal
    config = StudyConfig(n=1)
    count = (DEFAULT_GEOMETRY.tower_count if place == TOWER
             else DEFAULT_GEOMETRY.span_count)
    fields_ = dict(x_m=0.0, y_m=0.0, angle_deg=30.0, peak_ka=30.0,
                   front_us=2.0, half_us=50.0, footing_ohm=20.0,
                   strength_kv=900.0)
    for index in range(count):
        sample, impacts = _rows([(fields_, (wire, place, index))])
        sim = build_strike_network(sample[0], impacts[0],
                                   config).assemble(config.dt_s)
        emt._batch_structure(sim)  # raises for a network a batch refuses
        ginv = sim._ginv
        assert np.count_nonzero(ginv - np.diag(np.diag(ginv))) == 0


def test_a_structure_over_replay_batch_runs_as_simulate_event(monkeypatch):
    # 39 tower strokes (one structure) between span strokes of two
    # structures and a NaN peak: one network is built per structure.  With
    # batches of at most 4 rows, each structure's strokes run per struck
    # wire as the fewest such batches, of sizes that differ by at most
    # one, holding every node off the struck conductor
    strokes = []
    for k in range(52):
        fields_ = dict(x_m=0.0, y_m=0.0, angle_deg=7.0 * k,
                       peak_ka=8.0 + 37.0 * k % 160.0, front_us=0.8 + 0.1 * (k % 9),
                       half_us=40.0 + k, footing_ohm=10.0 + 1.7 * k,
                       strength_kv=600.0 + 11.0 * k)
        if k == 21:
            fields_["peak_ka"] = math.nan
        codes = ((PHASE_A if k % 8 == 3 else SHIELD, SPAN, k % 4)
                 if k % 4 == 3 else ((SHIELD, PHASE_C)[k % 2], TOWER, k % 5))
        strokes.append((fields_, codes))
    sample, impacts = _rows(strokes)
    assert (impacts.place == TOWER).sum() == 39

    built, runs = [], []
    build, run = lightning.build_strike_network, emt.EmtBatch.run

    def counted_build(*args):
        built.append(None)
        return build(*args)

    def counted_run(self, t_end):
        end, finite = run(self, t_end)
        runs.append((len(end), self._held.size))
        return end, finite

    most = 4
    monkeypatch.setattr(lightning, "REPLAY_BATCH", most)
    monkeypatch.setattr(lightning, "build_strike_network", counted_build)
    monkeypatch.setattr(emt.EmtBatch, "run", counted_run)
    with np.errstate(invalid="ignore"):
        got = lightning.replay_strokes(sample, impacts, _SHORT)
    monkeypatch.undo()
    # structures from the most strokes to the fewest: tower (26 shield
    # strokes holding the 27 phase nodes, 13 phase C strokes holding the
    # other 36 non-ground nodes), phase A span 3 (7 strokes), shield span 3
    # (6 strokes)
    assert len(built) == 3
    assert runs == ([(4, 27)] * 5 + [(3, 27)] * 2 + [(4, 36)] + [(3, 36)] * 3
                    + [(4, 36), (3, 36), (3, 27), (3, 27)])
    # each group runs as the fewest batches of at most REPLAY_BATCH rows,
    # whose sizes differ by at most one
    for strokes, group in zip((26, 13, 7, 6), (runs[:7], runs[7:11],
                                               runs[11:13], runs[13:])):
        sizes = [size for size, _held in group]
        assert sum(sizes) == strokes and len(sizes) == -(-strokes // most)
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
    with np.errstate(invalid="ignore"):
        want = [simulate_event(sample[i], impacts[i], _SHORT)
                for i in range(len(sample))]
    assert [_verdict(r) for r in got] == [_verdict(r) for r in want]
    assert got[21].failed and sum(r.failed for r in got) == 1
    assert 0 < sum(r.flashover for r in got) < len(got) - 1


def _twice_every_code():
    """_EVERY_CODE's strokes, then the same codes with other values, so
    every structure has a row besides its template's; every third of those
    has a half time under its front time, which the ramp raises to 1.001
    times the front."""
    again = [(dict(f, angle_deg=301.0 - 11.0 * k, footing_ohm=97.0 - 2.9 * k,
                   strength_kv=650.0 + 17.0 * k, peak_ka=150.0 - 5.0 * k,
                   front_us=0.7 + 0.3 * k,
                   half_us=0.5 + 0.2 * k if k % 3 == 0 else 20.0 + 7.0 * k),
               codes)
             for k, (f, codes, _near) in enumerate(_EVERY_CODE)]
    return _rows([(f, codes) for f, codes, _near in _EVERY_CODE] + again)


def _study_line_strokes():
    config = StudyConfig(n=2000, seed=1)
    sample = sample_strokes(config.n, config.seed, config.geometry)
    impacts = classify_impact(sample.x_m, sample.y_m, sample.peak_ka,
                              config.geometry)
    return sample[impacts.on_line], impacts[impacts.on_line]


@pytest.mark.parametrize("strokes", [_twice_every_code, _study_line_strokes],
                         ids=["every-code", "study"])
def test_template_rows_match_each_assembled_network(strokes):
    # every array a template fills for a row is the one EmtBatch.add takes
    # from that stroke's own assembled network, bit for bit; a batch's
    # strokes strike one wire, and it holds every non-ground node off that
    # wire's conductor (the shield with its towers, or one phase, with the
    # split node of a struck span)
    config = StudyConfig(n=1)
    sample, impacts = strokes()
    seen = []
    batches = list(lightning._replay_batches(sample, impacts, config))
    for rows, template, held, got in batches:
        assert template is not None
        for col, i in enumerate(rows.tolist()):
            seen.append(i)
            sim = build_strike_network(sample[i], impacts[i],
                                       config).assemble(config.dt_s)
            want = emt.batch_rows(sim)
            for name, g, w in zip(want._fields, got, want):
                assert g[..., col].dtype == w[..., 0].dtype, name
                assert g[..., col].tobytes() == w[..., 0].tobytes(), (name, i)
        [wire] = set(impacts.wire[rows].tolist())
        struck = (("s", "g") if wire == SHIELD
                  else ("p" + lightning._PHASE_NAMES[wire],))
        names = [template.net.node_name(k) for k in range(got.inject.shape[0])]
        assert list(held) == [k for k, name in enumerate(names) if k and
                              name != "mid" and not name.startswith(struck)]
    assert sorted(seen) == list(range(len(sample)))
    # one template per structure: the tower one, one per wire and span
    codes = zip(impacts.wire.tolist(), impacts.place.tolist(),
                impacts.index.tolist())
    assert len({template for _rows, template, _held, _cols in batches}) == len(
        {TOWER if place == TOWER else (w, place, i) for w, place, i in codes})


def test_unstruck_conductors_stay_within_rounding_of_rest():
    # the premise of holding them: in the scalar run of the full network
    # (insulators too strong to flash), every conductor a stroke leaves
    # unstruck stays within 1e-9 of its rest voltage V, relative to |V|, a
    # band far below any insulator's margin; shield and towers rest at 0 V
    # exactly.  Some phase conductors do move by rounding
    cases = [(_rows([(f, codes)]), _SHORT) for f, codes, _near in _EVERY_CODE]
    sample, impacts = _study_line_strokes()
    cases += [((sample[i:i + 1], impacts[i:i + 1]), StudyConfig(n=2000, seed=1))
              for i in range(0, len(sample), 24)]

    def conductor(name):  # "s" for the shield and towers, else the phase
        return "s" if name[0] in "sg" else name[1]

    moved = 0
    for (strokes, codes), config in cases:
        stroke, wire = strokes[0], int(codes.wire[0])
        net = build_strike_network(replace(stroke, strength_kv=1e12), codes[0],
                                   config)
        volts = dict(zip("sabc", (0.0, *lightning._phase_volts(
            stroke.angle_deg, config))))
        struck = "s" if wire == SHIELD else lightning._PHASE_NAMES[wire]
        unstruck = [name for name in net._ids[1:]
                    if name != "mid" and conductor(name) != struck]
        res = net.assemble(config.dt_s).run(config.t_end_s, record=unstruck)
        assert not res.flashovers
        for name in unstruck:
            rest = volts[conductor(name)]
            drift = np.abs(res.node_traces[name] - rest).max()
            assert drift <= 1e-9 * abs(rest), (name, drift)
            moved += drift > 0
    assert moved > 0


def test_replay_memory_stays_within_what_its_batch_size_allows():
    # memory, not speed, sizes REPLAY_BATCH: at n=2000, seed 1 the traced
    # peak of the replay is 1.78 MB (1.88 MB while each chunk's switch gaps
    # outlived the next chunk's passes) with at most 64 rows a batch (the
    # tower group's 84 shield strokes run as two of 42), each row's ring
    # holding one outgoing wave per line end and step.  The bound is that
    # peak plus 5%, so a per-run array of 90 kB more fails it
    line = _study_line_strokes()
    tracemalloc.start()
    try:
        lightning.replay_strokes(*line, StudyConfig(n=2000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.87e6


def test_a_nan_phase_angle_fails_on_step_1_as_simulate_event():
    # NaN phase voltages: a shield stroke holds all three phases and a
    # phase stroke two of them.  Either row ends on step 1 as not finite,
    # where the scalar run fails, and the other rows replay as alone
    config = StudyConfig(n=1)
    base = dict(x_m=0.0, y_m=0.0, peak_ka=30.0, front_us=2.0, half_us=50.0,
                footing_ohm=20.0, strength_kv=900.0)
    sample, impacts = _rows([(dict(base, angle_deg=angle), (wire, TOWER, 2))
                             for wire in (SHIELD, PHASE_A)
                             for angle in (30.0, math.nan, 45.0)])
    ended = {}
    with np.errstate(invalid="ignore"):
        for rows, template, held, columns in lightning._replay_batches(
                sample, impacts, config):
            batch = emt.EmtBatch(template, held)
            batch.extend(columns)
            ended.update(zip(rows.tolist(), zip(*(a.tolist() for a in
                                                  batch.run(config.t_end_s)))))
        got = lightning.replay_strokes(sample, impacts, config)
        want = [simulate_event(sample[i], impacts[i], config) for i in range(6)]
    assert ended[1] == ended[4] == (1, False)
    assert [_verdict(r) for r in got] == [_verdict(r) for r in want]
    assert [r.failed for r in got] == [False, True, False] * 2


@pytest.mark.parametrize("bad", [
    dict(footing_ohm=0.0), dict(footing_ohm=math.nan),
    dict(footing_ohm=math.inf), dict(strength_kv=0.0),
    dict(strength_kv=1e306),  # 1e309 V overflows to inf
    dict(front_us=0.0), dict(front_us=math.nan),
    dict(half_us=math.nan), dict(angle_deg=math.inf)],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_bad_stroke_values_raise_before_any_batch_steps(bad, monkeypatch):
    # the stroke's own network build raises, with the same message, and no
    # batch has stepped; a row before it and one after it are well formed
    config = StudyConfig(n=1)
    strokes = [(dict(_EVERY_CODE[k][0], **(bad if k == 16 else {})),
                _EVERY_CODE[k][1]) for k in (0, 16, 20)]
    sample, impacts = _rows(strokes)
    with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
        build_strike_network(sample[1], impacts[1], config)

    def stepped(*args):
        raise AssertionError("a batch stepped")

    monkeypatch.setattr(emt.EmtBatch, "run", stepped)
    with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
        lightning.replay_strokes(sample, impacts, config)
    assert str(got.value) == str(want.value)


def test_infinite_peaks_in_a_batch_replay_as_simulate_event():
    # a 2 us front and 3 us half time take an infinite surge through NaN
    # back to 0 A at 4 us, inside the window; tower and span strokes
    config = StudyConfig(n=1)
    base = dict(x_m=0.0, y_m=0.0, front_us=2.0, half_us=3.0,
                footing_ohm=40.0, strength_kv=977.5)
    strokes = [(dict(base, peak_ka=p, angle_deg=50.0 * k), codes)
               for k, (p, codes) in enumerate([
                   (150.0, (SHIELD, TOWER, 1)), (math.inf, (SHIELD, TOWER, 2)),
                   (-math.inf, (SHIELD, TOWER, 3)),
                   (math.inf, (PHASE_A, SPAN, 2)), (30.0, (PHASE_A, SPAN, 2)),
                   (-math.inf, (PHASE_A, SPAN, 2))])]
    sample, impacts = _rows(strokes)
    with np.errstate(invalid="ignore"):
        got = lightning.replay_strokes(sample, impacts, config)
        want = [simulate_event(sample[i], impacts[i], config)
                for i in range(len(sample))]
    assert [_verdict(r) for r in got] == [_verdict(r) for r in want]
    finite = [0, 4]
    alone = lightning.replay_strokes(*_rows([strokes[k] for k in finite]),
                                     config)
    assert [_verdict(got[k]) for k in finite] == [_verdict(r) for r in alone]
    assert all(r.flashover for r in alone)


# -------------------------------------------------------------- full study

class TestStudy:

    def test_small_study_counts_partition(self):
        res = run_study(StudyConfig(n=600, seed=4))
        c = res.counts
        assert c.total == 600
        assert c.ground + c.line == c.total
        assert c.shield + c.phase == c.line
        assert c.tower + c.span == c.line
        assert c.shield_tower + c.shield_span == c.shield
        assert c.phase_tower + c.phase_span == c.phase
        assert c.flashover_tower + c.flashover_span == c.flashovers
        assert 0 < c.flashovers < c.line
        assert c.failures == 0
        assert not (res.flashover & ~res.impacts.on_line).any()

    def test_study_deterministic_per_seed(self):
        a = run_study(StudyConfig(n=300, seed=8))
        b = run_study(StudyConfig(n=300, seed=8))
        assert np.array_equal(a.flashover, b.flashover)
        assert a.counts == b.counts and a.rate == b.rate

    def test_zero_year_exposure_fails_before_any_replay(self, monkeypatch):
        config = StudyConfig(n=1, seed=4)  # its one stroke reaches the line
        s = sample_strokes(1, config.seed, config.geometry)
        assert classify_impact(s.x_m, s.y_m, s.peak_ka,
                               config.geometry).on_line.all()

        def replay(*args):
            raise AssertionError("a stroke was replayed")

        monkeypatch.setattr(lightning, "replay_strokes", replay)
        monkeypatch.setattr(EmtNetwork, "assemble", replay)
        with pytest.raises(ValueError, match="rounds to 0 years of exposure"):
            run_study(config)

    def test_singular_template_fails_only_its_structure(self, monkeypatch):
        # its 46 tower strokes fill more than one batch of 32
        monkeypatch.setattr(lightning, "REPLAY_BATCH", 32)
        config = StudyConfig(n=1000, seed=8)
        clean = run_study(config)
        build = lightning.build_strike_network

        def floating_towers(stroke, impact, config):
            if int(impact.place) != TOWER:
                return build(stroke, impact, config)
            net = EmtNetwork()  # two nodes with no path to ground
            net.add_current_source("a", 1.0)
            net.add_resistor("a", "b", 50.0)
            return net

        monkeypatch.setattr(lightning, "build_strike_network", floating_towers)
        res = run_study(config)
        bad = res.impacts.place == TOWER
        assert bad.sum() > lightning.REPLAY_BATCH  # more than one batch fails
        assert res.failed[bad].all() and not res.flashover[bad].any()
        assert not res.failed[~bad].any()
        assert np.array_equal(res.flashover[~bad], clean.flashover[~bad])
        assert clean.flashover[~bad].any() and clean.flashover[bad].any()
        assert res.counts.failures == bad.sum()

    def test_rate_uses_line_length(self):
        res = run_study(StudyConfig(n=400, seed=12))
        km = res.config.geometry.line_length_m / 1e3
        want = flashover_rate(400, res.counts.flashovers, 1.0, km, 2.2)
        assert res.rate == want


# ---------------------------------------------------------------- the rate

class TestFlashoverRate:

    def test_reference_batch(self):
        fr = flashover_rate(50_000, 1103, 1.0, 1.2874752, 2.2)
        assert fr.years == 17653
        assert fr.per_100km_year == pytest.approx(4.85, abs=0.005)

    def test_no_flashovers_no_rate(self):
        fr = flashover_rate(50_000, 0, 1.0, 1.2874752, 2.2)
        assert fr.per_100km_year == 0.0

    def test_denser_lightning_means_fewer_years(self):
        a = flashover_rate(50_000, 1103, 1.0, 1.2874752, 2.2)
        b = flashover_rate(50_000, 1103, 1.0, 1.2874752, 4.4)
        assert b.years == pytest.approx(a.years / 2, abs=1.0)
        assert b.per_100km_year == pytest.approx(2 * a.per_100km_year, rel=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            flashover_rate(0, 0, 1.0, 1.0, 2.2)
        with pytest.raises(ValueError):
            flashover_rate(100, 101, 1.0, 1.0, 2.2)
        with pytest.raises(ValueError):
            flashover_rate(100, 5, 1.0, 0.0, 2.2)

    def test_rejects_zero_year_exposure(self):
        # one stroke over the default strip is 0.35 years, which rounds to 0
        assert exposure_years(1, 1.0, 1.2874752, 2.2) == 0
        assert exposure_years(2, 1.0, 1.2874752, 2.2) == 1
        with pytest.raises(ValueError, match="exposure"):
            flashover_rate(1, 0, 1.0, 1.2874752, 2.2)
        assert flashover_rate(2, 1, 1.0, 1.2874752, 2.2).years == 1


# -------------------------------------------------------------------- files

class TestOutputs:

    def test_events_csv_round_trip(self, tmp_path):
        res = run_study(StudyConfig(n=250, seed=15))
        path = tmp_path / "events.csv"
        write_events_csv(path, res)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == EVENTS_HEADER
        assert len(rows) == 251
        wires = {"Ground", "Shield wire", "Phase A", "Phase C"}
        for i, row in enumerate(rows[1:]):
            assert row[4] in wires
            assert row[5] in ("", "Tower", "Span")
            assert (row[5] == "") == (row[4] == "Ground")
            assert row[6] in ("0", "1")
            assert float(row[1]) == res.sample.peak_ka[i]
        flags = [int(r[6]) for r in rows[1:]]
        assert sum(flags) == res.counts.flashovers

    def test_summary_file(self, tmp_path):
        res = run_study(StudyConfig(n=250, seed=15))
        path = tmp_path / "summary.txt"
        write_text(path, summary_lines(res))
        text = path.read_text()
        lines = text.strip().split("\n")
        assert len(lines) == len(summary_lines(res))
        c = res.counts
        assert f"Number of strokes to ground = {c.ground}" in text
        assert f"Number of strokes to the line = {c.line}" in text
        assert f"Number of strokes to shield wires at spans = {c.shield_span}" in text
        assert f"Number of flashovers = {c.flashovers}" in text
        assert f"Number of simulated years = {res.rate.years}" in text
        assert f"Flashover rate = {res.rate.per_100km_year:.2f}" in text
        # every populated line reads 'label = value'
        for line in lines:
            if line:
                assert " = " in line
