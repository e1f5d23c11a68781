"""Tests for the radial feeder solver and its three study modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import synthesize_load_table, write_load_table
from gridstudies import distsim as ds


def balance_error_kw(snap):
    """Source input minus loads, losses and local injections."""
    load = 3.0 * sum(s.real for s in snap.load_power_kva)
    return snap.source_kw - (load + snap.losses_kw - snap.pv_kw - snap.storage_kw)


def two_bus_feeder(kw=150.0, pf=0.92, z=0.8 + 1.1j):
    return ds.Feeder(ds.SourceSpec(), (ds.LineSegment("seg", z),),
                     (ds.LoadSpec("ld", kw, pf),))


# -- snapshot solver -----------------------------------------------------------

def test_no_load_keeps_source_voltage():
    f = ds.build_case("B1")
    snap = ds.solve_snapshot(f, ds.HourInputs((0.0, 0.0, 0.0)))
    assert all(v == f.source.volts_ln for v in snap.bus_voltage)
    assert snap.losses_kw == 0.0
    assert snap.source_kw == 0.0


def test_two_bus_closed_form_oracle():
    # quadratic in |V|^2 from E conj(V) = |V|^2 + Z conj(S), high-voltage root
    f = two_bus_feeder()
    snap = ds.solve_snapshot(f)
    e = f.source.volts_ln
    z = f.source.impedance_ohm + f.lines[0].impedance_ohm
    s = (150e3 + 1j * 150e3 * math.tan(math.acos(0.92))) / 3.0
    zs = z * np.conj(s)
    u = max(np.roots([1.0, 2.0 * zs.real - e * e,
                      zs.real ** 2 + zs.imag ** 2]).real)
    v_expect = np.conj((u + zs) / e)
    assert abs(snap.bus_voltage[1] - v_expect) / abs(v_expect) < 1e-8


def test_power_balance_identity():
    f = ds.build_case("B1")
    for inputs in (None,
                   ds.HourInputs((200.0, 150.0, 100.0), pv_kw=250.0),
                   ds.HourInputs((285.0, 240.0, 192.0), pv_kw=120.0,
                                 storage_kw=-60.0)):
        snap = ds.solve_snapshot(f, inputs)
        load = 3.0 * sum(s.real for s in snap.load_power_kva)
        expect = load + snap.losses_kw - snap.pv_kw - snap.storage_kw
        assert abs(snap.source_kw - expect) / abs(expect) < 1e-8


def test_voltage_drops_along_loaded_feeder():
    snap = ds.solve_snapshot(ds.build_case("B1"))
    mags = [abs(v) for v in snap.bus_voltage]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_infeasible_load_raises_with_trace():
    f = two_bus_feeder()
    with pytest.raises(ds.ConvergenceError, match="100 iterations") as info:
        ds.solve_snapshot(f, ds.HourInputs((5000.0,)))
    assert len(info.value.trace) == 100


def test_wrong_load_count_rejected():
    with pytest.raises(ValueError, match="expected 1"):
        ds.solve_snapshot(two_bus_feeder(), ds.HourInputs((1.0, 2.0)))


# -- specs and shapes -----------------------------------------------------------

def test_load_shape_normalization():
    shape = ds.HourlyShape.from_values((2.0, 4.0, 1.0))
    assert shape.values == (0.5, 1.0, 0.25)
    with pytest.raises(ValueError, match="covers 3 hours"):
        shape.at(3)
    with pytest.raises(ValueError):
        ds.HourlyShape.from_values(())
    with pytest.raises(ValueError):
        ds.HourlyShape.from_values((0.0, 0.0))
    with pytest.raises(ValueError, match="from_values"):
        ds.HourlyShape((0.5, 1.7))
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        ds.HourlyShape((0.5, -0.5))


def test_dispatch_shape_validation():
    with pytest.raises(ValueError, match=r"within \[-1, 1\]"):
        ds.HourlyShape((0.5, 1.5), lower=-1.0)
    with pytest.raises(ValueError, match="within"):
        ds.HourlyShape((-1.0 - 1e-12,), lower=-1.0)
    with pytest.raises(ValueError, match="at least one hour"):
        ds.HourlyShape((), lower=-1.0)
    assert ds.HourlyShape((-1.0, 0.0, 1.0), lower=-1.0).at(2) == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        ds.LoadSpec("x", -5.0, 0.9)
    with pytest.raises(ValueError):
        ds.LoadSpec("x", 5.0, 1.2)
    with pytest.raises(ValueError):
        ds.StorageSpec(100.0, 400.0, soc=0.05)
    with pytest.raises(ValueError):
        ds.Feeder(ds.SourceSpec(), (ds.LineSegment("a"),), ())


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, field", [
    (lambda: ds.LoadSpec("x", NAN, 0.9), "x: kw"),
    (lambda: ds.LoadSpec("x", INF, 0.9), "x: kw"),
    (lambda: ds.LoadSpec("x", 5.0, NAN), "x: power_factor"),
    (lambda: ds.PvSpec(INF), "rated_kw"),
    (lambda: ds.PvSpec(NAN), "rated_kw"),
    (lambda: ds.StorageSpec(NAN, 400.0), "rated_kw"),
    (lambda: ds.StorageSpec(100.0, INF), "rated_kwh"),
    (lambda: ds.StorageSpec(100.0, 400.0, soc=NAN), "soc"),
    (lambda: ds.StorageSpec(100.0, 400.0, soc_min=NAN), "soc_min"),
    (lambda: ds.StorageSpec(100.0, 400.0, soc_max=NAN), "soc_max"),
    (lambda: ds.StorageSpec(100.0, 400.0, round_trip_efficiency=NAN),
     "round_trip_efficiency"),
    (lambda: ds.SourceSpec(NAN), "kv_ll"),
    (lambda: ds.SourceSpec(INF), "kv_ll"),
    (lambda: ds.SourceSpec(impedance_ohm=complex(NAN, 0.5)),
     "source: impedance_ohm"),
    (lambda: ds.SourceSpec(impedance_ohm=complex(0.05, INF)),
     "source: impedance_ohm"),
    (lambda: ds.LineSegment("l", complex(NAN, 1)), "l: impedance_ohm"),
    (lambda: ds.LineSegment("l", complex(0.5, NAN)), "l: impedance_ohm"),
    (lambda: ds.LineSegment("l", complex(-INF, 1)), "l: impedance_ohm"),
])
def test_specs_reject_non_finite_values(build, field):
    with pytest.raises(ValueError, match=field):
        build()


def test_load_kvar_follows_power_factor():
    snap = ds.solve_snapshot(two_bus_feeder(kw=285.0, pf=0.90))
    kvar = 3.0 * snap.load_power_kva[0].imag
    assert abs(kvar - 285.0 * math.tan(math.acos(0.90))) < 1e-9


# -- storage --------------------------------------------------------------------

def test_dispatch_clipped_at_soc_bounds():
    shape = ds.HourlyShape((1.0, -1.0), lower=-1.0)
    spec = ds.StorageSpec(100.0, 400.0, soc=0.1, dispatch=shape)
    assert ds.dispatch_storage(spec, 0, 0.1) == 0.0
    assert ds.dispatch_storage(spec, 1, 1.0) == 0.0
    assert ds.dispatch_storage(spec, 0, 1.0) > 0.0


def test_dispatch_partial_clip_lands_on_bound():
    spec = ds.StorageSpec(100.0, 50.0, soc=0.5,
                          dispatch=ds.HourlyShape((1.0,), lower=-1.0))
    p = ds.dispatch_storage(spec, 0, 0.5)
    assert 0.0 < p < 100.0
    assert abs(ds.apply_storage_power(spec, 0.5, p) - spec.soc_min) < 1e-12


def test_lossless_zero_mean_dispatch_returns_soc():
    signal = ds.HourlyShape(tuple([0.5] * 6 + [-0.5] * 6 + [0.0] * 12) * 3,
                            lower=-1.0)
    spec = ds.StorageSpec(50.0, 5000.0, soc=0.5, round_trip_efficiency=1.0,
                          dispatch=signal)
    soc = spec.soc
    for hour in range(len(signal)):
        soc = ds.apply_storage_power(
            spec, soc, ds.dispatch_storage(spec, hour, soc))
    assert abs(soc - 0.5) < 1e-9


def test_soc_stays_in_bounds_over_run():
    daily = ds.run_daily(ds.build_case("A3", hours=72), hours=72)
    for rec in daily.records:
        assert 0.1 - 1e-9 <= rec.soc <= 1.0 + 1e-9


# -- daily mode --------------------------------------------------------------

def test_flat_shapes_repeat_the_snapshot():
    f = ds.Feeder(ds.SourceSpec(),
                  tuple(ds.LineSegment(f"line{k}") for k in (1, 2, 3)),
                  tuple(ds.LoadSpec(n, kw, pf)
                        for n, kw, pf in ds.LOAD_RATINGS))
    daily = ds.run_daily(f, hours=5)
    base = ds.solve_snapshot(f)
    for rec in daily.records:
        assert rec.snapshot.source_power_kva == base.source_power_kva


def test_generation_strictly_reduces_source_energy():
    plain = ds.run_daily(ds.build_case("A1", hours=48), hours=48)
    with_pv = ds.run_daily(ds.build_case("A2", hours=48), hours=48)
    pv, no_pv = with_pv.meters()["source"], plain.meters()["source"]
    assert pv.kwh < no_pv.kwh
    assert pv.losses_kwh < no_pv.losses_kwh


def test_hourly_balance_every_mode():
    for case in ("A1", "A2", "A3"):
        daily = ds.run_daily(ds.build_case(case, hours=30), hours=30)
        for rec in daily.records:
            rel = abs(balance_error_kw(rec.snapshot)) / rec.snapshot.source_kw
            assert rel < 1e-6, case


# The per-hour fold that DailyResult.meters() replaced, kept as its oracle:
# one single-hour Meter per hour, folded with combine in hour order.

def combine(a, b):
    """Meter over the union of two disjoint spans: energies add, peaks max."""
    return ds.Meter(
        kwh=a.kwh + b.kwh,
        kvarh=a.kvarh + b.kvarh,
        peak_kw=max(a.peak_kw, b.peak_kw),
        peak_kva=max(a.peak_kva, b.peak_kva),
        losses_kwh=a.losses_kwh + b.losses_kwh,
        losses_kvarh=a.losses_kvarh + b.losses_kvarh,
        peak_losses_kw=max(a.peak_losses_kw, b.peak_losses_kw))


def element_power(feeder, snap, name):
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


def element_names(feeder):
    names = ["source"]
    names += [seg.name for seg in feeder.lines]
    names += [ld.name for ld in feeder.loads]
    if feeder.pv:
        names.append("pv")
    if feeder.storage:
        names.append("storage")
    return names


def fold_meter(daily, name):
    line_index = {seg.name: k for k, seg in enumerate(daily.feeder.lines)}
    m = ds.Meter()
    for rec in daily.records:
        snap = rec.snapshot
        p, q = element_power(daily.feeder, snap, name)
        kva = math.hypot(p, q)
        if name == "source":
            lp, lq = snap.losses_kw, snap.losses_kvar
        elif name in line_index:
            k = line_index[name]
            lp, lq = snap.line_losses_kw[k], snap.line_losses_kvar[k]
        else:
            lp, lq = 0.0, 0.0
        m = combine(m, ds.Meter(
            kwh=p, kvarh=q, peak_kw=max(p, 0.0), peak_kva=kva,
            losses_kwh=lp, losses_kvarh=lq, peak_losses_kw=max(lp, 0.0)))
    return m


def scalar_bits(x):
    """Type and exact bits; -0.0 and 0.0 differ here."""
    if isinstance(x, tuple):
        return tuple(scalar_bits(y) for y in x)
    if isinstance(x, complex):
        return type(x), float.hex(x.real), float.hex(x.imag)
    if isinstance(x, float):
        return type(x), float.hex(x)
    return type(x), x


def bits(record):
    """Each field's type and exact bits."""
    return tuple(scalar_bits(getattr(record, name)) for name in record._fields)


@pytest.mark.parametrize("case", ["A1", "A2", "A3", "A4"])
def test_meters_match_hourly_fold_bit_for_bit(case):
    daily = ds.run_daily(ds.build_case(case, hours=30), hours=30)
    # the whole series, and spans that end before the first discharge at
    # hour 18: in A3 and A4 some hold only -0.0 and 0.0 storage hours
    spans = [daily] + [ds.DailyResult(daily.feeder, daily.records[start:18])
                       for start in range(18)]
    for span in spans:
        meters = span.meters()
        assert list(meters) == element_names(span.feeder)
        for name, meter in meters.items():
            assert bits(meter) == bits(fold_meter(span, name)), name


def test_meter_additivity():
    daily = ds.run_daily(ds.build_case("A3", hours=30), hours=30)
    full = daily.meters()
    left = ds.DailyResult(daily.feeder, daily.records[:15]).meters()
    right = ds.DailyResult(daily.feeder, daily.records[15:]).meters()
    for name in full:
        merged = combine(left[name], right[name])
        assert abs(merged.kwh - full[name].kwh) < 1e-9
        assert abs(merged.kvarh - full[name].kvarh) < 1e-9
        assert abs(merged.losses_kwh - full[name].losses_kwh) < 1e-9
        assert merged.peak_kw == full[name].peak_kw
        assert merged.peak_kva == full[name].peak_kva


# Random radial feeders, kept light enough that every power flow converges.
impedances = st.builds(complex, st.floats(0.0, 0.6), st.floats(0.0, 0.6))


def shapes(hours, lower=0.0):
    return st.lists(st.floats(lower, 1.0), min_size=hours, max_size=hours).map(
        lambda values: ds.HourlyShape(tuple(values), lower))


@st.composite
def random_days(draw):
    n = draw(st.integers(1, 4))
    hours = draw(st.integers(1, 6))
    lines = tuple(ds.LineSegment(f"line{k}", draw(impedances)) for k in range(n))
    loads = tuple(ds.LoadSpec(f"load{k}", draw(st.floats(0.0, 250.0)),
                              draw(st.floats(0.8, 1.0)), shape=draw(shapes(hours)))
                  for k in range(n))
    pv = draw(st.none() | st.builds(ds.PvSpec, st.floats(1.0, 300.0),
                                    shapes(hours)))
    storage = draw(st.none() | st.builds(
        ds.StorageSpec, st.floats(1.0, 100.0), st.floats(50.0, 1000.0),
        dispatch=shapes(hours, lower=-1.0)))
    feeder = ds.Feeder(ds.SourceSpec(), lines, loads, pv=pv, storage=storage)
    return ds.run_daily(feeder, hours=hours)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(random_days())
def test_random_feeders_balance_power_and_energy(daily):
    total_scale = 0.0
    for rec in daily.records:
        snap = rec.snapshot
        scale = 1.0 + (3.0 * sum(abs(s) for s in snap.load_power_kva)
                       + abs(snap.pv_kw) + abs(snap.storage_kw))
        assert abs(balance_error_kw(snap)) <= 1e-6 * scale
        total_scale += scale
    # source energy = loads + losses - generation - storage discharge
    m = daily.meters()
    empty = ds.Meter()
    expect = (sum(m[ld.name].kwh for ld in daily.feeder.loads)
              + m["source"].losses_kwh
              - m.get("pv", empty).kwh - m.get("storage", empty).kwh)
    assert abs(m["source"].kwh - expect) <= 1e-6 * total_scale
    line_losses = sum(m[seg.name].losses_kwh for seg in daily.feeder.lines)
    assert abs(m["source"].losses_kwh - line_losses) <= 1e-9 * total_scale


def test_short_shape_rejected():
    f = ds.build_case("A1", hours=10)
    with pytest.raises(ValueError, match="load1.*10 hours"):
        ds.run_daily(f, hours=20)


def test_pv_shape_zero_at_night():
    shape = ds.default_pv_shape(48)
    for hour in (0, 3, 22, 27, 46):
        assert shape.at(hour) == 0.0
    assert shape.at(12) == 1.0


# -- Monte Carlo mode -----------------------------------------------------------

def test_mc_load_statistics():
    mc = ds.run_monte_carlo(ds.build_case("B1"), 1000, seed=1)
    st = mc.stats()["load1"]
    assert abs(st.mean_kw - 47.5) / 47.5 < 0.03
    assert abs(st.std_kw - 4.75) / 4.75 < 0.10
    assert abs(st.mean_kvar - 47.5 * math.tan(math.acos(0.90))) < 1.0


def test_mc_generator_reverses_line3():
    st = ds.run_monte_carlo(ds.build_case("B2"), 300, seed=1).stats()
    base = ds.run_monte_carlo(ds.build_case("B1"), 300, seed=1).stats()
    assert st["line3"].mean_kw < 0.0
    assert st["source"].mean_kw < base["source"].mean_kw
    # gross load consumption is unchanged by the generator
    assert abs(st["load3"].mean_kw - base["load3"].mean_kw) < 0.5


def test_mc_runs_deterministic_per_index():
    f = ds.build_case("B1")
    small = ds.run_monte_carlo(f, 5, seed=9)
    large = ds.run_monte_carlo(f, 10, seed=9)
    assert np.array_equal(small.load_kva, large.load_kva[:5])
    other = ds.run_monte_carlo(f, 5, seed=10)
    assert not np.array_equal(small.load_kva, other.load_kva)


def test_mc_rejects_storage_and_bad_mode():
    with pytest.raises(ValueError, match="storage"):
        ds.run_monte_carlo(ds.build_case("A3"), 3)
    with pytest.raises(ValueError, match="mode"):
        ds.run_monte_carlo(ds.build_case("B1"), 3, mode="weird")
    with pytest.raises(ValueError):
        ds.run_monte_carlo(ds.build_case("B1"), 0)


def test_mc_external_table_round_trip(tmp_path):
    f = ds.build_case("B3")
    rows = synthesize_load_table(f, 4, seed=3)
    path = tmp_path / "loads.csv"
    write_load_table(path, rows)
    table = ds.read_load_table(path)
    assert len(table) == 4
    external = ds.run_monte_carlo(f, 4, mode="external", table=table)
    internal = ds.run_monte_carlo(f, 4, mode="internal", seed=3)
    assert np.array_equal(external.load_kva, internal.load_kva)
    assert np.array_equal(external.line_kva, internal.line_kva)
    assert np.array_equal(external.source_kva, internal.source_kva)


def test_mc_external_errors(tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("run,load,kW\n0,load1,x\n")
    with pytest.raises(ValueError, match="line 2"):
        ds.read_load_table(path)
    path.write_text("runs,load,kW\n")
    with pytest.raises(ValueError, match="line 1"):
        ds.read_load_table(path)
    path.write_text("run,load,kW\n0,load1,10.0\n0,load1,11.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        ds.read_load_table(path)
    table = ({"load1": 10.0},)
    f = ds.build_case("B3")
    with pytest.raises(ValueError, match="provides 1 runs"):
        ds.run_monte_carlo(f, 2, mode="external", table=table)
    with pytest.raises(ValueError, match="feeder has"):
        ds.run_monte_carlo(f, 1, mode="external", table=table)
    full = {"load1": 10.0, "load2": 11.0, "load3": 12.0}
    with pytest.raises(ValueError, match="'load9'"):
        ds.run_monte_carlo(f, 1, mode="external",
                           table=({**full, "load9": 5.0},))
    path.write_text("run,load,kW\n0,load1,10.0\n7,load1,11.0\n")
    with pytest.raises(ValueError, match="run 1 is missing"):
        ds.read_load_table(path)
    for bad in ("nan", "inf", "-1.0"):
        path.write_text(f"run,load,kW\n0,load1,10.0\n0,load2,{bad}\n")
        with pytest.raises(ValueError, match="line 3: kW must be finite"):
            ds.read_load_table(path)


# -- lock-step solve ------------------------------------------------------------
# solve_snapshot is the oracle: every row of a lock-step solve must carry the
# same bits and scalar types as solve_snapshot gives for that row alone.

def hourly_oracle(feeder, hours):
    """The per-hour loop run_daily replaced: one solve_snapshot per hour."""
    st, records = feeder.storage, []
    soc = st.soc if st else math.nan
    for hour in range(hours):
        load_kw = tuple(ld.kw * ld.shape.at(hour) for ld in feeder.loads)
        pv_kw = feeder.pv.rated_kw * feeder.pv.shape.at(hour) if feeder.pv else 0.0
        storage_kw = 0.0
        if st:
            storage_kw = ds.dispatch_storage(st, hour, soc)
            soc = ds.apply_storage_power(st, soc, storage_kw)
        snap = ds.solve_snapshot(feeder, ds.HourInputs(load_kw, pv_kw, storage_kw))
        records.append(ds.HourRecord(hour, snap, soc))
    return records


@pytest.mark.parametrize("case", ["A1", "A2", "A3", "A4"])
def test_lockstep_daily_matches_snapshot_oracle(case):
    feeder = ds.build_case(case)
    daily = ds.run_daily(feeder, hours=200)
    oracle = hourly_oracle(feeder, 200)
    assert len(daily.records) == len(oracle) == 200
    for got, want in zip(daily.records, oracle):
        assert got.hour == want.hour
        assert scalar_bits(got.soc) == scalar_bits(want.soc)
        assert bits(got.snapshot) == bits(want.snapshot), got.hour


def table_of(rows):
    """A pre-read load table from (run, load, kW) rows."""
    table = {}
    for run, name, kw in rows:
        table.setdefault(run, {})[name] = kw
    return tuple(table[run] for run in range(len(table)))


MC_ORACLE_RUNS = 1000


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("case", ["B1", "B2", "B3", "B4"])
def test_lockstep_mc_matches_snapshot_oracle(case, seed):
    feeder = ds.build_case(case)
    names = [ld.name for ld in feeder.loads]
    if case in ("B3", "B4"):
        table = table_of(synthesize_load_table(feeder, MC_ORACLE_RUNS, seed))
        mc = ds.run_monte_carlo(feeder, MC_ORACLE_RUNS, mode="external",
                                table=table)
        kw = [tuple(row[name] for name in names) for row in table]
    else:
        mc = ds.run_monte_carlo(feeder, MC_ORACLE_RUNS, seed=seed)
        kw = [ds.draw_load_kw(feeder, seed, run) for run in range(MC_ORACLE_RUNS)]
    pv_kw = feeder.pv.rated_kw if feeder.pv else 0.0
    flows = ds.solve_lockstep(feeder, kw, [pv_kw] * MC_ORACLE_RUNS)
    for run, loads in enumerate(kw):
        oracle = ds.solve_snapshot(feeder, ds.HourInputs(loads, pv_kw=pv_kw))
        assert bits(flows.snapshot(run, pv_kw)) == bits(oracle), run
    # McResult holds exactly these rows
    for got, want in ((mc.load_kva, flows.load_power_kva),
                      (mc.line_kva, flows.line_power_kva),
                      (mc.source_kva, flows.source_power_kva)):
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                              np.ascontiguousarray(want).view(np.uint64))


def oracle_rows(feeder, kw, injection):
    """Per-row solve_snapshot: Snapshots, or the first row's ConvergenceError."""
    snaps = []
    for loads, inj in zip(kw, injection):
        try:
            snaps.append(ds.solve_snapshot(feeder, ds.HourInputs(loads, pv_kw=inj)))
        except ds.ConvergenceError as exc:
            return exc
    return snaps


def trace_hex(exc):
    return [float.hex(t) for t in exc.trace]


def assert_same_error(got, want):
    assert type(got) is type(want) is ds.ConvergenceError
    assert str(got) == str(want)
    assert trace_hex(got) == trace_hex(want)


@st.composite
def random_ladders(draw):
    n = draw(st.integers(1, 5))
    feeder = ds.Feeder(
        ds.SourceSpec(impedance_ohm=draw(impedances)),
        tuple(ds.LineSegment(f"line{k}", draw(impedances)) for k in range(n)),
        tuple(ds.LoadSpec(f"load{k}", 100.0, draw(st.floats(0.7, 1.0)))
              for k in range(n)))
    kw_value = st.just(0.0) | st.floats(0.0, 250.0)
    rows = draw(st.integers(1, 12))
    kw = [tuple(draw(kw_value) for _ in range(n)) for _ in range(rows)]
    # at times one row is heavy enough that the whole call fails
    heavy = draw(st.none() | st.integers(0, rows - 1))
    if heavy is not None:
        kw[heavy] = tuple(40.0 * x for x in kw[heavy])
    injection = [draw(st.just(0.0) | st.floats(-100.0, 300.0)) for _ in range(rows)]
    return feeder, kw, injection


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_ladders())
def test_lockstep_rows_match_snapshot_on_random_ladders(ladder):
    feeder, kw, injection = ladder
    oracle = oracle_rows(feeder, kw, injection)
    if isinstance(oracle, ds.ConvergenceError):
        with pytest.raises(ds.ConvergenceError) as info:
            ds.solve_lockstep(feeder, kw, injection)
        assert_same_error(info.value, oracle)
        return
    flows = ds.solve_lockstep(feeder, kw, injection)
    for row, (snap, inj) in enumerate(zip(oracle, injection)):
        assert bits(flows.snapshot(row, inj)) == bits(snap), row


@pytest.mark.parametrize("first_bad", [(20000.0,) * 3, (NAN, 10.0, 10.0)])
def test_first_failing_run_raises_its_oracle_error(first_bad):
    feeder = ds.build_case("B1")
    names = [ld.name for ld in feeder.loads]
    kw = [(40.0, 30.0, 20.0)] * 8
    kw[3] = first_bad
    kw[6] = (60000.0,) * 3  # fails too, with another trace
    table = tuple(dict(zip(names, row)) for row in kw)
    errors = []
    for run in (3, 6):
        with pytest.raises(ds.ConvergenceError) as info:
            ds.solve_snapshot(feeder, ds.HourInputs(kw[run]))
        errors.append(info.value)
    assert trace_hex(errors[0]) != trace_hex(errors[1])
    with pytest.raises(ds.ConvergenceError) as info:
        ds.solve_lockstep(feeder, np.array(kw), np.zeros(len(kw)))
    assert_same_error(info.value, errors[0])
    if math.isnan(first_bad[0]):
        # the table check refuses a NaN kW before any solve
        with pytest.raises(ValueError, match=r"run 3, load 'load1': kW must be finite"):
            ds.run_monte_carlo(feeder, 8, mode="external", table=table)
        return
    with pytest.raises(ds.ConvergenceError) as info:
        ds.run_monte_carlo(feeder, 8, mode="external", table=table)
    assert_same_error(info.value, errors[0])


@pytest.mark.parametrize("bad", [NAN, INF, -INF, -1.0, -1e-300])
def test_pre_read_table_rejects_bad_kw_before_solving(bad, monkeypatch):
    feeder = ds.build_case("B1")
    names = [ld.name for ld in feeder.loads]
    table = [dict.fromkeys(names, 10.0) for _ in range(4)]
    table[2][names[1]] = bad
    table = tuple(table)

    def no_solve(*args):
        raise AssertionError("solved a table that fails its check")
    monkeypatch.setattr(ds, "solve_lockstep", no_solve)
    with pytest.raises(ValueError, match=rf"run 2, load {names[1]!r}: kW must be"):
        ds.run_monte_carlo(feeder, 4, mode="external", table=table)
    # runs past the request are not the run's concern
    with pytest.raises(AssertionError, match="solved"):
        ds.run_monte_carlo(feeder, 2, mode="external", table=table)


def test_first_failing_hour_raises_its_oracle_error():
    # hours 3 and 5 are infeasible, with different traces
    shape = ds.HourlyShape((0.02, 0.02, 0.02, 1.0, 0.02, 0.9, 0.02))
    feeder = ds.Feeder(ds.SourceSpec(), (ds.LineSegment("seg", 0.8 + 1.1j),),
                       (ds.LoadSpec("ld", 5000.0, 0.92, shape=shape),),
                       pv=ds.PvSpec(50.0, ds.HourlyShape((0.5,) * 7)))
    errors = []
    for hour in (3, 5):
        with pytest.raises(ds.ConvergenceError) as info:
            ds.solve_snapshot(feeder, ds.HourInputs((5000.0 * shape.at(hour),),
                                                    pv_kw=25.0))
        errors.append(info.value)
    assert trace_hex(errors[0]) != trace_hex(errors[1])
    with pytest.raises(ds.ConvergenceError) as info:
        ds.run_daily(feeder, hours=7)
    assert_same_error(info.value, errors[0])


# -- shipped cases and output ---------------------------------------------------

def test_case_factory_wiring():
    assert ds.build_case("A1").pv is None
    assert ds.build_case("A2").pv is not None
    assert ds.build_case("A2").storage is None
    a3, a4 = ds.build_case("A3"), ds.build_case("A4")
    assert a3.storage is not None and a4.storage is not None
    assert a3.storage.dispatch.values != a4.storage.dispatch.values
    assert ds.build_case("B2").pv.shape is None
    assert ds.build_case("B4").pv is not None
    with pytest.raises(ValueError, match="unknown case"):
        ds.build_case("C1")


def test_daily_csv(tmp_path):
    daily = ds.run_daily(ds.build_case("A2", hours=6), hours=6)
    path = tmp_path / "daily.csv"
    ds.write_daily_csv(daily, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("hour,source_kW,source_kvar,load1_kW")


def test_mc_csv(tmp_path):
    mc = ds.run_monte_carlo(ds.build_case("B1"), 3, seed=0)
    path = tmp_path / "mc.csv"
    ds.write_mc_csv(mc, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[:3] == ["run", "load1_kW", "load1_kvar"]


def test_meter_rows_labels():
    labels = [k for k, _ in ds.meter_rows(ds.Meter())]
    assert labels == ["kWh", "kvarh", "peak_kW", "peak_kVA",
                      "losses_kWh", "losses_kvarh", "peak_losses_kW"]
