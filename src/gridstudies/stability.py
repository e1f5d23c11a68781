"""Classical single-machine infinite-bus transient stability simulator.

A power plant (constant-flux machine model E' behind X'd) feeds an infinite
bus through a step-up transformer and two parallel reactances.  A bolted
three-phase fault at the transformer end of circuit 2 drops the electrical
power to zero; the fault is cleared by opening circuit 2.  The swing equation

    d(delta)/dt = omega0 * dw
    d(dw)/dt    = (Pm - Pe - D*dw) / (2H),   Pe = E'*Vbus*sin(delta)/X

is integrated with a fixed-step RK4 scheme; steps that straddle a switching
instant are split so each RK4 step sees a single network state.  Stability is
judged against the post-fault unstable equilibrium (pole-slip detection) with
a hard delta - delta0 > pi backstop.  An equal-area criterion routine provides
an independent critical-clearing-time oracle for the Pe = 0 fault.

The parametric sweep integrates all its rows in lock step and retires a row
early once the transient energy function (Pai, "Energy Function Analysis for
Power System Stability", 1989; Chiang, "Direct Methods for Stability Analysis
of Electric Power Systems", 2011) proves the verdict the time-domain rules
must reach: below the unstable equilibrium's energy the rotor is trapped in
the potential well, and without damping a rotor with enough energy to spare
over that equilibrium must swing beyond delta0 + pi before its horizon.  Its
verdicts equal simulate's; its step counts do not.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .record import record
from .report import write_columns


class InfeasibleOperatingPoint(ValueError):
    """No machine internal voltage satisfies the requested terminal P, Q."""


class NoPostFaultEquilibrium(ValueError):
    """Mechanical power exceeds the post-fault power transfer limit."""


@record
class SmibModel:
    """Plant, transformer and line reactances, all per unit on the machine
    base.  The four-generator plant is aggregated into one machine."""

    s_base_mva: float = 2220.0
    v_base_kv: float = 24.0
    xd_prime: float = 0.3
    inertia_h: float = 3.5
    damping: float = 0.0
    x_transformer: float = 0.15
    x_line1: float = 0.5
    x_line2: float = 0.93
    v_bus: float = 0.92
    f0_hz: float = 60.0

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("s_base_mva", "v_base_kv", "xd_prime", "inertia_h",
                     "x_transformer", "x_line1", "x_line2", "v_bus", "f0_hz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 <= self.damping < math.inf:
            raise ValueError("damping must be finite and >= 0")

    @property
    def omega0(self) -> float:
        return 2.0 * math.pi * self.f0_hz

    @property
    def x_lines_parallel(self) -> float:
        return self.x_line1 * self.x_line2 / (self.x_line1 + self.x_line2)

    @property
    def x_external_pre(self) -> float:
        """Transformer plus both circuits, terminal to bus."""
        return self.x_transformer + self.x_lines_parallel

    @property
    def x_pre(self) -> float:
        return self.xd_prime + self.x_external_pre

    @property
    def x_post(self) -> float:
        """Circuit 2 opened."""
        return self.xd_prime + self.x_transformer + self.x_line1


@record
class OperatingPoint:
    """Pre-fault P, Q delivered at the machine terminals (generator sign)."""

    p_pu: float
    q_pu: float = 0.0

    def __post_init__(self):
        if not 0 <= self.p_pu < math.inf:
            raise ValueError("active power must be finite and >= 0")
        if not math.isfinite(self.q_pu):
            raise ValueError("reactive power must be finite")

    @classmethod
    def from_power_factor(cls, pf: float) -> "OperatingPoint":
        """Full apparent load, 1 pu, at the given power factor, overexcited."""
        if not 0 < pf <= 1:
            raise ValueError("power factor must be in (0, 1]")
        return cls(float(pf), math.sqrt(max(0.0, 1.0 - pf * pf)))


@record
class FaultEvent:
    """Bolted three-phase fault on circuit 2 at the transformer end,
    cleared by opening the circuit.  duration 0 means no fault at all."""

    t_on: float = 0.1
    duration: float = 0.05

    def __post_init__(self):
        if not (0 <= self.t_on < math.inf and 0 <= self.duration < math.inf):
            raise ValueError("fault times must be finite and >= 0")

    @property
    def t_clear(self) -> float:
        return self.t_on + self.duration


def init_conditions(model: SmibModel, op: OperatingPoint) -> tuple[float, float]:
    """Internal voltage magnitude E' and angle delta0 (rad) on the pre-fault
    network, from the terminal power constraint.

    With terminal voltage a*exp(j*theta) feeding the bus V through X_ext:
    a*sin(theta) = P*X/V and a*cos(theta) = (a^2 - Q*X)/V, which close to a
    quadratic in a^2; the high-voltage root is the physical one.
    """
    v = model.v_bus
    x = model.x_external_pre
    b = op.p_pu * x / v
    inner = v * v + 4.0 * op.q_pu * x - 4.0 * b * b
    if inner < 0:
        raise InfeasibleOperatingPoint(
            f"no terminal voltage supports P={op.p_pu}, Q={op.q_pu} pu "
            f"into a {v} pu bus through {x:.6f} pu")
    u = (2.0 * op.q_pu * x + v * v + v * math.sqrt(inner)) / 2.0
    a = math.sqrt(u)
    sin_t = b / a
    cos_t = (u - op.q_pu * x) / (a * v)
    vt = a * complex(cos_t, sin_t)
    current = (vt - v) / complex(0.0, x)
    e = vt + complex(0.0, model.xd_prime) * current
    e_mag, delta0 = abs(e), cmath.phase(e)
    residual = abs(e_mag * v * math.sin(delta0) / model.x_pre - op.p_pu)
    if not residual <= 1e-10:  # NaN fails too
        raise InfeasibleOperatingPoint(
            f"initialization residual {residual:.3e} exceeds 1e-10 pu")
    return e_mag, delta0


@record
class SwingTrace:
    times: np.ndarray
    delta_rad: np.ndarray
    speed_dev_pu: np.ndarray
    pe_pu: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.delta_rad, self.speed_dev_pu, self.pe_pu):
            if not np.all(np.isfinite(arr)):
                raise ValueError("trace contains non-finite samples")


class SimulationResult(NamedTuple):
    trace: SwingTrace
    stable: bool
    delta0_rad: float
    e_prime_pu: float

    @property
    def stability_flag(self) -> int:
        """1 means instability, 0 stability."""
        return 0 if self.stable else 1


# pole-slip persistence: dw > 0 beyond the unstable equilibrium this long
SLIP_HOLD_S = 0.5

# energy-certificate band, relative to 2*pi*Pm + Pmax (a bound on the
# potential's size over the angles the sweep's certificates use).  RK4's
# energy drift, over 3 s or until the rotor passes delta0 + pi, measures at
# most 1.2e-12 of that at dt = 5e-4 and 1.9e-11 at dt = 1e-3 on the default
# grid, and 1.3e-10 for inertias of 0.5-10 s; the default grid's rows clear
# at least 7.8e-4 of it away from the unstable equilibrium's energy.
ENERGY_BAND = 1e-6


def _check_dt(dt: float) -> None:
    if not 0 < dt <= 1e-3:
        raise ValueError(f"dt must be in (0, 1e-3] s, got {dt!r}")


def simulate(model: SmibModel, op: OperatingPoint, fault: FaultEvent,
             dt: float = 5e-4, t_end: float | None = None,
             stop_on_verdict: bool = False) -> SimulationResult:
    """Integrate pre-fault, fault and post-clearing phases with fixed-step
    RK4, 0 < dt <= 1 ms.

    Steps never straddle a switching instant: the step hitting t_on or
    t_clear is split so RK4 sees a smooth right-hand side throughout.
    Samples are recorded on the uniform dt grid regardless of the splits.
    """
    _check_dt(dt)
    if t_end is not None and not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be in (0, inf) s, got {t_end!r}")
    e, delta0 = init_conditions(model, op)
    v, w0 = model.v_bus, model.omega0
    two_h, damping = 2.0 * model.inertia_h, model.damping
    # use the float-exact electrical power at delta0 as Pm so the no-fault
    # case is a fixed point of the integrator, not just close to one
    pm = e * v * math.sin(delta0) / model.x_pre
    if t_end is None:
        t_end = fault.t_clear + 3.0

    null_fault = fault.duration == 0.0
    events = [] if null_fault else [fault.t_on, fault.t_clear]

    def x_at(t: float) -> float:
        """Transfer reactance; inf while the fault transfers no power."""
        if null_fault or t < fault.t_on - 1e-15:
            return model.x_pre
        if t < fault.t_clear - 1e-15:
            return math.inf
        return model.x_post

    def pe_at(t: float, d: float) -> float:
        # e * v * sin / x, not pmax * sin: the trace keeps this rounding
        x = x_at(t)
        return 0.0 if math.isinf(x) else e * v * math.sin(d) / x

    def deriv(d: float, w: float, pmax: float) -> tuple[float, float]:
        return w0 * w, (pm - pmax * math.sin(d) - damping * w) / two_h

    # post-fault unstable equilibrium angle, for pole-slip detection
    pmax_post = e * v / model.x_post
    delta_uep = math.pi - math.asin(pm / pmax_post) if pm < pmax_post else None

    d, w = delta0, 0.0
    n_steps = int(round(t_end / dt))
    times, deltas, speeds, pes = (np.empty(n_steps + 1) for _ in range(4))
    times[0], deltas[0], speeds[0], pes[0] = 0.0, d, w, pe_at(0.0, d)
    stable = True
    slip_since = None
    for i in range(1, n_steps + 1):
        t0, t1 = (i - 1) * dt, i * dt
        cut = [t for t in events if t0 + 1e-15 < t < t1 - 1e-15]
        t = t0
        for boundary in [*cut, t1]:
            h = boundary - t
            if h > 1e-15:
                x = x_at(t)
                pmax = 0.0 if math.isinf(x) else e * v / x
                k1d, k1w = deriv(d, w, pmax)
                k2d, k2w = deriv(d + 0.5 * h * k1d, w + 0.5 * h * k1w, pmax)
                k3d, k3w = deriv(d + 0.5 * h * k2d, w + 0.5 * h * k2w, pmax)
                k4d, k4w = deriv(d + h * k3d, w + h * k3w, pmax)
                d = d + h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
                w = w + h * (k1w + 2 * k2w + 2 * k3w + k4w) / 6.0
            t = boundary
        times[i], deltas[i], speeds[i], pes[i] = t1, d, w, pe_at(t1, d)

        if stable and t1 >= fault.t_clear:
            slipped = False
            if d - delta0 > math.pi:
                slipped = True
            elif delta_uep is not None and d > delta_uep and w > 0:
                slip_since = t1 if slip_since is None else slip_since
                slipped = t1 - slip_since >= SLIP_HOLD_S
            else:
                slip_since = None
            if slipped:
                stable = False
                if stop_on_verdict:
                    n_steps = i  # the trace ends here
                    break

    sl = slice(0, n_steps + 1)
    trace = SwingTrace(times[sl], deltas[sl], speeds[sl], pes[sl])
    return SimulationResult(trace, stable, delta0, e)


def cct_equal_area(model: SmibModel, op: OperatingPoint) -> tuple[float, float]:
    """Critical clearing angle and time for the Pe = 0 fault, from the
    equal-area criterion on the post-fault power curve.  This is the energy
    argument the sweep's certificates make (Pai 1989; Chiang 2011): the
    rotor is saved if it clears with less energy than the unstable
    equilibrium holds.

    Returns (delta_crit_rad, t_crit_s); t_crit is inf when no mechanical
    power accelerates the rotor.
    """
    e, delta0 = init_conditions(model, op)
    pm = e * model.v_bus * math.sin(delta0) / model.x_pre
    pmax = e * model.v_bus / model.x_post
    if pm >= pmax:
        raise NoPostFaultEquilibrium(
            f"Pm = {pm:.6f} pu exceeds the post-fault limit {pmax:.6f} pu")
    if pm == 0.0:
        return math.pi, math.inf
    delta_u = math.pi - math.asin(pm / pmax)
    cos_dc = (pm * (delta_u - delta0) + pmax * math.cos(delta_u)) / pmax
    if cos_dc < -1.0:
        raise NoPostFaultEquilibrium(
            f"equal-area balance has no solution (cos delta_c = {cos_dc:.6f})")
    delta_c = math.acos(min(1.0, cos_dc))
    if delta_c <= delta0:
        # the decelerating area after clearing is already exhausted at
        # delta0: losing circuit 2 destabilizes regardless of duration
        return delta0, 0.0
    t_crit = math.sqrt(4.0 * model.inertia_h * (delta_c - delta0)
                       / (model.omega0 * pm))
    return delta_c, t_crit


# -- parametric sweep ----------------------------------------------------------

# the classical network cannot deliver the full apparent load at unity power
# factor into the 0.92 pu bus, so the factor grid tops out at 0.98
DEFAULT_POWER_FACTORS = (0.6, 0.7, 0.8, 0.9, 0.98)
DEFAULT_DURATIONS_S = tuple(np.linspace(0.070, 0.250, 67))


class SweepRow(NamedTuple):
    power_mw: float
    duration_ms: float
    stability: int  # 1 means instability, 0 stability


def sweep(model: SmibModel | None = None,
          durations_s=DEFAULT_DURATIONS_S,
          power_factors=DEFAULT_POWER_FACTORS,
          dt: float = 5e-4) -> list[SweepRow]:
    """One verdict per (power factor, duration), apparent power fixed at
    full load and each fault starting at FaultEvent's default t_on.  Rows
    are ordered factor-major, matching the listing shape, and each verdict
    is simulate(..., stop_on_verdict=True)'s."""
    model = model or SmibModel()
    durations_s, power_factors = tuple(durations_s), tuple(power_factors)
    if not durations_s or not power_factors:
        raise ValueError("sweep grids must be non-empty")
    flags = _lockstep(model, durations_s, power_factors, dt)[0]
    grid = ((pf, dur) for pf in power_factors for dur in durations_s)
    return [SweepRow(pf * model.s_base_mva, float(dur) * 1e3, int(flag))
            for (pf, dur), flag in zip(grid, flags)]


def _lockstep(model: SmibModel, durations_s: tuple, power_factors: tuple,
              dt: float):
    """Integrate every sweep row at once: one loop over the dt grid steps
    arrays of the rows' d and w with simulate's rules, operation for
    operation, so each row's trajectory is bit-identical to
    simulate(..., stop_on_verdict=True) wherever np.sin rounds like
    math.sin.  A row leaves the arrays on the step it retires: when it
    slips, after its own last step, or as soon as an energy certificate
    proves which verdict simulate's rules must reach.

    The certificates use the post-clearing energy
    V = H*w0*w^2 - Pm*d - Pmax*cos(d), whose rate dV/dt = -D*w0*w^2 is never
    positive, and V_u, its value at rest on the unstable equilibrium d_u
    (Pai 1989; Chiang 2011).  A cleared row is certified
      - stable, at any damping, when d < d_u and V < V_u - band: it is
        trapped in the potential well, so it can reach neither d_u nor
        delta0 + pi.  (The well's left rim, d_u - 2*pi, is higher still,
        and no row gets there: w >= 0 at clearing, and it turns back only
        inside the well.)
      - unstable, with no damping, when w > 0 and the kinetic energy left
        at the highest potential ahead, min(H*w0*w^2, V - V_u) - band
        (V - V_u only while d < d_u and an equilibrium exists), carries it
        past delta0 + pi two steps before its horizon: the d - delta0 > pi
        rule then fires in time.
    band, ENERGY_BAND times a bound on |potential| over the angles the
    certificates reason about, stands far above RK4's energy drift, so the
    discrete trajectory obeys the continuous argument.  A row inside the
    band, or a null-fault row (simulate judges it against the post-fault
    equilibrium while it stays on the pre-fault network), keeps
    integrating under simulate's rules.  Verdicts therefore equal
    simulate's; the step counts of certified rows are shorter.

    Returns per-row arrays (flag, steps, d, w, certified) at retirement,
    factor-major; certified marks rows an energy certificate retired.
    """
    _check_dt(dt)
    v = model.v_bus
    faults, per_pf = [], []  # per_pf: simulate's scalar constants
    for pf in power_factors:
        op = OperatingPoint.from_power_factor(pf)
        faults += [FaultEvent(duration=float(dur)) for dur in durations_s]
        e, delta0 = init_conditions(model, op)
        pm = e * v * math.sin(delta0) / model.x_pre
        pmax_post = e * v / model.x_post
        if pm < pmax_post:
            uep = math.pi - math.asin(pm / pmax_post)
            v_u = -pm * uep - pmax_post * math.cos(uep)
        else:
            uep, v_u = math.inf, -math.inf
        band = ENERGY_BAND * (2.0 * math.pi * pm + pmax_post)
        per_pf.append((delta0, pm, e * v / model.x_pre, pmax_post, uep, v_u,
                       band))
    delta0, pm, pmax_pre, pmax_post, uep, v_u, band = np.repeat(
        np.array(per_pf), len(durations_s), axis=0).T
    fault_t_on = faults[0].t_on  # the default, shared by every row
    t_clear = np.array([f.t_clear for f in faults])
    events = np.array([f.duration != 0.0 for f in faults])
    last = np.array([int(round((f.t_clear + 3.0) / dt)) for f in faults])
    # a null fault keeps the pre-fault network throughout
    pmax_fault = np.where(events, 0.0, pmax_pre)
    pmax_after = np.where(events, pmax_post, pmax_pre)
    clear_end = t_clear.max()  # from here on every row runs post-fault

    w0, two_h, damping = model.omega0, 2.0 * model.inertia_h, model.damping
    h_w0 = model.inertia_h * w0
    sin = np.sin

    def rk4(d, w, h, pmax, pm):
        def deriv(d, w):
            return w0 * w, (pm - pmax * sin(d) - damping * w) / two_h
        k1d, k1w = deriv(d, w)
        k2d, k2w = deriv(d + 0.5 * h * k1d, w + 0.5 * h * k1w)
        k3d, k3w = deriv(d + 0.5 * h * k2d, w + 0.5 * h * k2w)
        k4d, k4w = deriv(d + h * k3d, w + h * k3w)
        return (d + h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0,
                w + h * (k1w + 2 * k2w + 2 * k3w + k4w) / 6.0)

    def pmax_at(t):
        """simulate's x_at rule, as e * v / x per row (0.0 while faulted)."""
        return np.where(t < fault_t_on - 1e-15, pmax_pre,
                        np.where(t < t_clear - 1e-15, pmax_fault, pmax_after))

    n = len(faults)
    flags, steps = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    d_end, w_end = np.empty(n), np.empty(n)
    certified = np.zeros(n, dtype=bool)
    row = np.arange(n)
    d, w = delta0.copy(), np.zeros(n)
    slip_since = np.full(n, np.nan)  # NaN: not beyond the UEP
    i = 0
    while row.size:
        i += 1
        t0, t1 = (i - 1) * dt, i * dt
        # substeps end at t_on, then at each row's t_clear, then at t1
        cuts = []
        if t0 < clear_end:
            if t0 + 1e-15 < fault_t_on < t1 - 1e-15:
                cuts.append((events, fault_t_on))
            at_clear = events & (t0 + 1e-15 < t_clear) & (t_clear < t1 - 1e-15)
            if at_clear.any():
                cuts.append((at_clear, t_clear))
        if not cuts:
            h = t1 - t0
            if h > 1e-15:
                pmax = pmax_after if t0 >= clear_end else pmax_at(t0)
                d, w = rk4(d, w, h, pmax, pm)
        else:
            t = np.full(row.size, t0)  # each row's substep start
            for sel, boundary in [*cuts, (True, t1)]:
                h = boundary - t
                go = sel & (h > 1e-15)
                d[go], w[go] = rk4(d[go], w[go], h[go], pmax_at(t)[go], pm[go])
                t = np.where(sel, boundary, t)

        cleared = t1 >= t_clear
        beyond = cleared & (d > uep) & (w > 0)
        # fmin keeps the first instant beyond the UEP (NaN before it)
        slip_since = np.where(beyond, np.fmin(slip_since, t1), np.nan)
        slipped = (cleared & (d - delta0 > math.pi)) | (
            t1 - slip_since >= SLIP_HOLD_S)
        done = slipped | (last == i)
        judge = cleared & events & ~done
        if judge.any():
            kinetic = h_w0 * w * w
            energy = kinetic - pm * d - pmax_after * np.cos(d)
            proven = judge & (d < uep) & (energy < v_u - band)
            if damping == 0.0:
                # left: kinetic energy at the highest potential ahead
                barrier = np.where(d < uep, v_u, -np.inf)
                left = np.minimum(kinetic, energy - barrier) - band
                reach = w0 * np.sqrt(np.maximum(left, 0.0) / h_w0) * (
                    (last - i - 2) * dt)
                slips = judge & (w > 0) & (left > 0) & (
                    delta0 + math.pi - d < reach)
                slipped |= slips
                proven |= slips
            certified[row[proven]] = True
            done |= proven
        if done.any():
            out = row[done]
            flags[out], steps[out] = slipped[done], i
            d_end[out], w_end[out] = d[done], w[done]
            keep = ~done
            (row, d, w, slip_since, delta0, pm, pmax_pre, pmax_fault,
             pmax_after, uep, v_u, band, t_clear, events, last) = (
                a[keep] for a in (row, d, w, slip_since, delta0, pm, pmax_pre,
                                  pmax_fault, pmax_after, uep, v_u, band,
                                  t_clear, events, last))
    return flags, steps, d_end, w_end, certified


def sweep_to_dataset(rows: list[SweepRow]):
    """Feature matrix (power MW, duration ms) labelled by the verdict."""
    from .ml import Dataset
    if not rows:
        raise ValueError("no rows")
    features = np.array([[r.power_mw, r.duration_ms] for r in rows])
    labels = np.array([r.stability for r in rows], dtype=int)
    return Dataset(features, labels, feature_names=["Power", "Duration"],
                   label_name="Stability")


# -- CSV output ----------------------------------------------------------------

def write_trace_csv(result: SimulationResult, path) -> None:
    tr = result.trace
    # math.degrees per value, without a whole-column list
    delta_deg = np.fromiter(map(math.degrees, tr.delta_rad), float,
                            tr.delta_rad.size)
    write_columns(path, ["t", "delta_deg", "speed_dev", "Pe_pu"],
                  [tr.times, delta_deg, tr.speed_dev_pu, tr.pe_pu])


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    write_columns(path, ["Power", "Duration", "Stability"],
                  [np.array([row.power_mw for row in rows], dtype=float),
                   np.array([row.duration_ms for row in rows], dtype=float),
                   np.array([row.stability for row in rows], dtype=np.int64)])
