"""Fault dataset builder for a 400 kV, 100 km transmission line.

Builds steady-state shunt-fault cases on a two-section line model: 19 fault
positions every 5 km times 11 fault types.  Each case is solved as a phasor
network and reduced to a row of nine per-unit RMS voltages (sending bus,
receiving load, fault point) plus the fault distance and a combined
position/type code.  Rows feed the nearest-neighbour classifier from the ml
module.

`build_dataset` solves the cases in lock step: the cases of one fault type,
bolted or resistive, share one template network and one stacked solve, and
give the bits of `build_row`, which solves one case with `apply_fault` and
`solve_steady_state` and stays the oracle.

Training cases are bolted (zero resistance) and enumerated in (position,
type) order; test cases draw position and type uniformly from the same grids
and a fault resistance uniform in [0, r_max).  The per-unit base is the rated
phase-to-ground RMS voltage, 400 kV / sqrt(3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ml import Dataset
from .phasor import (
    PHASES,
    FaultSpec,
    LineSectionModel,
    PhasorNetwork,
    apply_fault,
    solve_steady_state,
)
from .nodal import merge_nodes
from .report import write_columns

VOLTAGE_BASE_V = 400e3 / math.sqrt(3)  # 230940.1076758503

POSITION_COUNT = 19
TYPE_COUNT = 11
KM_PER_POSITION = 5.0

DATASET_HEADER = (
    "VbusA", "VbusB", "VbusC",
    "VloadA", "VloadB", "VloadC",
    "VfaultA", "VfaultB", "VfaultC",
    "Distance", "Type", "Code",
)


@dataclass
class CaseOneConfig:
    """System surrounding the faulted line.

    The source is an ideal balanced emf behind an equivalent impedance; the
    receiving end carries a grounded-wye impedance load.  The line section
    model holds per-km sequence parameters for the full 100 km.
    """

    source_volts_ln: float = VOLTAGE_BASE_V
    source_impedance: complex = 2.0 + 40.0j
    load_impedance: complex = 2800.0 + 500.0j
    line: LineSectionModel = field(default_factory=lambda: LineSectionModel(
        z1_ohm_per_km=0.06 + 1.0j,
        z0_ohm_per_km=0.5 + 3.4j,
        y1_siemens_per_km=3.6e-6j,
        y0_siemens_per_km=2.2e-6j,
        length_km=100.0,
        mutual_skew=0.30,
    ))


@dataclass
class FaultCase:
    """One simulated fault: grid position (1..19, 5 km apart), type (1..11),
    and a single resistance applied per faulted phase and to ground."""

    position_index: int
    fault_type: int
    fault_resistance: float = 0.0

    def __post_init__(self):
        if not 1 <= int(self.position_index) <= POSITION_COUNT:
            raise ValueError(f"position index {self.position_index} outside 1..{POSITION_COUNT}")
        if not 1 <= int(self.fault_type) <= TYPE_COUNT:
            raise ValueError(f"fault type {self.fault_type} outside 1..{TYPE_COUNT}")
        if not (math.isfinite(self.fault_resistance) and self.fault_resistance >= 0):
            raise ValueError(
                f"fault_resistance must be finite and >= 0, got {self.fault_resistance}")
        self.position_index = int(self.position_index)
        self.fault_type = int(self.fault_type)
        self.fault_resistance = float(self.fault_resistance)

    @property
    def distance_km(self) -> float:
        return KM_PER_POSITION * self.position_index

    @property
    def code(self) -> int:
        return 100 * self.position_index + self.fault_type


@dataclass
class DatasetRow:
    """Nine per-unit voltages plus distance and the combined code."""

    v_bus: tuple[float, float, float]
    v_load: tuple[float, float, float]
    v_fault: tuple[float, float, float]
    distance_km: float
    code: int

    @property
    def position_index(self) -> int:
        return self.code // 100

    @property
    def fault_type(self) -> int:
        return self.code % 100

    def features(self) -> list[float]:
        return [*self.v_bus, *self.v_load, *self.v_fault]


def enumerate_train_cases() -> list[FaultCase]:
    """All 209 bolted cases ordered by (position, type)."""
    return [FaultCase(pos, ftype, 0.0)
            for pos in range(1, POSITION_COUNT + 1)
            for ftype in range(1, TYPE_COUNT + 1)]


def sample_test_cases(seed: int, r_max_ohms: float) -> list[FaultCase]:
    """209 cases with position/type uniform on the training grids and
    resistance uniform in [0, r_max)."""
    if not 0 < r_max_ohms < math.inf:
        raise ValueError(f"r_max must be in (0, inf), got {r_max_ohms!r}")
    rng = np.random.default_rng(seed)
    n = POSITION_COUNT * TYPE_COUNT
    positions = rng.integers(1, POSITION_COUNT + 1, size=n)
    types = rng.integers(1, TYPE_COUNT + 1, size=n)
    resistances = rng.uniform(0.0, r_max_ohms, size=n)
    return [FaultCase(int(p), int(t), float(r))
            for p, t, r in zip(positions, types, resistances)]


def base_network(config: CaseOneConfig | None = None) -> PhasorNetwork:
    """Source and load only; the line itself is added per fault case."""
    config = config or CaseOneConfig()
    net = PhasorNetwork()
    net.add_three_phase_source("bus", config.source_volts_ln, config.source_impedance)
    for phase in PHASES:
        net.add_branch(f"load.{phase}", "ground", config.load_impedance)
    return net


def build_row(case: FaultCase, config: CaseOneConfig | None = None) -> DatasetRow:
    """Solve one fault case and reduce it to a per-unit dataset row.

    The oracle behind `build_dataset`, which gives the same bits.
    """
    config = config or CaseOneConfig()
    r = case.fault_resistance
    spec = FaultSpec(case.fault_type, case.distance_km, (r, r, r), r)
    net = apply_fault(base_network(config), spec, config.line)
    sol = solve_steady_state(net)

    def pu(group: str) -> tuple[float, float, float]:
        return tuple(sol.rms(f"{group}.{p}") / VOLTAGE_BASE_V for p in PHASES)

    return DatasetRow(pu("bus"), pu("load"), pu("fault"), case.distance_km, case.code)


def build_dataset(cases: list[FaultCase],
                  config: CaseOneConfig | None = None) -> list[DatasetRow]:
    """Every case's row, in case order, with `build_row`'s bits.

    Cases of one fault type that are all bolted, or all resistive, share
    the merged node structure.  Each such group is stamped from one
    template network and solved in one stacked call.  A case the stacked
    solve cannot vouch for goes through `build_row`, in case order, so the
    first bad case raises the oracle's error.  Such a case has a distance
    that does not split the line, or sits in a group whose stacked solve
    raises, or has a zero diagonal, a non-finite solution or a KCL residual
    over 1e-9.
    """
    config = config or CaseOneConfig()
    line = config.line
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, case in enumerate(cases):
        if 0.0 < case.distance_km < line.length_km:
            key = (case.fault_type, case.fault_resistance == 0)
            groups.setdefault(key, []).append(i)

    rows: list[DatasetRow | None] = [None] * len(cases)
    # each row's two sections, as apply_fault splits the line
    sections = {i: (cases[i].distance_km, line.length_km - cases[i].distance_km)
                for idx in groups.values() for i in idx}
    lengths = sorted({x for pair in sections.values() for x in pair})
    if lengths:
        try:
            series = np.linalg.inv(np.stack([line.series_matrix(x) for x in lengths]))
        except np.linalg.LinAlgError:
            groups = {}  # build_row meets the same error in solve_steady_state
        shunt = np.stack([line.shunt_matrix_per_end(x) for x in lengths])
        at = {x: k for k, x in enumerate(lengths)}
    for (fault_type, bolted), idx in groups.items():
        template = _Template(fault_type, bolted, cases[idx[0]].distance_km, config)
        pick = [[at[x] for x in sections[i]] for i in idx]
        volts = template.solve([cases[i].fault_resistance for i in idx],
                               series[pick], shunt[pick])
        for i, pu in zip(idx, volts):
            if pu is not None:
                rows[i] = DatasetRow(tuple(pu[0:3]), tuple(pu[3:6]), tuple(pu[6:9]),
                                     cases[i].distance_km, cases[i].code)
    return [row if row is not None else build_row(case, config)
            for row, case in zip(rows, cases)]


class _Template:
    """`solve_steady_state`'s stamps for one fault structure, over many rows.

    The network that `apply_fault(base_network(config), ...)` builds for a
    fault type, bolted or at 1 ohm, fixes the merged nodes and every stamp.
    A row changes only values: the two sections' inverted series and shunt
    matrices, and each fault branch's admittance `1.0 / complex(r * ohms)`,
    where `ohms` is the branch's impedance here (1, or 2 for apply_fault's
    `r + r`, which is `2 * r` exactly).

    Each row's augmented matrix [Y | rhs] sums every entry's terms in
    `solve_steady_state`'s order: branches, then the sections entry by
    entry in (r, c) order, then sources.  So every entry has the oracle's
    bits.  The oracle skips a zero shunt term; adding it changes no bit,
    because an entry that starts at +0 and only adds is never -0.
    base_network adds no current injections, so none are stamped.
    """

    # term columns: 18 series then 18 shunt entries in (section, r, c)
    # order, the fault branch admittances, then the constant terms
    SHUNT, FAULT = 18, 36

    def __init__(self, fault_type: int, bolted: bool, distance_km: float,
                 config: CaseOneConfig):
        r = 0.0 if bolted else 1.0
        base = base_network(config)
        net = apply_fault(base, FaultSpec(fault_type, distance_km, (r, r, r), r),
                          config.line)
        row, roots = merge_nodes(len(net._ids), [(br.from_node, br.to_node)
                                                 for br in net.branches if br.is_short])
        n = self.n = len(roots)
        faults = [br for br in net.branches[len(base.branches):] if not br.is_short]
        self.fault_ohms = [br.series_impedance.real for br in faults]
        fault_terms = iter(range(self.FAULT, self.FAULT + len(faults)))
        self.constants: list[complex] = []
        ops: list[tuple[int, int, int, int]] = []  # (row, column, term, sign)

        def const(value: complex) -> int:
            self.constants.append(value)
            return self.FAULT + len(faults) + len(self.constants) - 1

        def add(i: int, j: int, term: int, sign: int = 1):
            ops.append((i, j, term, sign))

        def stamp(ia: int, ib: int, term: int):  # nodal.stamp
            if ia == ib:
                return
            if ia >= 0:
                add(ia, ia, term)
            if ib >= 0:
                add(ib, ib, term)
            if ia >= 0 and ib >= 0:
                add(ia, ib, term, -1)
                add(ib, ia, term, -1)

        for k, br in enumerate(net.branches):
            if br.is_short:
                continue
            ia, ib = row[br.from_node], row[br.to_node]
            stamp(ia, ib, const(1.0 / br.series_impedance)
                  if k < len(base.branches) else next(fault_terms))
            if br.shunt_admittance_per_end != 0:
                term = const(br.shunt_admittance_per_end)
                stamp(ia, -1, term)
                stamp(ib, -1, term)

        for s, cb in enumerate(net.coupled):
            for r in range(3):
                for c in range(3):
                    g = 9 * s + 3 * r + c
                    ys = self.SHUNT + g
                    ir, ic = row[cb.from_nodes[r]], row[cb.from_nodes[c]]
                    jr, jc = row[cb.to_nodes[r]], row[cb.to_nodes[c]]
                    if ir >= 0 and ic >= 0:
                        add(ir, ic, g)
                    if jr >= 0 and jc >= 0:
                        add(jr, jc, g)
                    if ir >= 0 and jc >= 0:
                        add(ir, jc, g, -1)
                    if jr >= 0 and ic >= 0:
                        add(jr, ic, g, -1)
                    if ir >= 0 and ic >= 0:
                        add(ir, ic, ys)
                    if jr >= 0 and jc >= 0:
                        add(jr, jc, ys)

        for src in net.sources:
            i = row[src.node]
            g = 1.0 / src.internal_impedance
            if i >= 0:
                add(i, i, const(g))
                add(i, n, const(src.emf * g))

        # Each step adds one term to each of a set of distinct entries; an
        # entry's k-th term is added in step k, so its sum keeps its order.
        # A subtracted term is a column of the negated copy of the terms.
        self.width = self.FAULT + len(faults) + len(self.constants)
        depth: dict[int, int] = {}
        steps: list[tuple[list[int], list[int]]] = []
        for i, j, term, sign in ops:
            entry = i * (n + 1) + j
            d = depth[entry] = depth.get(entry, -1) + 1
            if d == len(steps):
                steps.append(([], []))
            steps[d][0].append(entry)
            steps[d][1].append(term if sign > 0 else term + self.width)
        self.steps = [(np.array(e), np.array(c)) for e, c in steps]
        # the nine output nodes' rows; -1 (merged with ground) reads the
        # zero column appended after the n solved ones
        self.outputs = [row[node] for group in ("bus", "load", "fault")
                        for node in net.phase_nodes(group)]

    def solve(self, fault_resistances: list[float], series: np.ndarray,
              shunt: np.ndarray) -> list[list[float] | None]:
        """Per row, the nine per-unit RMS voltages (bus, load, fault), or
        None where the row must be solved alone.

        `series` holds each row's two inverted section series matrices and
        `shunt` their per-end shunt matrices, both (rows, 2, 3, 3).
        """
        m, n = len(fault_resistances), self.n
        terms = np.empty((m, self.width), dtype=complex)
        terms[:, :self.SHUNT] = series.reshape(m, 18)
        terms[:, self.SHUNT:self.FAULT] = shunt.reshape(m, 18)
        terms[:, self.FAULT:self.FAULT + len(self.fault_ohms)] = [
            [1.0 / complex(r * ohms) for ohms in self.fault_ohms]
            for r in fault_resistances]
        terms[:, self.FAULT + len(self.fault_ohms):] = self.constants
        signed = np.concatenate([terms, -terms], axis=1)
        aug = np.zeros((m, n * (n + 1)), dtype=complex)
        for entries, cols in self.steps:
            aug[:, entries] += signed[:, cols]
        aug = aug.reshape(m, n, n + 1)
        y, rhs = aug[:, :, :n], aug[:, :, n]

        good = np.all(y[:, range(n), range(n)] != 0, axis=1)
        try:
            v = np.linalg.solve(y, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return [None] * m
        good &= np.all(np.isfinite(v), axis=1)
        scale = np.maximum(np.max(np.abs(rhs[good]), axis=1), 1e-30)
        residual = np.max(np.abs(np.matmul(y[good], v[good, :, None])[:, :, 0]
                                 - rhs[good]), axis=1) / scale
        good[good] = residual <= 1e-9

        v = np.concatenate([v, np.zeros((m, 1))], axis=1)[:, self.outputs]
        # np.hypot, not np.abs: it has the scalar abs's bits at every SIMD level
        pu = np.hypot(v.real, v.imag) / VOLTAGE_BASE_V
        return [p if ok else None for p, ok in zip(pu.tolist(), good)]


def write_dataset(rows: list[DatasetRow], path) -> None:
    features = np.array([row.features() for row in rows],
                        dtype=float).reshape(len(rows), 9)
    codes = np.array([row.code for row in rows], dtype=np.int64)
    write_columns(path, DATASET_HEADER,
                  [*features.T,
                   np.array([row.distance_km for row in rows], dtype=float),
                   codes % 100, codes])


def rows_to_dataset(rows: list[DatasetRow]) -> Dataset:
    """Feature matrix of the nine voltages, labelled by the combined code."""
    if not rows:
        raise ValueError("no rows")
    features = np.array([row.features() for row in rows], dtype=float)
    labels = np.array([row.code for row in rows], dtype=int)
    return Dataset(features, labels, feature_names=list(DATASET_HEADER[:9]))
