"""Fault dataset builder for a 400 kV, 100 km transmission line.

Builds steady-state shunt-fault cases on a two-section line model: 19 fault
positions every 5 km times 11 fault types.  Each case is solved as a phasor
network and reduced to a row of nine per-unit RMS voltages (sending bus,
receiving load, fault point) plus the fault distance and a combined
position/type code.  Rows feed the nearest-neighbour classifier from the ml
module.

`build_dataset` solves the cases in lock step: the cases of one fault type,
bolted or resistive, share one merged node structure, so one call of
`phasor.nodal_system` stamps all their nodal matrices from per-case values
and one stacked solve solves them.  `solve_steady_state` stamps one case
with the same function, so each row has the bits of `build_row`, which
solves one case with `apply_fault` and `solve_steady_state` and stays the
oracle.

Training cases are bolted (zero resistance) and enumerated in (position,
type) order; test cases draw position and type uniformly from the same grids
and a fault resistance uniform in [0, r_max).  The per-unit base is the rated
phase-to-ground RMS voltage, 400 kV / sqrt(3).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .ml import Dataset
from .phasor import (
    PHASES,
    FaultSpec,
    LineSectionModel,
    PhasorNetwork,
    apply_fault,
    nodal_system,
    solve_steady_state,
)
from .nodal import merge_nodes
from .record import field, record
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


@record
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


@record
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


class DatasetRow(NamedTuple):
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
    the merged node structure of the network `apply_fault` builds for them.
    Each such group is stamped once by `phasor.nodal_system` with per-case
    values (the two sections' inverted series and shunt matrices, each
    fault branch's admittance) and solved in one stacked call.  A case the
    stacked solve cannot vouch for goes through `build_row`, in case order,
    so the first bad case raises the oracle's error.  Such a case has a
    distance that does not split the line, or sits in a group whose stacked
    solve raises, or has a zero diagonal, a non-finite solution or a KCL
    residual over 1e-9.
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
        # the group's network, bolted or at 1 ohm: a fault branch's impedance
        # there is the `ohms` that multiplies each case's resistance (1, or 2
        # for apply_fault's `r + r`, which is `2 * r` exactly)
        r = 0.0 if bolted else 1.0
        base = base_network(config)
        net = apply_fault(base, FaultSpec(fault_type, cases[idx[0]].distance_km,
                                          (r, r, r), r), line)
        row, roots = merge_nodes(len(net._ids), [(br.from_node, br.to_node)
                                                 for br in net.branches if br.is_short])
        resistances = [cases[i].fault_resistance for i in idx]
        admittances = [
            None if br.is_short
            else 1.0 / br.series_impedance if k < len(base.branches)
            else np.array([1.0 / complex(x * br.series_impedance.real) for x in resistances])
            for k, br in enumerate(net.branches)]
        # (section, 3, 3, rows), contiguous so each entry is one (rows,) run
        pick = [[at[x] for x in sections[i]] for i in idx]
        blocks = [np.ascontiguousarray(a[pick].transpose(1, 2, 3, 0)) for a in (series, shunt)]
        y, rhs = nodal_system(net, row, len(roots), admittances, list(zip(*blocks)),
                              rows=(len(idx),))
        # the nine output nodes' rows (bus, load, fault); -1 (merged with
        # ground) reads the zero row appended after the solved ones
        outputs = [row[node] for group in ("bus", "load", "fault")
                   for node in net.phase_nodes(group)]
        for i, pu in zip(idx, _solve_group(y, rhs, outputs)):
            if pu is not None:
                rows[i] = DatasetRow(tuple(pu[0:3]), tuple(pu[3:6]), tuple(pu[6:9]),
                                     cases[i].distance_km, cases[i].code)
    return [row if row is not None else build_row(case, config)
            for row, case in zip(rows, cases)]


def _solve_group(y: np.ndarray, rhs: np.ndarray,
                 outputs: list[int]) -> list[list[float] | None]:
    """Per case of the stacked system (y (n, n, m), rhs (n, m)), the per-unit
    RMS voltages at the `outputs` rows, or None where the case must be solved
    alone: the stacked solve raises, or the case has a zero diagonal, a
    non-finite solution or a KCL residual over 1e-9, as `solve_steady_state`
    checks them.
    """
    n, m = rhs.shape
    y = np.moveaxis(y, -1, 0)
    rhs = rhs.T
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

    v = np.concatenate([v, np.zeros((m, 1))], axis=1)[:, outputs]
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
