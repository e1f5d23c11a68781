"""Fault dataset builder for a 400 kV, 100 km transmission line.

Builds steady-state shunt-fault cases on a two-section line model: 19 fault
positions every 5 km times 11 fault types.  Each case is solved with the
phasor solver and reduced to a row of nine per-unit RMS voltages (sending
bus, receiving load, fault point) plus the fault distance and a combined
position/type code.  Rows feed the nearest-neighbour classifier from the ml
module.

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
from .report import write_csv

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
        if self.fault_resistance < 0:
            raise ValueError("fault resistance must be >= 0")
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
    if r_max_ohms <= 0:
        raise ValueError("r_max must be > 0")
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
    """Solve one fault case and reduce it to a per-unit dataset row."""
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
    config = config or CaseOneConfig()
    return [build_row(case, config) for case in cases]


def write_dataset(rows: list[DatasetRow], path) -> None:
    write_csv(path, DATASET_HEADER,
              ([*map(float, row.features()), float(row.distance_km),
                row.fault_type, row.code] for row in rows))


def rows_to_dataset(rows: list[DatasetRow]) -> Dataset:
    """Feature matrix of the nine voltages, labelled by the combined code."""
    if not rows:
        raise ValueError("no rows")
    features = np.array([row.features() for row in rows], dtype=float)
    labels = np.array([row.code for row in rows], dtype=int)
    return Dataset(features, labels, feature_names=list(DATASET_HEADER[:9]))
