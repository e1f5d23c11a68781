"""Steady-state phasor solver for small three-phase networks.

Networks are built from named nodes (node 0 is ground), series branches,
three-phase coupled branches with optional shunt admittance at each end, and
Thevenin sources.  All quantities are RMS phasors held as Python complex
numbers.

The solver assembles a complex nodal admittance matrix and solves it with
numpy's dense solver.  Zero-impedance branches (bolted connections) are not
stamped as admittances; their end nodes are merged before assembly so bolted
faults produce exact node voltages instead of ill-conditioned near-shorts.
`nodal_system` does the assembly, for one case or for a stack of cases that
share the merged node structure (the fault lab's lock-step solve).
"""

from __future__ import annotations

import copy
import math
from typing import NamedTuple

import numpy as np

from .nodal import NodeRegistry, merge_nodes, stamp
from .record import record

PHASES = ("A", "B", "C")

# fault_type -> (faulted phase indices, grounded)
FAULT_CONNECTIONS = {
    1: ((0, 1, 2), True),   # ABC to ground
    2: ((0, 1, 2), False),  # ABC isolated
    3: ((0, 1), True),      # AB to ground
    4: ((1, 2), True),      # BC to ground
    5: ((0, 2), True),      # AC to ground
    6: ((0, 1), False),     # AB
    7: ((1, 2), False),     # BC
    8: ((0, 2), False),     # AC
    9: ((0,), True),        # A to ground
    10: ((1,), True),       # B to ground
    11: ((2,), True),       # C to ground
}


class SingularNetworkError(ValueError):
    """Nodal matrix cannot be solved; `node` names the offending node if known."""

    def __init__(self, message: str, node: str | None = None):
        super().__init__(message)
        self.node = node


class Branch(NamedTuple):
    from_node: int
    to_node: int
    series_impedance: complex

    @property
    def is_short(self) -> bool:
        return self.series_impedance == 0


class CoupledBranch(NamedTuple):
    """Three-phase series element with a full 3x3 impedance matrix."""

    from_nodes: tuple[int, int, int]
    to_nodes: tuple[int, int, int]
    series_impedance: np.ndarray          # 3x3 complex, symmetric
    shunt_admittance_per_end: np.ndarray  # 3x3 complex, symmetric


class Source(NamedTuple):
    """Ideal emf behind a nonzero internal impedance (Thevenin form)."""

    node: int
    emf: complex
    internal_impedance: complex


@record
class FaultSpec:
    """Shunt fault at a point along a line section.

    fault_type uses the 11-entry code: 1 ABCG, 2 ABC, 3 ABG, 4 BCG, 5 ACG,
    6 AB, 7 BC, 8 AC, 9 AG, 10 BG, 11 CG.
    """

    fault_type: int
    distance_km: float
    phase_resistances: tuple[float, float, float] = (0.0, 0.0, 0.0)
    ground_resistance: float = 0.0

    def __post_init__(self):
        if self.fault_type not in FAULT_CONNECTIONS:
            raise ValueError(f"unknown fault code {self.fault_type}; valid codes are 1..11")
        if not all(math.isfinite(r) and r >= 0 for r in self.phase_resistances):
            raise ValueError("phase_resistances must be finite and >= 0, "
                             f"got {self.phase_resistances}")
        if not (math.isfinite(self.ground_resistance) and self.ground_resistance >= 0):
            raise ValueError("ground_resistance must be finite and >= 0, "
                             f"got {self.ground_resistance}")


class LineSectionModel(NamedTuple):
    """Per-km line parameters given as positive/zero-sequence values.

    mutual_skew redistributes the phase-to-phase mutual impedance the way a
    flat, untransposed conductor arrangement does: the two adjacent pairs get
    zm*(1+skew) and the outer pair gets zm*(1-2*skew), which keeps the mutual
    average (and hence the sequence averages) unchanged.  skew=0 reproduces a
    perfectly transposed line.
    """

    z1_ohm_per_km: complex
    z0_ohm_per_km: complex
    y1_siemens_per_km: complex = 0j
    y0_siemens_per_km: complex = 0j
    length_km: float = 1.0
    mutual_skew: float = 0.0

    def series_matrix(self, length_km: float | None = None) -> np.ndarray:
        length = self.length_km if length_km is None else length_km
        zs = (self.z0_ohm_per_km + 2 * self.z1_ohm_per_km) / 3.0
        zm = (self.z0_ohm_per_km - self.z1_ohm_per_km) / 3.0
        m_adj = zm * (1.0 + self.mutual_skew)
        m_out = zm * (1.0 - 2.0 * self.mutual_skew)
        z = np.array(
            [[zs, m_adj, m_out],
             [m_adj, zs, m_adj],
             [m_out, m_adj, zs]],
            dtype=complex,
        )
        return z * length

    def shunt_matrix_per_end(self, length_km: float | None = None) -> np.ndarray:
        length = self.length_km if length_km is None else length_km
        ys = (self.y0_siemens_per_km + 2 * self.y1_siemens_per_km) / 3.0
        ym = (self.y0_siemens_per_km - self.y1_siemens_per_km) / 3.0
        y = np.array(
            [[ys, ym, ym],
             [ym, ys, ym],
             [ym, ym, ys]],
            dtype=complex,
        )
        return y * (length / 2.0)


class PhasorNetwork(NodeRegistry):
    """Mutable container for nodes, branches and sources."""

    def __init__(self):
        super().__init__()
        self.branches: list[Branch] = []
        self.coupled: list[CoupledBranch] = []
        self.sources: list[Source] = []

    def phase_nodes(self, group: str) -> tuple[int, int, int]:
        return tuple(self.node(f"{group}.{p}") for p in PHASES)

    # -- construction -------------------------------------------------------

    def add_branch(self, from_node: str, to_node: str, series_impedance: complex) -> Branch:
        br = Branch(self.node(from_node), self.node(to_node), complex(series_impedance))
        self.branches.append(br)
        return br

    def add_coupled_branch(self, from_group: str, to_group: str, series_matrix: np.ndarray,
                           shunt_matrix_per_end: np.ndarray | None = None) -> CoupledBranch:
        z = np.asarray(series_matrix, dtype=complex)
        if z.shape != (3, 3):
            raise ValueError("coupled branch needs a 3x3 impedance matrix")
        y = (np.zeros((3, 3), dtype=complex) if shunt_matrix_per_end is None
             else np.asarray(shunt_matrix_per_end, dtype=complex))
        br = CoupledBranch(self.phase_nodes(from_group), self.phase_nodes(to_group), z, y)
        self.coupled.append(br)
        return br

    def add_source(self, node: str, emf: complex, internal_impedance: complex) -> Source:
        if internal_impedance == 0:
            raise ValueError("source internal impedance must be nonzero "
                             "(ideal sources are not representable in the nodal form)")
        src = Source(self.node(node), complex(emf), complex(internal_impedance))
        self.sources.append(src)
        return src

    def add_three_phase_source(self, group: str, volts_line_to_neutral: float,
                               internal_impedance: complex):
        """Balanced positive-sequence source on nodes group.A/B/C."""
        for k, phase in enumerate(PHASES):
            ang = math.radians(0.0 - 120.0 * k)  # phase A at +0 degrees
            emf = volts_line_to_neutral * complex(math.cos(ang), math.sin(ang))
            self.add_source(f"{group}.{phase}", emf, internal_impedance)

    def copy(self) -> "PhasorNetwork":
        return copy.deepcopy(self)


class PhasorSolution(NamedTuple):
    network: PhasorNetwork
    node_voltages: np.ndarray            # complex, indexed by node id; ground = 0

    def voltage(self, name: str) -> complex:
        return self.node_voltages[self.network._names[name]]

    def rms(self, name: str) -> float:
        return abs(self.voltage(name))


def nodal_system(net: PhasorNetwork, row: list[int], n: int, admittances, sections,
                 rows: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodal matrix y and current vector rhs of `net` on its merged rows.

    `row` and `n` come from `merge_nodes`.  admittances[k] is branch k's
    series admittance (unused for a bolted branch); sections[k] is coupled
    branch k's (inverted series matrix, per-end shunt matrix).  A value is a
    scalar, or an array over a stack of `rows` cases (a section block then
    has shape (3, 3, *rows)).  y is laid out (n, n, *rows) and rhs
    (n, *rows), so one += adds a term to an entry of every case, and each
    entry sums its terms in one order: branches, coupled branches entry by
    entry in (r, c) order, sources.  Zero shunt terms are added too: every
    entry starts at +0 and no sum or difference turns +0 into -0, so a zero
    term changes no bit.
    """
    y = np.zeros((n, n, *rows), dtype=complex)
    rhs = np.zeros((n, *rows), dtype=complex)
    for br, g in zip(net.branches, admittances):
        if not br.is_short:
            stamp(y, row[br.from_node], row[br.to_node], g)

    for cb, (yblk, yshunt) in zip(net.coupled, sections):
        for r in range(3):
            for c in range(3):
                g, ys = yblk[r, c], yshunt[r, c]
                ir, ic = row[cb.from_nodes[r]], row[cb.from_nodes[c]]
                jr, jc = row[cb.to_nodes[r]], row[cb.to_nodes[c]]
                if ir >= 0 and ic >= 0:
                    y[ir, ic] += g
                if jr >= 0 and jc >= 0:
                    y[jr, jc] += g
                if ir >= 0 and jc >= 0:
                    y[ir, jc] -= g
                if jr >= 0 and ic >= 0:
                    y[jr, ic] -= g
                if ir >= 0 and ic >= 0:
                    y[ir, ic] += ys
                if jr >= 0 and jc >= 0:
                    y[jr, jc] += ys

    for src in net.sources:
        i = row[src.node]
        g = 1.0 / src.internal_impedance
        if i >= 0:
            y[i, i] += g
            rhs[i] += src.emf * g
    return y, rhs


def solve_steady_state(net: PhasorNetwork) -> PhasorSolution:
    """Solve nodal equations; KCL residual is checked to 1e-9 (relative)."""
    if not net.sources:
        raise SingularNetworkError("network has no sources")

    row, roots = merge_nodes(len(net._ids), [(br.from_node, br.to_node)
                                             for br in net.branches if br.is_short])
    n = len(roots)
    if n == 0:
        raise SingularNetworkError("all nodes are bolted to ground")

    y, rhs = nodal_system(
        net, row, n,
        [None if br.is_short else 1.0 / br.series_impedance for br in net.branches],
        [(np.linalg.inv(cb.series_impedance), cb.shunt_admittance_per_end)
         for cb in net.coupled])

    for r, root in enumerate(roots):
        if y[r, r] == 0:
            raise SingularNetworkError(
                f"node '{net.node_name(root)}' is isolated (zero diagonal)",
                node=net.node_name(root))

    try:
        v_red = np.linalg.solve(y, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularNetworkError(f"singular nodal matrix: {exc}") from exc
    if not np.all(np.isfinite(v_red)):
        raise SingularNetworkError("singular nodal matrix (solution is not finite)")

    scale = max(np.max(np.abs(rhs)) if n else 0.0, 1e-30)
    residual = np.max(np.abs(y @ v_red - rhs)) / scale
    if not residual <= 1e-9:
        raise SingularNetworkError(
            f"KCL residual {residual:.3e} exceeds 1e-9; matrix is numerically singular")

    voltages = np.zeros(len(row), dtype=complex)
    for idx, i in enumerate(row):
        voltages[idx] = v_red[i] if i >= 0 else 0j

    return PhasorSolution(net, voltages)


# -- faults -------------------------------------------------------------------


def apply_fault(net: PhasorNetwork, fault: FaultSpec,
                line: LineSectionModel) -> PhasorNetwork:
    """Return a copy of `net` with the line split at the fault point.

    `net` must already contain the sending nodes bus.A/B/C; the line runs
    from them through fault.A/B/C to load.A/B/C, and the fault branches for
    the requested fault code are added at the fault nodes of the copy.  The
    original network is untouched.
    """
    if not (0.0 < fault.distance_km < line.length_km):
        raise ValueError(
            f"fault distance {fault.distance_km} km must split the {line.length_km} km "
            "line into two sections of positive length")

    out = net.copy()
    d = fault.distance_km
    rest = line.length_km - d
    out.add_coupled_branch("bus", "fault",
                           line.series_matrix(d), line.shunt_matrix_per_end(d))
    out.add_coupled_branch("fault", "load",
                           line.series_matrix(rest), line.shunt_matrix_per_end(rest))

    phases, grounded = FAULT_CONNECTIONS[fault.fault_type]
    fault_nodes = [f"fault.{PHASES[k]}" for k in phases]
    if len(phases) == 2 and not grounded:
        # isolated phase-to-phase fault: one branch carrying both resistances
        r = fault.phase_resistances[phases[0]] + fault.phase_resistances[phases[1]]
        out.add_branch(fault_nodes[0], fault_nodes[1], complex(r))
        return out

    common = "fault.common"
    for k, name in zip(phases, fault_nodes):
        out.add_branch(name, common, complex(fault.phase_resistances[k]))
    if grounded:
        out.add_branch(common, "ground", complex(fault.ground_resistance))
    return out
