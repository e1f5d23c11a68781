"""Node bookkeeping shared by the phasor and transient solvers.

Both solvers name nodes by string (node 0 is ground) and stamp
two-terminal elements into a nodal matrix.  The phasor solver first merges
the end nodes of bolted branches instead of stamping a huge conductance, so
its rows are the merged groups; the transient solver merges nothing, and
its row k - 1 is node k.
"""

from __future__ import annotations

GROUND = 0


class NodeRegistry:
    """Name <-> id table; "ground" and "0" both name node 0."""

    def __init__(self):
        self._names: dict[str, int] = {"ground": GROUND, "0": GROUND}
        self._ids: list[str] = ["ground"]

    def node(self, name: str) -> int:
        """Return the id for `name`, creating the node on first use."""
        if name in self._names:
            return self._names[name]
        idx = len(self._ids)
        self._names[name] = idx
        self._ids.append(name)
        return idx

    def node_name(self, idx: int) -> str:
        return self._ids[idx]


def merge_nodes(n_nodes: int, pairs) -> tuple[list[int], list[int]]:
    """Matrix rows after merging the two nodes of every pair.

    Returns (row, roots): row[i] is node i's row, -1 when it is merged with
    ground; roots[r] is the smallest node id in row r.  Each group is rooted
    at its smallest id and rows follow node-id order, so the result does not
    depend on the order of `pairs`.
    """
    parent = list(range(n_nodes))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    row: list[int] = []
    roots: list[int] = []
    for idx in range(n_nodes):
        r = find(idx)
        if r == GROUND:
            row.append(-1)
        elif r == idx:
            row.append(len(roots))
            roots.append(idx)
        else:
            row.append(row[r])  # r < idx, so its row is already known
    return row, roots


def stamp(y, ia: int, ib: int, g):
    """Add admittance g between rows ia and ib; a negative row is ground."""
    if ia == ib:
        return
    if ia >= 0:
        y[ia, ia] += g
    if ib >= 0:
        y[ib, ib] += g
    if ia >= 0 and ib >= 0:
        y[ia, ib] -= g
        y[ib, ia] -= g
