"""Three independent solvers for the single-tool parallelization problem.

Given the time x_r committed to each recipe on one tool, the best possible
makespan reduction from running disjoint recipes concurrently is computed

* as an LP over per-edge pairing times (through the LP backend),
* as a max-flow on the source/sink-augmented doubled graph (dedicated
  augmenting-path code, no LP involved), and
* as the worst row of a cut matrix (pure arithmetic).

All three must agree; they cross-verify each other and the cut pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import lp
from .cuts import CutMatrix
from .errors import DomainError
from .recipes import ParallelGraph

FLOW_TOL = 1e-9


@dataclass(frozen=True)
class ParallelizationPlan:
    """Time spent per graph edge running its two recipes concurrently."""

    edge_time: tuple[float, ...]

    def total(self) -> float:
        return float(sum(self.edge_time))


@dataclass(frozen=True)
class FlowSolution:
    """Feasible flow on the doubled graph with source/sink attached.

    source_arc[r] is the flow s -> left r, sink_arc[r] the flow right r -> t,
    cross_arc[k] = (flow on (r1 -> r2~), flow on (r2 -> r1~)) for edge k.
    value is the total flow into the sink; min_cut_value the capacity of the
    residual-reachability cut, equal to value at optimality.
    """

    source_arc: tuple[float, ...]
    sink_arc: tuple[float, ...]
    cross_arc: tuple[tuple[float, float], ...]
    value: float
    min_cut_value: float


def _check_x(x, size: int) -> np.ndarray:
    """x as a float array of `size` finite, nonnegative recipe times."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (size,):
        raise DomainError(f"allocation vector must have length {size}")
    if not np.isfinite(arr).all():
        raise DomainError("allocation times must be finite")
    if np.any(arr < 0):
        raise DomainError("allocation times must be nonnegative")
    return arr


def solve_parallelization_lp(x, g: ParallelGraph) -> tuple[ParallelizationPlan, float]:
    """Maximize total pairing time subject to per-recipe availability.

    Always feasible (zero plan).  Each recipe's incident pairing times may not
    exceed its committed time x_r.
    """
    arr = _check_x(x, len(g.recipes))
    if not g.edges:
        return ParallelizationPlan(edge_time=()), 0.0
    build = lp.LpBuilder("parallelization", lp.MAXIMIZE)
    pairs = build.add_cols([f"pair_{g.labels[i]}_{g.labels[j]}" for i, j in g.edges])
    build.set_objective([(k, 1.0) for k in pairs])
    # one availability row per recipe with an incident edge
    used = [r for r, incident in enumerate(g.incident) if incident]
    cols = [k for r in used for k in g.incident[r]]
    build.add_rows(
        [f"avail_{g.labels[r]}" for r in used],
        [len(g.incident[r]) for r in used],
        cols,
        np.ones(len(cols)),
        lp.LE,
        arr[used],
    )
    sol = lp.solve(build.problem())
    if sol.status != lp.OPTIMAL:
        raise lp.LpSolverError(f"parallelization LP ended {sol.status}")
    plan = ParallelizationPlan(edge_time=sol.x)
    check_plan_feasible(plan, arr, g)
    return plan, sol.objective


def check_plan_feasible(plan: ParallelizationPlan, x, g: ParallelGraph, tol: float = 1e-8):
    arr = _check_x(x, len(g.recipes))
    if len(plan.edge_time) != len(g.edges):
        raise DomainError("plan does not match the graph's edge list")
    if any(v < -tol for v in plan.edge_time):
        raise DomainError("plan has negative pairing times")
    load = np.zeros(len(g.recipes))
    for k, (i, j) in enumerate(g.edges):
        load[i] += plan.edge_time[k]
        load[j] += plan.edge_time[k]
    bad = np.nonzero(load > arr + tol)[0]
    if bad.size:
        r = int(bad[0])
        raise DomainError(
            f"plan overcommits recipe {g.labels[r]}: {load[r]} > {arr[r]}"
        )


def solve_maxflow(x, g: ParallelGraph) -> FlowSolution:
    """Max flow through the doubled graph with capacities x_r/2 at the rim.

    Shortest augmenting paths (Edmonds-Karp) on adjacency lists.  Arc 2k is
    the k-th arc of the graph and arc 2k + 1 its reverse, so `e ^ 1` turns
    an arc around.  Each node lists its arcs in head-node order, so the
    breadth-first search meets nodes as a scan along the rows of a
    node-by-node residual matrix would, whatever the order of `g.edges`.
    Interior arcs get the safe finite capacity sum(x); total flow can never
    exceed sum(x)/2 per side.  The returned cut value is measured on the
    residual graph and must equal the flow value.
    """
    arr = _check_x(x, len(g.recipes))
    m = len(g.recipes)
    n_nodes = 2 * m + 2
    s, t = 2 * m, 2 * m + 1
    rim = (arr / 2.0).tolist()
    inf_cap = float(arr.sum())
    # s -> left r, right r -> t, then per edge (i, j): i -> right j, j -> right i
    arcs = [(s, r, rim[r]) for r in range(m)] + [(m + r, t, rim[r]) for r in range(m)]
    for i, j in g.edges:
        arcs += ((i, m + j, inf_cap), (j, m + i, inf_cap))
    head, residual = [], []
    adj = [[] for _ in range(n_nodes)]
    for u, v, c in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        residual += (c, 0.0)
    for out in adj:
        out.sort(key=head.__getitem__)
    value = 0.0
    while True:
        via = {s: None}  # node -> the arc the search first reached it by
        queue = deque([s])
        while queue and t not in via:
            u = queue.popleft()
            for e in adj[u]:
                if FLOW_TOL < residual[e] and head[e] not in via:
                    via[head[e]] = e
                    queue.append(head[e])
        if t not in via:
            break  # the last search reached every node the residual graph reaches
        path = []
        v = t
        while v != s:
            path.append(via[v])
            v = head[via[v] ^ 1]
        bottleneck = min(residual[e] for e in path)
        for e in path:
            residual[e] -= bottleneck
            residual[e ^ 1] += bottleneck
        value += bottleneck
    flow = [c - residual[2 * k] for k, (_, _, c) in enumerate(arcs)]
    # the capacity of the arcs leaving the reached nodes, summed as one block
    # of the node-by-node capacity matrix, so that the sum rounds the same
    # way whatever the arc order
    reach = np.zeros(n_nodes, dtype=bool)
    reach[list(via)] = True
    cap = np.zeros((n_nodes, n_nodes))
    tails, heads, caps = zip(*arcs)
    cap[tails, heads] = caps
    cut_value = cap[np.ix_(reach, ~reach)].sum()
    return FlowSolution(
        source_arc=tuple(max(f, 0.0) for f in flow[:m]),
        sink_arc=tuple(max(f, 0.0) for f in flow[m : 2 * m]),
        cross_arc=tuple(
            (max(flow[k], 0.0), max(flow[k + 1], 0.0)) for k in range(2 * m, len(arcs), 2)
        ),
        value=value,
        min_cut_value=float(cut_value),
    )


def makespan_via_cuts(x, matrix: CutMatrix) -> float:
    """Worst coefficient row applied to x: max_k sum_r (1 - w_{r,k}) x_r.

    Equals sum(x) minus the max-flow value for the same x.
    """
    arr = _check_x(x, len(matrix.labels))
    return float((matrix.coeffs @ arr).max())
