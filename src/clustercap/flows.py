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


def _check_x(x, g: ParallelGraph) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (len(g.recipes),):
        raise DomainError(f"allocation vector must have length {len(g.recipes)}")
    if np.any(arr < 0):
        raise DomainError("allocation times must be nonnegative")
    return arr


def solve_parallelization_lp(x, g: ParallelGraph) -> tuple[ParallelizationPlan, float]:
    """Maximize total pairing time subject to per-recipe availability.

    Always feasible (zero plan).  Each recipe's incident pairing times may not
    exceed its committed time x_r.
    """
    arr = _check_x(x, g)
    if not g.edges:
        return ParallelizationPlan(edge_time=()), 0.0
    build = lp.LpBuilder("parallelization", lp.MAXIMIZE)
    for k, (i, j) in enumerate(g.edges):
        build.add_var(f"pair_{g.labels[i]}_{g.labels[j]}")
    build.set_objective((k, 1.0) for k in range(len(g.edges)))
    for r, incident in enumerate(g.incident):
        if incident:
            build.add_constraint(
                f"avail_{g.labels[r]}", [(k, 1.0) for k in incident], lp.LE, arr[r]
            )
    sol = lp.solve(build.problem())
    if sol.status != lp.OPTIMAL:
        raise lp.LpSolverError(f"parallelization LP ended {sol.status}")
    plan = ParallelizationPlan(edge_time=sol.x)
    check_plan_feasible(plan, arr, g)
    return plan, sol.objective


def check_plan_feasible(plan: ParallelizationPlan, x, g: ParallelGraph, tol: float = 1e-8):
    arr = _check_x(x, g)
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

    Breadth-first augmenting paths (shortest first).  Interior arcs get the
    safe finite capacity sum(x); total flow can never exceed sum(x)/2 per
    side.  The returned cut value is measured on the residual graph and must
    equal the flow value.
    """
    arr = _check_x(x, g)
    m = len(g.recipes)
    n_nodes = 2 * m + 2
    s, t = 2 * m, 2 * m + 1
    cap = np.zeros((n_nodes, n_nodes))
    inf_cap = float(arr.sum())
    for r in range(m):
        cap[s, r] = arr[r] / 2.0
        cap[m + r, t] = arr[r] / 2.0
    for i, j in g.edges:
        cap[i, m + j] = inf_cap
        cap[j, m + i] = inf_cap
    residual = cap.copy()
    value = 0.0
    parent = np.full(n_nodes, -1, dtype=int)
    while True:
        parent[:] = -1
        parent[s] = s
        queue = [s]
        while queue and parent[t] < 0:
            nxt = []
            for u in queue:
                for v in np.nonzero(residual[u] > FLOW_TOL)[0]:
                    if parent[v] < 0:
                        parent[v] = u
                        nxt.append(int(v))
            queue = nxt
        if parent[t] < 0:
            break
        bottleneck = np.inf
        v = t
        while v != s:
            u = parent[v]
            bottleneck = min(bottleneck, residual[u, v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u, v] -= bottleneck
            residual[v, u] += bottleneck
            v = u
        value += bottleneck
    flow = cap - residual
    # cut from residual reachability
    reach = np.zeros(n_nodes, dtype=bool)
    reach[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for v in np.nonzero(residual[u] > FLOW_TOL)[0]:
            if not reach[v]:
                reach[v] = True
                stack.append(int(v))
    cut_value = float(cap[np.ix_(reach, ~reach)].sum())
    return FlowSolution(
        source_arc=tuple(max(float(flow[s, r]), 0.0) for r in range(m)),
        sink_arc=tuple(max(float(flow[m + r, t]), 0.0) for r in range(m)),
        cross_arc=tuple(
            (max(float(flow[i, m + j]), 0.0), max(float(flow[j, m + i]), 0.0))
            for i, j in g.edges
        ),
        value=float(value),
        min_cut_value=cut_value,
    )


def check_flow_feasible(f: FlowSolution, x, g: ParallelGraph, tol: float = 1e-8):
    """Conservation at every copy and rim capacities x_r/2."""
    arr = _check_x(x, g)
    m = len(g.recipes)
    out_left = np.zeros(m)
    in_right = np.zeros(m)
    for k, (i, j) in enumerate(g.edges):
        fwd, back = f.cross_arc[k]
        if fwd < -tol or back < -tol:
            raise DomainError("negative arc flow")
        out_left[i] += fwd
        in_right[j] += fwd
        out_left[j] += back
        in_right[i] += back
    for r in range(m):
        if abs(out_left[r] - f.source_arc[r]) > tol:
            raise DomainError(f"flow conservation violated at left {g.labels[r]}")
        if abs(in_right[r] - f.sink_arc[r]) > tol:
            raise DomainError(f"flow conservation violated at right {g.labels[r]}")
        if f.source_arc[r] > arr[r] / 2.0 + tol or f.sink_arc[r] > arr[r] / 2.0 + tol:
            raise DomainError(f"rim capacity exceeded at {g.labels[r]}")


def flow_to_xi(f: FlowSolution, x, g: ParallelGraph) -> ParallelizationPlan:
    """Fold a feasible flow into a pairing plan: both directed arcs of an
    edge contribute to its pairing time.  The plan total equals the flow
    value, and feasibility carries over."""
    check_flow_feasible(f, x, g)
    plan = ParallelizationPlan(
        edge_time=tuple(fwd + back for fwd, back in f.cross_arc)
    )
    check_plan_feasible(plan, x, g)
    return plan


def makespan_via_cuts(x, matrix: CutMatrix) -> float:
    """Worst coefficient row applied to x: max_k sum_r (1 - w_{r,k}) x_r.

    Equals sum(x) minus the max-flow value for the same x.
    """
    arr = np.asarray(x, dtype=float)
    if arr.shape != (len(matrix.labels),):
        raise DomainError(f"allocation vector must have length {len(matrix.labels)}")
    if np.any(arr < 0):
        raise DomainError("allocation times must be nonnegative")
    return float((matrix.coeffs @ arr).max())
