"""Slow references and flow checks for the flow layer, used only by the tests."""

import numpy as np

from clustercap import lp
from clustercap.errors import DomainError
from clustercap.flows import (
    FLOW_TOL,
    FlowSolution,
    ParallelizationPlan,
    _check_x,
    check_plan_feasible,
)
from clustercap.recipes import ParallelGraph


def builder_pairing_lp(x, g: ParallelGraph) -> tuple[ParallelizationPlan, float]:
    """`solve_parallelization_lp` built as a named LP: one pairing-time
    variable per edge, maximize their sum, and one `<=` availability row per
    recipe with an incident edge, through `LpBuilder` and `lp.solve`."""
    arr = _check_x(x, len(g.recipes))
    if not g.edges:
        return ParallelizationPlan(edge_time=()), 0.0
    build = lp.LpBuilder("parallelization", lp.MAXIMIZE)
    for i, j in g.edges:
        build.add_var(f"pair_{g.labels[i]}_{g.labels[j]}")
    build.set_objective((k, 1.0) for k in range(len(g.edges)))
    for r, incident in enumerate(g.incident):
        if incident:
            build.add_constraint(
                f"avail_{g.labels[r]}", [(k, 1.0) for k in incident], lp.LE, arr[r]
            )
    sol = lp.solve(build.problem())
    assert sol.status == lp.OPTIMAL, sol.status
    return ParallelizationPlan(edge_time=sol.x), sol.objective


def dense_maxflow(x, g: ParallelGraph) -> FlowSolution:
    """`solve_maxflow` on a dense residual matrix, scanned with `np.nonzero`
    at every node visit: breadth-first augmenting paths, then the cut of
    the nodes the residual graph still reaches from the source."""
    arr = _check_x(x, len(g.recipes))
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
    arr = _check_x(x, len(g.recipes))
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
