"""Three independent solvers for the single-tool parallelization problem.

Given the time x_r committed to each recipe on one tool, the best possible
makespan reduction from running disjoint recipes concurrently is computed

* as an LP over per-edge pairing times (through the LP backend),
* as a max-flow on the source/sink-augmented doubled graph (dedicated
  augmenting-path code, no LP involved), and
* as the worst row of a cut matrix (pure arithmetic).

All three must agree; they cross-verify each other and the cut pipeline.
Callers such as `clustercap verify` run the first two many times on one graph
with a new x each time, so what depends only on the graph is kept between
calls.  Each thread holds one HiGHS model of the pairing LP, for the last
graph it solved; a call edits its row bounds to x and clears its basis, so
that every call solves from scratch, as on a new model.  The max flow keeps
the arcs and adjacency lists of the last graph it ran on, and fills in only
the capacities.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain

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
    """x as a float array of `size` nonnegative recipe times with a finite
    sum, so that each time is finite too."""
    arr = np.asarray(x, dtype=float)
    if arr.shape != (size,):
        raise DomainError(f"allocation vector must have length {size}")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        total = arr.sum()
    if not np.isfinite(total):
        raise DomainError("allocation times must be finite, and so must their sum")
    if np.any(arr < 0):
        raise DomainError("allocation times must be nonnegative")
    return arr


_pairing = threading.local()  # `held`: this thread's (graph, handle, recipes bounded)


def _pairing_lp(g: ParallelGraph) -> tuple[lp.Handle, np.ndarray]:
    """This thread's handle of the pairing LP of `g`, built when the last
    graph it solved was another, and the recipes its rows bound, in row
    order: one `avail_<r>` row per recipe with an incident edge."""
    held = getattr(_pairing, "held", None)
    if held is None or held[0] is not g:
        build = lp.LpBuilder("parallelization", lp.MAXIMIZE)
        pairs = build.add_cols([f"pair_{g.labels[i]}_{g.labels[j]}" for i, j in g.edges])
        build.set_objective([(k, 1.0) for k in pairs])
        used = [r for r, incident in enumerate(g.incident) if incident]
        cols = [k for r in used for k in g.incident[r]]
        build.add_rows(
            [f"avail_{g.labels[r]}" for r in used],
            [len(g.incident[r]) for r in used],
            cols,
            np.ones(len(cols)),
            lp.LE,
            np.inf,  # each call sets the bounds from its x
        )
        held = _pairing.held = (g, lp.Handle(build.problem()), np.array(used))
    return held[1], held[2]


def solve_parallelization_lp(x, g: ParallelGraph) -> tuple[ParallelizationPlan, float]:
    """Maximize total pairing time subject to per-recipe availability.

    Always feasible (zero plan).  Each recipe's incident pairing times may not
    exceed its committed time x_r.  The LP is this thread's held model of
    `g`, with its row bounds set to x and its basis cleared, so the answer
    is the one a new model of the same LP gives; it is certified against
    those bounds, and the plan checked against x, on every call.
    """
    arr = _check_x(x, len(g.recipes))
    if not g.edges:
        return ParallelizationPlan(edge_time=()), 0.0
    handle, used = _pairing_lp(g)
    handle.set_row_upper(np.arange(len(used)), arr[used])
    handle.clear()
    sol = handle.run()
    if sol.status != lp.OPTIMAL:
        raise lp.LpSolverError(f"parallelization LP ended {sol.status}")
    handle.certify(sol)
    plan = ParallelizationPlan(edge_time=sol.x)
    check_plan_feasible(plan, arr, g)
    return plan, sol.objective


def check_plan_feasible(plan: ParallelizationPlan, x, g: ParallelGraph):
    """Raise DomainError unless the plan's times are >= 0 and fit x, to lp.TOL (NaN fails)."""
    arr = _check_x(x, len(g.recipes))
    tol = lp.TOL.feasibility
    if len(plan.edge_time) != len(g.edges):
        raise DomainError("plan does not match the graph's edge list")
    if not all(v >= -tol for v in plan.edge_time):
        raise DomainError("plan has negative or NaN pairing times")
    # each edge's time added to both its ends, edge by edge: [i0, j0, i1, j1, ...]
    ends = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * len(g.edges))
    load = np.bincount(ends, np.repeat(plan.edge_time, 2), len(g.recipes))
    bad = np.flatnonzero(~(load <= arr + tol))
    if bad.size:
        r = int(bad[0])
        raise DomainError(
            f"plan overcommits recipe {g.labels[r]}: {load[r]} > {arr[r]}"
        )


@dataclass(frozen=True, eq=False)
class _Network:
    """The doubled graph with source and sink attached, as far as it depends
    only on the graph: arc 2k runs from `tails[k]` to `heads[k]` and arc
    2k + 1 back, `head[e]` is the node arc e enters, and `out[u]` lists the
    arcs leaving node u, each with its head node, in head-node order, but
    for the arcs back into s, which a search that starts at s never takes.
    Arcs k < m run s -> left r, arcs m <= k < 2m right r -> t, and the rest,
    per edge (i, j), i -> right j and j -> right i."""

    head: list[int]
    out: list[list[tuple[int, int]]]
    tails: np.ndarray
    heads: np.ndarray

    @classmethod
    def of(cls, g: ParallelGraph) -> _Network:
        m = len(g.recipes)
        s, t = 2 * m, 2 * m + 1
        ends = [(s, r) for r in range(m)] + [(m + r, t) for r in range(m)]
        for i, j in g.edges:
            ends += ((i, m + j), (j, m + i))
        head = []
        out = [[] for _ in range(2 * m + 2)]
        for u, v in ends:
            out[u].append((len(head), v))
            if u != s:
                out[v].append((len(head) + 1, u))
            head += (v, u)
        for arcs in out:
            arcs.sort(key=lambda arc: arc[1])
        tails, heads = np.array(ends, dtype=np.intp).T
        return cls(head, out, tails, heads)


_network: tuple = (None, None)  # the last graph `solve_maxflow` ran on, and its _Network


def solve_maxflow(x, g: ParallelGraph) -> FlowSolution:
    """Max flow through the doubled graph with capacities x_r/2 at the rim.

    Shortest augmenting paths (Edmonds-Karp) on adjacency lists.  Arc 2k is
    the k-th arc of the graph and arc 2k + 1 its reverse, so `e ^ 1` turns
    an arc around.  Each node lists its arcs in head-node order, so the
    breadth-first search meets nodes as a scan along the rows of a
    node-by-node residual matrix would, whatever the order of `g.edges`.
    Interior arcs get the safe finite capacity sum(x); total flow can never
    exceed sum(x)/2 per side.  The returned cut value is measured on the
    residual graph and must equal the flow value.  The arcs and adjacency
    lists are kept for the last graph, so a call on it fills in only the
    capacities.
    """
    global _network
    arr = _check_x(x, len(g.recipes))
    graph, net = _network
    if graph is not g:
        net = _Network.of(g)
        _network = (g, net)
    m, head, out = len(g.recipes), net.head, net.out
    n_nodes = 2 * m + 2
    s, t = 2 * m, 2 * m + 1
    rim = arr / 2.0
    caps = np.concatenate((rim, rim, np.full(len(head) // 2 - 2 * m, arr.sum())))
    residual = [0.0] * len(head)
    residual[::2] = caps.tolist()
    value = 0.0
    while True:
        via = {s: None}  # node -> the arc the search first reached it by
        order = [s]  # the nodes reached, in order; the loop scans each as it is added
        for u in order:
            for e, v in out[u]:
                if FLOW_TOL < residual[e] and v not in via:
                    via[v] = e
                    order.append(v)
            if t in via:
                break
        else:
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
    flow = np.maximum(caps - residual[::2], 0.0).tolist()
    # the capacity of the arcs leaving the reached nodes, summed as one block
    # of the node-by-node capacity matrix, so that the sum rounds the same
    # way whatever the arc order
    reach = np.zeros(n_nodes, dtype=bool)
    reach[list(via)] = True
    cap = np.zeros((n_nodes, n_nodes))
    cap[net.tails, net.heads] = caps
    cut_value = cap[np.ix_(reach, ~reach)].sum()
    return FlowSolution(
        source_arc=tuple(flow[:m]),
        sink_arc=tuple(flow[m : 2 * m]),
        cross_arc=tuple(zip(flow[2 * m :: 2], flow[2 * m + 1 :: 2])),
        value=value,
        min_cut_value=float(cut_value),
    )


def makespan_via_cuts(x, matrix: CutMatrix) -> float:
    """Worst coefficient row applied to x: max_k sum_r (1 - w_{r,k}) x_r.

    Equals sum(x) minus the max-flow value for the same x.
    """
    arr = _check_x(x, len(matrix.labels))
    return float((matrix.coeffs @ arr).max())
