"""Sparse linear-programming layer: problem container, solver, text export.

The solver is backed by HiGHS (through scipy) and is held to a fixed numerical
contract: optimal solutions violate no constraint or bound by more than the
feasibility tolerance, and infeasibility is a solver-certified status, never a
guess from objective values.  Problems can be exported to the common textual
LP file format for cross-checking with external solvers; the exported text
re-parses to an equivalent problem.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import DomainError, LpSolverError

MINIMIZE = "min"
MAXIMIZE = "max"

LE, EQ, GE = "<=", "=", ">="

_SENSES = (LE, EQ, GE)


@dataclass(frozen=True)
class Tolerances:
    """Central numerical contract for the LP layer."""

    feasibility: float = 1e-8
    comparison: float = 1e-7
    pivot: float = 1e-10


TOL = Tolerances()


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float = 0.0
    upper: float | None = None


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple[tuple[int, float], ...]
    sense: str
    rhs: float


@dataclass(frozen=True)
class LpProblem:
    """Immutable sparse LP in general form.

    Coefficients are (variable index, value) pairs; indices must be in range
    and unique within a row, and all names must be unique.
    """

    name: str
    sense: str
    objective: tuple[tuple[int, float], ...]
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise DomainError(f"objective sense {self.sense!r}")
        nvar = len(self.variables)
        names = set()
        for v in self.variables:
            if v.name in names:
                raise DomainError(f"duplicate variable name {v.name!r}")
            names.add(v.name)
            if v.upper is not None and v.upper < v.lower:
                raise DomainError(f"variable {v.name!r} has empty bound interval")
        cnames = set()
        for row in self.constraints:
            if row.name in cnames or row.name in names:
                raise DomainError(f"duplicate constraint name {row.name!r}")
            cnames.add(row.name)
            if row.sense not in _SENSES:
                raise DomainError(f"constraint sense {row.sense!r}")
            seen = set()
            for j, _ in row.coeffs:
                if not 0 <= j < nvar:
                    raise DomainError(f"constraint {row.name!r}: index {j} out of range")
                if j in seen:
                    raise DomainError(f"constraint {row.name!r}: duplicate index {j}")
                seen.add(j)
        for j, _ in self.objective:
            if not 0 <= j < nvar:
                raise DomainError(f"objective index {j} out of range")


@dataclass(frozen=True)
class SizeStats:
    rows: int
    columns: int
    nonzeros: int


@dataclass(frozen=True)
class LpSolution:
    status: str  # Optimal | Infeasible | Unbounded
    objective: float | None
    x: tuple[float, ...]
    duals: tuple[float, ...] | None
    iterations: int


OPTIMAL, INFEASIBLE, UNBOUNDED = "Optimal", "Infeasible", "Unbounded"


class LpBuilder:
    """Incremental construction helper; `problem()` freezes the result."""

    def __init__(self, name: str, sense: str = MINIMIZE):
        self.name = name
        self.sense = sense
        self._vars: list[Variable] = []
        self._rows: list[Constraint] = []
        self._obj: list[tuple[int, float]] = []

    def add_var(self, name: str, lower: float = 0.0, upper: float | None = None) -> int:
        self._vars.append(Variable(name, lower, upper))
        return len(self._vars) - 1

    def add_constraint(self, name, coeffs, sense, rhs) -> int:
        self._rows.append(Constraint(name, tuple(coeffs), sense, float(rhs)))
        return len(self._rows) - 1

    def set_objective(self, coeffs):
        self._obj = list(coeffs)

    def problem(self) -> LpProblem:
        return LpProblem(
            name=self.name,
            sense=self.sense,
            objective=tuple(self._obj),
            variables=tuple(self._vars),
            constraints=tuple(self._rows),
        )


def size_stats(p: LpProblem) -> SizeStats:
    """Row/column/nonzero counts of the constraint matrix."""
    return SizeStats(
        rows=len(p.constraints),
        columns=len(p.variables),
        nonzeros=sum(len(c.coeffs) for c in p.constraints),
    )


def _assemble(p: LpProblem):
    """Split into the <=/= blocks linprog expects; >= rows are negated."""
    n = len(p.variables)
    c = np.zeros(n)
    for j, v in p.objective:
        c[j] = v
    if p.sense == MAXIMIZE:
        c = -c
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    row_kind = []  # (block, position, flip) per original constraint
    for con in p.constraints:
        idx = [j for j, _ in con.coeffs]
        val = [v for _, v in con.coeffs]
        if con.sense == EQ:
            row_kind.append(("eq", len(eq_rows), 1.0))
            eq_rows.append((idx, val))
            eq_rhs.append(con.rhs)
        elif con.sense == LE:
            row_kind.append(("ub", len(ub_rows), 1.0))
            ub_rows.append((idx, val))
            ub_rhs.append(con.rhs)
        else:
            row_kind.append(("ub", len(ub_rows), -1.0))
            ub_rows.append((idx, [-v for v in val]))
            ub_rhs.append(-con.rhs)

    def to_csr(rows):
        if not rows:
            return None
        data, indices, indptr = [], [], [0]
        for idx, val in rows:
            indices.extend(idx)
            data.extend(val)
            indptr.append(len(indices))
        return sparse.csr_matrix(
            (np.array(data, dtype=float), np.array(indices), np.array(indptr)),
            shape=(len(rows), n),
        )

    bounds = [(v.lower, v.upper) for v in p.variables]
    return c, to_csr(ub_rows), np.array(ub_rhs), to_csr(eq_rows), np.array(eq_rhs), bounds, row_kind


def _check_optimal(p: LpProblem, x: np.ndarray, objective: float, tol: Tolerances):
    for v, xv in zip(p.variables, x):
        if xv < v.lower - tol.feasibility:
            raise LpSolverError(f"{p.name}: bound violated for {v.name}")
        if v.upper is not None and xv > v.upper + tol.feasibility:
            raise LpSolverError(f"{p.name}: bound violated for {v.name}")
    for con in p.constraints:
        lhs = sum(v * x[j] for j, v in con.coeffs)
        if con.sense == EQ and abs(lhs - con.rhs) > tol.feasibility:
            raise LpSolverError(f"{p.name}: equality {con.name} violated by {lhs - con.rhs:.3e}")
        if con.sense == LE and lhs - con.rhs > tol.feasibility:
            raise LpSolverError(f"{p.name}: row {con.name} violated by {lhs - con.rhs:.3e}")
        if con.sense == GE and con.rhs - lhs > tol.feasibility:
            raise LpSolverError(f"{p.name}: row {con.name} violated by {con.rhs - lhs:.3e}")
    obj = sum(v * x[j] for j, v in p.objective)
    if abs(obj - objective) > tol.comparison * max(1.0, abs(obj)):
        raise LpSolverError(f"{p.name}: objective mismatch {obj} vs {objective}")


_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def _highs(name: str, c, **blocks):
    """One HiGHS call under the layer's tolerances: (mapped status, scipy result)."""
    res = linprog(
        c,
        **blocks,
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    if res.status not in _STATUS:
        raise LpSolverError(f"{name}: solver failure: {res.message}")
    return _STATUS[res.status], res


def solve(p: LpProblem, tol: Tolerances = TOL) -> LpSolution:
    """Solve the problem; deterministic for a fixed problem.

    Optimal solutions are re-verified against the feasibility contract before
    being returned.  Solver breakdown raises LpSolverError instead of being
    mapped onto Infeasible.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds, row_kind = _assemble(p)
    status, res = _highs(
        p.name,
        c,
        A_ub=a_ub,
        b_ub=b_ub if a_ub is not None else None,
        A_eq=a_eq,
        b_eq=b_eq if a_eq is not None else None,
        bounds=bounds,
    )
    if status != OPTIMAL:
        return LpSolution(status, None, (), None, int(res.nit))
    x = np.asarray(res.x, dtype=float)
    objective = float(res.fun) if p.sense == MINIMIZE else -float(res.fun)
    _check_optimal(p, x, objective, tol)
    duals = None
    if getattr(res, "ineqlin", None) is not None or getattr(res, "eqlin", None) is not None:
        out = []
        for block, pos, flip in row_kind:
            marg = res.eqlin.marginals if block == "eq" else res.ineqlin.marginals
            out.append(flip * float(marg[pos]))
        duals = tuple(out)
    return LpSolution(OPTIMAL, objective, tuple(float(v) for v in x), duals, int(res.nit))


def solve_geq_dense(
    c: np.ndarray, a_rows: np.ndarray, rhs: np.ndarray, name: str = "geq", tol: Tolerances = TOL
) -> LpSolution:
    """Fast path for min c'x s.t. a_rows @ x >= rhs, x >= 0 (dense rows).

    Same backend and status mapping as solve(), without the per-row problem
    objects; used where thousands of uniformly shaped LPs are solved in a
    loop.  Optimal solutions are verified against the feasibility contract.
    """
    a_rows = np.asarray(a_rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    status, res = _highs(
        name, np.asarray(c, dtype=float), A_ub=-a_rows, b_ub=-rhs, bounds=(0, None)
    )
    if status != OPTIMAL:
        return LpSolution(status, None, (), None, int(res.nit))
    x = np.asarray(res.x, dtype=float)
    if np.any(a_rows @ x < rhs - tol.feasibility) or np.any(x < -tol.feasibility):
        raise LpSolverError(f"{name}: returned solution violates feasibility contract")
    duals = tuple(-float(v) for v in res.ineqlin.marginals)
    return LpSolution(OPTIMAL, float(res.fun), tuple(float(v) for v in x), duals, int(res.nit))


# --- textual LP format -----------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit_terms(coeffs, names) -> str:
    if not coeffs:
        return "0 " + names[0] if names else ""
    parts = []
    for k, (j, v) in enumerate(coeffs):
        sign = "-" if v < 0 else ("+" if k > 0 else "")
        mag = _fmt(abs(v))
        parts.append(f"{sign} {mag} {names[j]}".strip())
    return " ".join(parts)


def export_lp_text(p: LpProblem) -> str:
    """Render the problem in the textual LP file format.

    Sections: Minimize/Maximize, Subject To, Bounds, End.  Every variable gets
    an explicit Bounds line so the text is self-describing.  Coefficients keep
    17 significant digits so a re-parse reproduces the numbers exactly.
    """
    names = []
    for v in p.variables:
        if not _NAME_RE.match(v.name):
            raise DomainError(f"variable name {v.name!r} is not LP-format safe")
        names.append(v.name)
    for con in p.constraints:
        if not _NAME_RE.match(con.name):
            raise DomainError(f"constraint name {con.name!r} is not LP-format safe")
    lines = [f"\\ {p.name}"]
    lines.append("Minimize" if p.sense == MINIMIZE else "Maximize")
    obj = _emit_terms(sorted(p.objective), names)
    lines.append(f" obj: {obj}".rstrip())
    lines.append("Subject To")
    for con in p.constraints:
        lhs = _emit_terms(sorted(con.coeffs), names)
        if not lhs:
            lhs = f"0 {names[0]}" if names else "0"
        lines.append(f" {con.name}: {lhs} {con.sense} {_fmt(con.rhs)}")
    lines.append("Bounds")
    for v in p.variables:
        if v.upper is None and v.lower == float("-inf"):
            lines.append(f" {v.name} free")
        elif v.upper is None:
            lines.append(f" {v.name} >= {_fmt(v.lower)}")
        else:
            lines.append(f" {_fmt(v.lower)} <= {v.name} <= {_fmt(v.upper)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_TERM_RE = re.compile(r"([+-]?)\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?\s*([A-Za-z_][A-Za-z0-9_.]*)")


def _parse_terms(text: str) -> list[tuple[str, float]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m:
            if text[pos].isspace():
                pos += 1
                continue
            raise DomainError(f"cannot parse LP terms at: {text[pos:pos+30]!r}")
        sign, mag, name = m.groups()
        coef = float(mag) if mag else 1.0
        if sign == "-":
            coef = -coef
        out.append((name, coef))
        pos = m.end()
    return out


def parse_lp_text(text: str) -> LpProblem:
    """Parse the subset of the LP format produced by export_lp_text."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("\\")]
    name = "parsed"
    first = text.splitlines()[0] if text.splitlines() else ""
    if first.startswith("\\"):
        name = first[1:].strip() or name
    section = None
    sense = MINIMIZE
    obj_terms: list[tuple[str, float]] = []
    rows: list[tuple[str, list[tuple[str, float]], str, float]] = []
    bounds: dict[str, tuple[float, float | None]] = {}
    order: list[str] = []

    def touch(var: str):
        if var not in bounds:
            bounds[var] = (0.0, None)
            order.append(var)

    for ln in lines:
        stripped = ln.strip()
        low = stripped.lower()
        if low in ("minimize", "maximize", "subject to", "bounds", "end"):
            section = low
            if low == "minimize":
                sense = MINIMIZE
            elif low == "maximize":
                sense = MAXIMIZE
            continue
        if section in ("minimize", "maximize"):
            body = stripped.split(":", 1)[1] if ":" in stripped else stripped
            for var, coef in _parse_terms(body):
                touch(var)
                obj_terms.append((var, coef))
        elif section == "subject to":
            if ":" not in stripped:
                raise DomainError(f"constraint line without name: {stripped!r}")
            rname, body = stripped.split(":", 1)
            m = re.search(r"(<=|>=|=)\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*$", body)
            if not m:
                raise DomainError(f"constraint line without sense/rhs: {stripped!r}")
            terms = _parse_terms(body[: m.start()])
            for var, _ in terms:
                touch(var)
            rows.append((rname.strip(), terms, m.group(1), float(m.group(2))))
        elif section == "bounds":
            if low.endswith(" free"):
                var = stripped[: -len(" free")].strip()
                touch(var)
                bounds[var] = (float("-inf"), None)
                continue
            m = re.match(
                r"^([+-]?[\d.eE+-]+)\s*<=\s*([A-Za-z_][A-Za-z0-9_.]*)\s*<=\s*([+-]?[\d.eE+-]+)$",
                stripped,
            )
            if m:
                var = m.group(2)
                touch(var)
                bounds[var] = (float(m.group(1)), float(m.group(3)))
                continue
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*(<=|>=)\s*([+-]?[\d.eE+-]+)$", stripped)
            if m:
                var = m.group(1)
                touch(var)
                if m.group(2) == ">=":
                    bounds[var] = (float(m.group(3)), bounds.get(var, (0.0, None))[1])
                else:
                    bounds[var] = (bounds.get(var, (0.0, None))[0], float(m.group(3)))
                continue
            raise DomainError(f"cannot parse bounds line: {stripped!r}")
        elif section == "end":
            raise DomainError(f"content after End: {stripped!r}")
        else:
            raise DomainError(f"content before a section header: {stripped!r}")

    index = {v: i for i, v in enumerate(order)}
    merged_obj: dict[int, float] = {}
    for var, coef in obj_terms:
        j = index[var]
        merged_obj[j] = merged_obj.get(j, 0.0) + coef
    constraints = []
    for rname, terms, s, rhs in rows:
        merged: dict[int, float] = {}
        for var, coef in terms:
            j = index[var]
            merged[j] = merged.get(j, 0.0) + coef
        constraints.append(Constraint(rname, tuple(sorted(merged.items())), s, rhs))
    return LpProblem(
        name=name,
        sense=sense,
        objective=tuple(sorted(merged_obj.items())),
        variables=tuple(Variable(v, *bounds[v]) for v in order),
        constraints=tuple(constraints),
    )
