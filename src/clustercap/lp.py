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
from dataclasses import dataclass, replace

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
    and unique within a row and within the objective, and all names must be
    unique.
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
        seen = set()
        for j, _ in self.objective:
            if not 0 <= j < nvar:
                raise DomainError(f"objective index {j} out of range")
            if j in seen:
                raise DomainError(f"objective: duplicate index {j}")
            seen.add(j)


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
    """Objective, bounds, and all rows in their own order as one CSR matrix:
    >= rows are negated (`sign` -1) so each row reads a_i x <= b_i, or = where
    the mask `eq` is set."""
    n, m = len(p.variables), len(p.constraints)
    c = np.zeros(n)
    for j, v in p.objective:
        c[j] = v
    lower = np.fromiter((v.lower for v in p.variables), float, n)
    upper = np.fromiter((np.inf if v.upper is None else v.upper for v in p.variables), float, n)
    rows = p.constraints
    counts = np.fromiter((len(r.coeffs) for r in rows), np.int64, m)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    indices = np.fromiter((j for r in rows for j, _ in r.coeffs), np.int64, indptr[-1])
    data = np.fromiter((v for r in rows for _, v in r.coeffs), float, indptr[-1])
    sign = np.fromiter((-1.0 if r.sense == GE else 1.0 for r in rows), float, m)
    eq = np.fromiter((r.sense == EQ for r in rows), bool, m)
    rhs = sign * np.fromiter((r.rhs for r in rows), float, m)
    a = sparse.csr_matrix((data * np.repeat(sign, counts), indices, indptr), shape=(m, n))
    return c, lower, upper, a, rhs, sign, eq


_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}


def _highs(
    name, c, lower, upper, a, rhs, sign, eq, var_name="x{}".format, row_name=str
) -> LpSolution:
    """Minimize c'x s.t. a x <= rhs (= on rows in `eq`), lower <= x <= upper.

    `a` is a dense array or a sparse matrix.  One HiGHS call under the layer's
    tolerances; an optimal answer is checked against every bound and row and
    the objective before it is returned, with duals per row times `sign`.
    `var_name`/`row_name` turn an index into the name an error reports.
    """
    if eq.any():
        split = {"A_ub": a[~eq], "b_ub": rhs[~eq], "A_eq": a[eq], "b_eq": rhs[eq]}
    else:
        split = {"A_ub": a, "b_ub": rhs}
    res = linprog(
        c,
        **{k: v for k, v in split.items() if v.shape[0]},
        bounds=np.column_stack((lower, upper)),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    if res.status not in _STATUS:
        raise LpSolverError(f"{name}: solver failure: {res.message}")
    if res.status != 0:
        return LpSolution(_STATUS[res.status], None, (), None, int(res.nit))
    x = np.asarray(res.x, dtype=float)
    feas = TOL.feasibility
    bad = np.flatnonzero((x < lower - feas) | (x > upper + feas))
    if bad.size:
        raise LpSolverError(f"{name}: bound violated for {var_name(bad[0])}")
    gap = a @ x - rhs
    bad = np.flatnonzero(np.where(eq, np.abs(gap), gap) > feas)
    if bad.size:
        i = bad[0]
        raise LpSolverError(f"{name}: row {row_name(i)} violated by {abs(gap[i]):.3e}")
    obj = float(c @ x)
    if abs(obj - res.fun) > TOL.comparison * max(1.0, abs(obj)):
        raise LpSolverError(f"{name}: objective mismatch {obj} vs {res.fun}")
    duals = np.zeros(len(eq))
    duals[~eq] = res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    duals = tuple((sign * duals).tolist())
    return LpSolution(OPTIMAL, float(res.fun), tuple(x.tolist()), duals, int(res.nit))


def solve(p: LpProblem) -> LpSolution:
    """Solve the problem; deterministic for a fixed problem.

    Optimal solutions are re-verified against the feasibility contract before
    being returned.  Solver breakdown raises LpSolverError instead of being
    mapped onto Infeasible.  Duals are per row, for the minimization form.
    """
    c, *arrays = _assemble(p)
    flip = -1.0 if p.sense == MAXIMIZE else 1.0
    var_name, row_name = (lambda j: p.variables[j].name), (lambda i: p.constraints[i].name)
    sol = _highs(p.name, flip * c, *arrays, var_name, row_name)
    return sol if sol.objective is None else replace(sol, objective=flip * sol.objective)


def solve_geq_dense(
    c: np.ndarray, a_rows: np.ndarray, rhs: np.ndarray, name: str = "geq"
) -> LpSolution:
    """Fast path for min c'x s.t. a_rows @ x >= rhs, x >= 0 (dense rows).

    Same HiGHS call and contract check as solve(), without the per-row
    problem objects; used where thousands of uniformly shaped LPs are solved
    in a loop.
    """
    a_rows = np.asarray(a_rows, dtype=float)
    m, n = a_rows.shape
    return _highs(
        name,
        np.asarray(c, dtype=float),
        np.zeros(n),
        np.full(n, np.inf),
        -a_rows,
        -np.asarray(rhs, dtype=float),
        np.full(m, -1.0),
        np.zeros(m, dtype=bool),
    )


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
