"""Sparse linear-programming layer: problem container, solver, text export.

An `LpProblem` holds its columns and rows as arrays; `LpBuilder` takes both
in blocks.  The solver is HiGHS, through the binding that ships inside scipy
(`scipy.optimize._highspy._core`).  It is loaded from its file, without
importing `scipy.optimize`, which would add about half a second to every
start-up.  A `Handle` keeps one HiGHS model of an LP that can take added
rows and re-solve from its last basis; `solve` and `solve_geq_dense` are
one run on all rows.  Every answer is held to a fixed numerical contract:
optimal solutions violate no constraint or bound by more than the
feasibility tolerance, and infeasibility is a solver-certified status,
never a guess from objective values.  Problems can be exported to the
common textual LP file format for cross-checking with external solvers;
the exported text re-parses to an equivalent problem.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy
from scipy import sparse

from .errors import DomainError, LpSolverError


def _load_highs():
    """HiGHS's compiled binding `scipy.optimize._highspy._core`, loaded from
    its file in the scipy package without running `scipy/optimize/__init__.py`.
    It is registered under its real name, so a later `import scipy.optimize`
    reuses it and pybind11 never registers its types twice.  Where the file
    is not (scipy before 1.15 kept the binding elsewhere), the plain import
    loads it, at the cost of the whole of `scipy.optimize`."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.optimize._highspy import _core

    return _core


_highspy = _load_highs()

MINIMIZE = "min"
MAXIMIZE = "max"

LE, EQ, GE = "<=", "=", ">="

_SENSES = (LE, EQ, GE)


@dataclass(frozen=True)
class Tolerances:
    """Central numerical contract for the LP layer."""

    feasibility: float = 1e-8
    comparison: float = 1e-7


TOL = Tolerances()


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Immutable sparse LP in general form.

    Column j is named `col_names[j]` and reads `lower[j] <= x_j <= upper[j]`,
    -inf and inf meaning no bound; both arrays are made read-only.  Row i is
    named `row_names[i]` and reads `matrix[i] x  senses[i]  rhs[i]`; `matrix`
    is CSR with each row's entries in the order they were given, and nothing
    modifies it in place.  The objective is (variable index, value) pairs.
    Indices must be in range and unique within a row and within the
    objective, all names unique, and every bound interval must hold a number.
    A right-hand side is a number, or inf on a <= row and -inf on a >= row,
    where the row then holds at every x.
    """

    name: str
    sense: str
    objective: tuple[tuple[int, float], ...]
    col_names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    row_names: tuple[str, ...]
    senses: tuple[str, ...]
    rhs: np.ndarray
    matrix: sparse.csr_matrix

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise DomainError(f"objective sense {self.sense!r}")
        nvar = len(self.col_names)
        lo, hi = self.lower, self.upper
        if not lo.shape == hi.shape == (nvar,):
            raise DomainError(f"columns need {nvar} lower and upper bounds")
        lo.flags.writeable = hi.flags.writeable = False
        bad = np.flatnonzero(~((lo <= hi) & (lo < np.inf) & (hi > -np.inf)))  # NaN fails too
        if bad.size:
            raise DomainError(f"variable {self.col_names[bad[0]]!r} has empty bound interval")
        m, a, row_names = len(self.row_names), self.matrix, self.row_names
        if not len(self.senses) == len(self.rhs) == m or getattr(a, "format", None) != "csr":
            raise DomainError(f"rows need {m} senses, right-hand sides and CSR matrix rows")
        if a.shape != (m, nvar):
            raise DomainError(f"constraint matrix is {a.shape}, expected {(m, nvar)}")
        names = self.col_names + row_names
        if len(set(names)) != len(names):
            seen = set()
            for k, name in enumerate(names):
                if name in seen:
                    kind = "variable" if k < nvar else "constraint"
                    raise DomainError(f"duplicate {kind} name {name!r}")
                seen.add(name)
        bad = set(self.senses).difference(_SENSES)
        if bad:
            raise DomainError(f"constraint sense {bad.pop()!r}")
        for i in np.flatnonzero(~np.isfinite(self.rhs)).tolist():  # NaN, or inf as "no bound"
            s, r = self.senses[i], self.rhs[i]
            if (s, r) not in ((LE, np.inf), (GE, -np.inf)):
                raise DomainError(f"constraint {row_names[i]!r} has right-hand side {s} {r}")
        rows = np.repeat(np.arange(m), np.diff(a.indptr))  # the row of each entry
        bad = np.flatnonzero((a.indices < 0) | (a.indices >= nvar))
        if bad.size:
            i, j = rows[bad[0]], a.indices[bad[0]]
            raise DomainError(f"constraint {row_names[i]!r}: index {j} out of range")
        ordered = a.sorted_indices().indices  # a repeat now sits next to its twin
        dup = np.flatnonzero((ordered[1:] == ordered[:-1]) & (rows[1:] == rows[:-1]))
        if dup.size:
            i, j = rows[dup[0]], ordered[dup[0]]
            raise DomainError(f"constraint {row_names[i]!r}: duplicate index {j}")
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
    """Incremental construction helper; `problem()` freezes the result.

    Columns and rows enter in array blocks (`add_cols`, `add_rows`);
    `add_var` adds a block of one column and `add_constraint` one of one row.
    """

    def __init__(self, name: str, sense: str = MINIMIZE):
        self.name = name
        self.sense = sense
        self._obj: list[tuple[int, float]] = []
        self._col_names, self._col_blocks = [], []
        self._names, self._senses, self._blocks = [], [], []

    def add_var(self, name: str, lower: float = 0.0, upper: float | None = None) -> int:
        return self.add_cols([name], lower, np.inf if upper is None else upper).start

    def add_cols(self, names, lower=0.0, upper=np.inf) -> range:
        """Columns `names[j]`, each bound one value or one per column; returns their indices."""
        n, start = len(names), len(self._col_names)
        bounds = np.asarray(lower, float), np.asarray(upper, float)
        if any(b.shape not in ((), (n,)) for b in bounds):
            raise DomainError(f"column block {names[:1]}: bounds for {n} columns expected")
        self._col_names.extend(names)
        self._col_blocks.append([np.full(n, b) for b in bounds])
        return range(start, start + n)

    def add_constraint(self, name, coeffs, sense, rhs) -> int:
        """One row from (variable index, value) pairs; returns its index."""
        pairs = tuple(coeffs)
        cols, vals = [j for j, _ in pairs], [v for _, v in pairs]
        return self.add_rows([name], [len(pairs)], cols, vals, sense, rhs).start

    def add_rows(self, names, counts, cols, vals, sense, rhs) -> range:
        """Rows `names[i]` sharing one sense; row i takes the next `counts[i]`
        entries of `cols`/`vals`, in order, and the right-hand side `rhs`, or
        `rhs[i]` when `rhs` holds one value per row.  Returns the new rows'
        indices."""
        counts = np.asarray(counts, np.int64)
        cols = np.asarray(cols, np.int64)
        vals = np.asarray(vals, float)
        rhs = np.asarray(rhs, float)
        m = len(names)
        bad = counts.shape != (m,) or counts.min(initial=0) < 0
        if bad or not counts.sum() == len(cols) == len(vals):
            raise DomainError(f"row block {names[:1]}: counts, columns and values disagree")
        if rhs.shape not in ((), (m,)):
            raise DomainError(f"row block {names[:1]}: {rhs.size} right-hand sides for {m} rows")
        start = len(self._names)
        self._names.extend(names)
        self._senses.extend([sense] * m)
        self._blocks.append((counts, cols, vals, np.full(m, rhs)))
        return range(start, len(self._names))

    def set_objective(self, coeffs):
        self._obj = list(coeffs)

    def problem(self) -> LpProblem:
        lower, upper = (np.concatenate(parts) for parts in zip(([], []), *self._col_blocks))
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0))
        counts, cols, vals, rhs = (np.concatenate(parts) for parts in zip(empty, *self._blocks))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return LpProblem(
            name=self.name,
            sense=self.sense,
            objective=tuple(self._obj),
            col_names=tuple(self._col_names),
            lower=lower,
            upper=upper,
            row_names=tuple(self._names),
            senses=tuple(self._senses),
            rhs=rhs,
            matrix=sparse.csr_matrix((vals, cols, indptr), shape=(len(rhs), len(lower))),
        )


def size_stats(p: LpProblem) -> SizeStats:
    """Row/column/nonzero counts of the constraint matrix."""
    return SizeStats(rows=p.matrix.shape[0], columns=len(p.col_names), nonzeros=p.matrix.nnz)


class _Form(NamedTuple):
    """An LP as HiGHS is handed it: minimize c'x s.t. a x <= rhs (= on rows
    in `eq`), lower <= x <= upper.  The LP's own objective is `flip` times
    c'x and its row i is `sign[i]` times row i of `a`; `var_name`/`row_name`
    turn an index into the name an error reports."""

    name: str
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: sparse.csr_matrix
    rhs: np.ndarray
    sign: np.ndarray
    eq: np.ndarray
    flip: float
    var_name: Callable[[int], str]
    row_name: Callable[[int], str]


def _assemble(p: LpProblem) -> _Form:
    """The stored rows with >= rows negated, and the objective negated for a
    MAXIMIZE problem."""
    flip = -1.0 if p.sense == MAXIMIZE else 1.0
    c = np.zeros(len(p.col_names))
    for j, v in p.objective:
        c[j] = flip * v
    senses = np.array(p.senses, dtype="U2")
    sign = np.where(senses == GE, -1.0, 1.0)
    a = p.matrix
    signed = sparse.csr_matrix(
        (a.data * np.repeat(sign, np.diff(a.indptr)), a.indices, a.indptr), shape=a.shape
    )
    return _Form(
        p.name, c, p.lower, p.upper, signed, sign * p.rhs, sign, senses == EQ, flip,
        p.col_names.__getitem__, p.row_names.__getitem__,
    )


SIMPLEX, IPM = "simplex", "ipm"

# each method's HiGHS options: dual simplex, and IPM ending in crossover
_METHODS = {SIMPLEX: {"solver": "simplex"}, IPM: {"solver": "ipm"}}

# what linprog(method="highs") set, so answers stay what they were under it
_OPTIONS = {
    "output_flag": False,
    "presolve": "on",
    "simplex_strategy": 1,  # dual simplex
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

_STATUS = {
    _highspy.HighsModelStatus.kOptimal: OPTIMAL,
    _highspy.HighsModelStatus.kInfeasible: INFEASIBLE,
    _highspy.HighsModelStatus.kUnbounded: UNBOUNDED,
}


class _Answer(NamedTuple):
    """One HiGHS run: `status` is OPTIMAL, INFEASIBLE or UNBOUNDED, else the
    text of HiGHS's own status; at OPTIMAL also the point, the objective and
    the duals of the rows held, in the order the handle holds them."""

    status: str
    x: np.ndarray | None
    fun: float | None
    row_dual: np.ndarray | None
    iterations: int


def _run(handle: "Handle") -> _Answer:
    """The one place HiGHS solves: run the handle's model from its last basis."""
    h = handle.highs
    h.run()
    status = h.getModelStatus()
    info = h.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status != _highspy.HighsModelStatus.kOptimal:
        return _Answer(_STATUS.get(status) or h.modelStatusToString(status), None, None, None, nit)
    sol = h.getSolution()
    fun = info.objective_function_value
    return _Answer(OPTIMAL, np.array(sol.col_value), fun, np.array(sol.row_dual), nit)


class Handle:
    """A HiGHS model of one LP that holds some of its rows.

    It starts with `rows` (all rows by default) and takes more through
    `add_rows`; every `run` starts from the basis the last one ended on.
    `run` answers for the rows held, and `certify` holds an answer to every
    bound and row of the LP.  `method` is SIMPLEX or IPM.
    """

    def __init__(self, form: _Form, rows=None, method: str = SIMPLEX):
        self.form = form
        self.highs = _highspy._Highs()
        if method not in _METHODS:
            raise DomainError(f"LP method {method!r}")
        for key, value in {**_OPTIONS, **_METHODS[method]}.items():
            if self.highs.setOptionValue(key, value) != _highspy.HighsStatus.kOk:
                raise DomainError(f"HiGHS option {key}={value!r}")
        m, n = form.a.shape
        rows = np.arange(m) if rows is None else np.asarray(rows, dtype=np.int64)
        is_eq = form.eq[rows]
        # <= rows before = rows, the order HiGHS was always given them in
        self.rows = np.concatenate((rows[~is_eq], rows[is_eq]))
        block = form.a[self.rows].tocsc()
        model = _highspy.HighsLp()
        model.num_col_, model.num_row_ = n, len(self.rows)
        model.col_cost_, model.col_lower_, model.col_upper_ = form.c, form.lower, form.upper
        model.row_lower_, model.row_upper_ = self._row_bounds(self.rows)
        matrix = model.a_matrix_
        matrix.format_ = _highspy.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = n, len(self.rows)
        matrix.start_, matrix.index_, matrix.value_ = block.indptr, block.indices, block.data
        if self.highs.passModel(model) == _highspy.HighsStatus.kError:
            raise LpSolverError(f"{form.name}: HiGHS refused the model")

    def _row_bounds(self, rows):
        rhs = self.form.rhs[rows]
        return np.where(self.form.eq[rows], rhs, -np.inf), rhs

    def add_rows(self, rows):
        """Add rows of the LP, by index, to the model."""
        rows = np.asarray(rows, dtype=np.int64)
        block = self.form.a[rows]
        lower, upper = self._row_bounds(rows)
        status = self.highs.addRows(
            len(rows), lower, upper, block.nnz, block.indptr[:-1], block.indices, block.data
        )
        if status == _highspy.HighsStatus.kError:
            raise LpSolverError(f"{self.form.name}: HiGHS refused {len(rows)} added rows")
        self.rows = np.concatenate((self.rows, rows))

    def run(self) -> LpSolution:
        """Solve the rows held.  Solver breakdown raises LpSolverError instead
        of being mapped onto Infeasible; duals are per row of the LP (0 for a
        row not held) in the minimization form."""
        f = self.form
        ans = _run(self)
        if ans.status not in (OPTIMAL, INFEASIBLE, UNBOUNDED):
            raise LpSolverError(f"{f.name}: solver failure: {ans.status}")
        if ans.status != OPTIMAL:
            return LpSolution(ans.status, None, (), None, ans.iterations)
        duals = np.zeros(len(f.rhs))
        duals[self.rows] = ans.row_dual
        return LpSolution(
            OPTIMAL, f.flip * ans.fun, tuple(ans.x.tolist()), tuple((f.sign * duals).tolist()),
            ans.iterations,
        )

    def certify(self, sol: LpSolution):
        """Raise LpSolverError unless the Optimal `sol` keeps every bound and
        every row of the LP to the feasibility tolerance, and its objective
        is the objective at its x."""
        f = self.form
        x = np.array(sol.x, dtype=float)
        feas = TOL.feasibility
        bad = np.flatnonzero(~((x >= f.lower - feas) & (x <= f.upper + feas)))  # NaN fails too
        if bad.size:
            raise LpSolverError(f"{f.name}: bound violated for {f.var_name(bad[0])}")
        gap = f.a @ x - f.rhs
        bad = np.flatnonzero(~(np.where(f.eq, np.abs(gap), gap) <= feas))
        if bad.size:
            i = bad[0]
            raise LpSolverError(f"{f.name}: row {f.row_name(i)} violated by {abs(gap[i]):.3e}")
        obj = f.flip * float(f.c @ x)
        if not abs(obj - sol.objective) <= TOL.comparison * max(1.0, abs(obj)):
            raise LpSolverError(f"{f.name}: objective mismatch {obj} vs {sol.objective}")

    @classmethod
    def of(cls, p: LpProblem, rows=None, method: str = SIMPLEX) -> Handle:
        return cls(_assemble(p), rows, method)


def _solve(form: _Form, method: str = SIMPLEX) -> LpSolution:
    handle = Handle(form, method=method)
    sol = handle.run()
    if sol.status == OPTIMAL:
        handle.certify(sol)
    return sol


def solve(p: LpProblem, method: str = SIMPLEX) -> LpSolution:
    """Solve the problem; deterministic for a fixed problem and method.

    One HiGHS run on all rows under the layer's tolerances.  An optimal
    solution is checked against every bound and row and the objective before
    it is returned.  Solver breakdown raises LpSolverError instead of being
    mapped onto Infeasible.  Duals are per row, for the minimization form.
    """
    return _solve(_assemble(p), method)


def solve_geq_dense(
    c: np.ndarray, a_rows: np.ndarray, rhs: np.ndarray, name: str = "geq"
) -> LpSolution:
    """Fast path for min c'x s.t. a_rows @ x >= rhs, x >= 0 (dense rows).

    Same HiGHS call and contract check as solve(), without the per-row
    problem objects; used where many small, uniformly shaped LPs are solved
    in a loop, above all the pairing LP of `flows.solve_parallelization_lp`.
    """
    a_rows = np.asarray(a_rows, dtype=float)
    m, n = a_rows.shape
    form = _Form(
        name,
        np.asarray(c, dtype=float),
        np.zeros(n),
        np.full(n, np.inf),
        sparse.csr_matrix(-a_rows),
        -np.asarray(rhs, dtype=float),
        np.full(m, -1.0),
        np.zeros(m, dtype=bool),
        1.0,
        "x{}".format,
        str,
    )
    return _solve(form)


# --- textual LP format -----------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NAME_RE = re.compile(rf"^{_NAME}$")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit_terms(coeffs, names) -> str:
    if not coeffs:
        return "0"  # no terms; "0 x" would read back as an explicit zero entry
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
    17 significant digits so a re-parse reproduces the numbers exactly.  An
    objective or row without entries reads `0`, so an explicit zero entry and
    no entry stay apart.
    """
    for kind, group in (("variable", p.col_names), ("constraint", p.row_names)):
        for name in group:
            if not _NAME_RE.match(name):
                raise DomainError(f"{kind} name {name!r} is not LP-format safe")
    lines = [f"\\ {p.name}"]
    lines.append("Minimize" if p.sense == MINIMIZE else "Maximize")
    obj = _emit_terms(sorted(p.objective), p.col_names)
    lines.append(f" obj: {obj}".rstrip())
    lines.append("Subject To")
    a = p.matrix
    cols, vals, bounds = a.indices.tolist(), a.data.tolist(), a.indptr.tolist()
    for i, (rname, sense, rhs) in enumerate(zip(p.row_names, p.senses, p.rhs.tolist())):
        lo, hi = bounds[i], bounds[i + 1]
        lhs = _emit_terms(sorted(zip(cols[lo:hi], vals[lo:hi])), p.col_names)
        lines.append(f" {rname}: {lhs} {sense} {_fmt(rhs)}")
    lines.append("Bounds")
    for name, lo, hi in zip(p.col_names, p.lower.tolist(), p.upper.tolist()):
        if hi < np.inf:
            lines.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}")
        else:
            lines.append(f" {name} free" if lo == -np.inf else f" {name} >= {_fmt(lo)}")
    lines.append("End")
    return "\n".join(lines) + "\n"


_BOUND = r"([+-]?(?:inf|[\d.eE+-]+))"  # export writes an infinite bound as inf
_RHS = r"([+-]?(?:inf|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?))"  # an infinite rhs too
_TERM_RE = re.compile(rf"([+-]?)\s*(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?\s*({_NAME})")


def _parse_terms(text: str) -> list[tuple[str, float]]:
    if text.strip() == "0":  # how export_lp_text writes an empty sum
        return []
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
    bounds: dict[str, tuple[float, float]] = {}  # variables in order of appearance
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
                bounds.setdefault(var, (0.0, np.inf))
                obj_terms.append((var, coef))
        elif section == "subject to":
            if ":" not in stripped:
                raise DomainError(f"constraint line without name: {stripped!r}")
            rname, body = stripped.split(":", 1)
            m = re.search(rf"(<=|>=|=)\s*{_RHS}\s*$", body)
            if not m:
                raise DomainError(f"constraint line without sense/rhs: {stripped!r}")
            terms = _parse_terms(body[: m.start()])
            for var, _ in terms:
                bounds.setdefault(var, (0.0, np.inf))
            rows.append((rname.strip(), terms, m.group(1), float(m.group(2))))
        elif section == "bounds":
            both = re.match(rf"^{_BOUND}\s*<=\s*({_NAME})\s*<=\s*{_BOUND}$", stripped)
            one = re.match(rf"^({_NAME})\s*(<=|>=)\s*{_BOUND}$", stripped)
            try:
                if low.endswith(" free"):
                    bounds[stripped[: -len(" free")].strip()] = (-np.inf, np.inf)
                elif both:
                    bounds[both.group(2)] = (float(both.group(1)), float(both.group(3)))
                elif one:
                    var, value = one.group(1), float(one.group(3))
                    lo, hi = bounds.get(var, (0.0, np.inf))
                    bounds[var] = (value, hi) if one.group(2) == ">=" else (lo, value)
                else:
                    raise ValueError
            except ValueError:  # no such line, or a number float() cannot read
                raise DomainError(f"cannot parse bounds line: {stripped!r}") from None
        elif section == "end":
            raise DomainError(f"content after End: {stripped!r}")
        else:
            raise DomainError(f"content before a section header: {stripped!r}")

    build = LpBuilder(name, sense)
    lower, upper = np.reshape(list(bounds.values()), (-1, 2)).T
    index = dict(zip(bounds, build.add_cols(list(bounds), lower, upper)))

    def merged(terms) -> list[tuple[int, float]]:
        out: dict[int, float] = {}
        for var, coef in terms:
            out[index[var]] = out.get(index[var], 0.0) + coef
        return sorted(out.items())

    build.set_objective(merged(obj_terms))
    for rname, terms, s, rhs in rows:
        build.add_constraint(rname, merged(terms), s, rhs)
    return build.problem()
