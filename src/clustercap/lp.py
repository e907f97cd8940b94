"""Sparse linear-programming layer: problem container, solver, text export.

An `LpProblem` holds its columns and rows as arrays, its rows in a `Csr`, the
three compressed-sparse-row arrays `LpBuilder` makes from the blocks it takes.
`Csr` stands in for `scipy.sparse`, whose import would add about 0.16 s and
290 modules to every start-up.  The solver is HiGHS, through the binding
that ships inside scipy (`scipy.optimize._highspy._core`).  It is loaded
from its file, without importing `scipy.optimize`, which would add about
half a second.  Every LP reaches HiGHS as an `LpProblem`
through a `Handle`, one HiGHS model of it as it is stated, which can take
added rows and re-solve from its last basis; `solve` is one run of a handle.
Every row enters HiGHS the same way, as a `Csr` block with its bounds
through one `addRows` call: the LP's own rows when the handle is made, and
rows added later.  Every answer is held to a fixed numerical contract: optimal
solutions violate no constraint or bound by more than the feasibility
tolerance, and infeasibility is a solver-certified status, never a guess
from objective values.  Problems can be exported to the common textual LP file format for
cross-checking with external solvers; the tests read the text back with
HiGHS's own LP reader and hold it to the problem.

Nothing of HiGHS loads at import.  The first `Handle` a process makes runs
`_first_handle`, once: it holds glibc's mmap threshold (below) and loads
the binding, and `scipy` with it, into `_highspy`.  So a process that
solves no LP, one that builds cut matrices, instances, models or LP text,
never loads them.  The step is thread-safe: threads that make their first
handles at once (`clustercap bench --workers N`) load the binding once,
under a lock, for pybind11 must not register its types twice.  Outside a
handle, `lp._highspy` reads the binding, running the step if no handle has.

The first handle holds glibc's mmap threshold at 128 KiB
(`_hold_mmap_threshold`), for the rest of the process.  Left to itself,
glibc raises the threshold to the size of each mmapped block freed above
it, and from then on serves blocks up to that size from the brk heap, whose
free holes it does not give back.  HiGHS frees blocks of 1.5-3.3 MB inside
its runs on the plan-n5 LPs (the package's own arrays raise it to 0.4 MB at
most), and a process solving those three instances then peaks at about 99
MB where it peaks at about 80 MB with the threshold held.  The setting is
process-wide: every later `malloc` of the host process, not only HiGHS's,
takes blocks of 128 KiB and more from `mmap` and returns them at `free`.
A process that makes no handle keeps glibc's default.  Nothing is set off
glibc, nor when the environment sets any of glibc's
`MALLOC_MMAP_THRESHOLD_`, `MALLOC_TRIM_THRESHOLD_`, `MALLOC_TOP_PAD_` or
`MALLOC_MMAP_MAX_`: a user keeps their own allocator setting by setting one
of them.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import re
import sys
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DomainError, LpSolverError


_CORE = "scipy.optimize._highspy._core"


def _load_highs():
    """HiGHS's compiled binding `scipy.optimize._highspy._core`, loaded from
    its file in the scipy package without running `scipy/optimize/__init__.py`.
    It is registered under its real name, so a later `import scipy.optimize`
    reuses it and pybind11 never registers its types twice.  Where the file
    is not (scipy before 1.15 kept the binding elsewhere), the plain import
    loads it, at the cost of the whole of `scipy.optimize`.  Called under
    `_FIRST_HANDLE`'s lock."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    import scipy

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(_CORE, path)
            module = sys.modules[_CORE] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.optimize._highspy import _core

    return _core


# glibc's variables for what `_hold_mmap_threshold` sets: the user's own
# setting, if any, stands
_MALLOC_ENV = (
    "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_"
)
_M_MMAP_THRESHOLD = -3  # mallopt's parameter number, from glibc's malloc.h
_MMAP_THRESHOLD = 128 * 1024  # glibc's own starting value, held from then on


def _hold_mmap_threshold():
    """Hold glibc's mmap threshold at 128 KiB (see the module docstring).
    Does nothing off glibc or when the environment sets one of
    `_MALLOC_ENV`, and never raises."""
    if any(name in os.environ for name in _MALLOC_ENV):
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):  # ValueError, or None, off glibc
            return
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    except (AttributeError, OSError, ValueError):  # no confstr, libc or mallopt
        pass


_FIRST_HANDLE = threading.Lock()


@functools.cache
def _first_handle():
    """What the first `Handle` of a process does, once: hold the mmap
    threshold and load HiGHS's binding into `_highspy`, which every use of
    the binding reads.  A second thread that comes in before the first is
    done (`functools.cache` lets both run) waits on the lock and finds the
    binding in `sys.modules`."""
    global _highspy
    with _FIRST_HANDLE:
        _hold_mmap_threshold()
        _highspy = _load_highs()
    return _highspy


def __getattr__(name):
    """`lp._highspy` before any handle: the first-handle step, then the binding."""
    if name == "_highspy":
        return _first_handle()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
class Csr:
    """Compressed sparse rows: row i holds the columns
    `indices[indptr[i]:indptr[i + 1]]` with the values `data[...]` in the same
    positions, in the order they were given; `shape` is (rows, columns).  It
    offers `nnz`, `entry_rows`, the product `matrix @ x` and a block of rows
    by index, `matrix[rows]`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """The row of each entry, in stored order; made on first use, read-only."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        rows.flags.writeable = False
        return rows

    def __matmul__(self, x) -> np.ndarray:
        """Each row's products summed one at a time in stored order, as
        scipy.sparse sums them, so the two agree bit for bit."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape[1:]:
            raise DomainError(f"matrix {self.shape} times vector {x.shape}")
        return np.bincount(self.entry_rows, self.data * x[self.indices], self.shape[0])

    def __getitem__(self, rows) -> Csr:
        """The rows of index `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return Csr(indptr, self.indices[take], self.data[take], (len(rows), self.shape[1]))


@dataclass(frozen=True)
class Names:
    """The names of a block of `count` columns or rows, as a rule: `make()`
    returns them in order, and runs only when a problem's names are asked
    for.  A rule must give distinct names that no other block gives; the
    problem does not check them, but refuses a rule that makes other than
    `count` names."""

    count: int
    make: Callable[[], Sequence[str]]

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        names = self.make()
        if len(names) != self.count:
            raise DomainError(f"a name rule made {len(names)} of {self.count} names")
        return iter(names)


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Immutable sparse LP in general form.

    Column j is named `col_names[j]` and reads `lower[j] <= x_j <= upper[j]`,
    -inf and inf meaning no bound.  Row i is named `row_names[i]` and reads
    `matrix[i] x  senses[i]  rhs[i]`; `matrix` is a `Csr` with each row's
    entries in the order they were given.  The names come in blocks,
    `col_blocks` and `row_blocks`, each a sequence of names or a `Names`
    rule; `col_names` and `row_names` are made from them on first access.
    The bounds, `rhs` and the matrix's arrays are made read-only, so a
    handle's copy of the row bounds and the matrix it certifies against
    cannot drift apart.  The objective is (variable index, value) pairs.
    Indices must be in range and unique within a row and within the
    objective, the names given one by one unique, and every bound interval
    must hold a number.  A right-hand side is a number, or inf on a <= row
    and -inf on a >= row, where the row then holds at every x.
    """

    name: str
    sense: str
    objective: tuple[tuple[int, float], ...]
    col_blocks: tuple
    lower: np.ndarray
    upper: np.ndarray
    row_blocks: tuple
    senses: tuple[str, ...]
    rhs: np.ndarray
    matrix: Csr

    @cached_property
    def col_names(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(self.col_blocks))

    @cached_property
    def row_names(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(self.row_blocks))

    def __post_init__(self):
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise DomainError(f"objective sense {self.sense!r}")
        nvar = sum(map(len, self.col_blocks))
        lo, hi = self.lower, self.upper
        if not lo.shape == hi.shape == (nvar,):
            raise DomainError(f"columns need {nvar} lower and upper bounds")
        bad = np.flatnonzero(~((lo <= hi) & (lo < np.inf) & (hi > -np.inf)))  # NaN fails too
        if bad.size:
            raise DomainError(f"variable {self.col_names[bad[0]]!r} has empty bound interval")
        m, a, rhs = sum(map(len, self.row_blocks)), self.matrix, self.rhs
        if not len(self.senses) == len(rhs) == m or not isinstance(a, Csr):
            raise DomainError(f"rows need {m} senses, right-hand sides and CSR matrix rows")
        for array in (lo, hi, rhs, a.indptr, a.indices, a.data):
            array.flags.writeable = False
        if a.shape != (m, nvar):
            raise DomainError(f"constraint matrix is {a.shape}, expected {(m, nvar)}")
        cols, rows = (
            [name for b in blocks if not isinstance(b, Names) for name in b]
            for blocks in (self.col_blocks, self.row_blocks)
        )
        seen = set()
        for k, name in enumerate(cols + rows):
            if name in seen:
                kind = "variable" if k < len(cols) else "constraint"
                raise DomainError(f"duplicate {kind} name {name!r}")
            seen.add(name)
        bad = set(self.senses).difference(_SENSES)
        if bad:
            raise DomainError(f"constraint sense {bad.pop()!r}")
        for i in np.flatnonzero(~np.isfinite(rhs)).tolist():  # NaN, or inf as "no bound"
            s, r = self.senses[i], rhs[i]
            if (s, r) not in ((LE, np.inf), (GE, -np.inf)):
                raise DomainError(f"constraint {self.row_names[i]!r} has right-hand side {s} {r}")
        rows = a.entry_rows
        bad = np.flatnonzero((a.indices < 0) | (a.indices >= nvar))
        if bad.size:
            i, j = rows[bad[0]], a.indices[bad[0]]
            raise DomainError(f"constraint {self.row_names[i]!r}: index {j} out of range")
        key = rows * nvar + a.indices  # (row, column) of each entry, as one number
        key.sort(kind="stable")  # a merge sort, which the rising runs of columns speed up
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            i, j = divmod(int(key[dup[0]]), nvar)
            raise DomainError(f"constraint {self.row_names[i]!r}: duplicate index {j}")
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
    A block's names are a sequence of names, or a `Names` rule that makes
    them only when the problem's names are asked for.
    """

    def __init__(self, name: str, sense: str = MINIMIZE):
        self.name = name
        self.sense = sense
        self._obj: list[tuple[int, float]] = []
        self._col_names, self._bounds, self._ncols = [], [], 0
        self._names, self._senses, self._blocks = [], [], []

    def add_var(self, name: str, lower: float = 0.0, upper: float | None = None) -> int:
        return self.add_cols([name], lower, np.inf if upper is None else upper).start

    def add_cols(self, names, lower=0.0, upper=np.inf) -> range:
        """Columns `names[j]`, each bound one value or one per column; returns their indices."""
        names = names if isinstance(names, Names) else tuple(names)
        n, start = len(names), self._ncols
        bounds = np.asarray(lower, float), np.asarray(upper, float)
        if any(b.shape not in ((), (n,)) for b in bounds):
            raise DomainError(f"column block {[*names][:1]}: bounds for {n} columns expected")
        self._col_names.append(names)
        self._bounds.append([np.full(n, b) for b in bounds])
        self._ncols += n
        return range(start, start + n)

    def add_constraint(self, name, coeffs, sense, rhs) -> int:
        """One row from (variable index, value) pairs; returns its index."""
        pairs = tuple(coeffs)
        cols, vals = [j for j, _ in pairs], [v for _, v in pairs]
        return self.add_rows([name], [len(pairs)], cols, vals, sense, rhs).start

    def add_rows(self, names, counts, cols, vals, sense, rhs) -> range:
        """Rows `names[i]`; row i takes the next `counts[i]` entries of
        `cols`/`vals`, in order, the sense `sense`, or `sense[i]` when `sense`
        is a sequence of one sense per row, and the right-hand side `rhs`, or
        `rhs[i]` when `rhs` holds one value per row.  Returns the new rows'
        indices."""
        counts = np.asarray(counts, np.int64)
        cols = np.asarray(cols, np.int64)
        vals = np.asarray(vals, float)
        rhs = np.asarray(rhs, float)
        names = names if isinstance(names, Names) else tuple(names)
        m = len(names)
        bad = counts.shape != (m,) or counts.min(initial=0) < 0
        if bad or not counts.sum() == len(cols) == len(vals):
            raise DomainError(f"row block {[*names][:1]}: counts, columns and values disagree")
        if rhs.shape not in ((), (m,)):
            raise DomainError(f"row block {[*names][:1]}: {rhs.size} right-hand sides for {m} rows")
        senses = [sense] * m if isinstance(sense, str) else list(sense)
        if len(senses) != m:
            raise DomainError(f"row block {[*names][:1]}: {len(senses)} senses for {m} rows")
        start = len(self._senses)
        self._names.append(names)
        self._senses.extend(senses)
        self._blocks.append((counts, cols, vals, np.full(m, rhs)))
        return range(start, len(self._senses))

    def set_objective(self, coeffs):
        self._obj = list(coeffs)

    def problem(self) -> LpProblem:
        lower, upper = (np.concatenate(parts) for parts in zip(([], []), *self._bounds))
        empty = (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0))
        counts, cols, vals, rhs = (np.concatenate(parts) for parts in zip(empty, *self._blocks))
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return LpProblem(
            name=self.name,
            sense=self.sense,
            objective=tuple(self._obj),
            col_blocks=tuple(self._col_names),
            lower=lower,
            upper=upper,
            row_blocks=tuple(self._names),
            senses=tuple(self._senses),
            rhs=rhs,
            matrix=Csr(indptr, cols, vals, (len(rhs), len(lower))),
        )


def size_stats(p: LpProblem) -> SizeStats:
    """Row/column/nonzero counts of the constraint matrix."""
    return SizeStats(rows=p.matrix.shape[0], columns=len(p.lower), nonzeros=p.matrix.nnz)


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

# the binding's names for the objective senses and the statuses of `_Answer`
_SENSE = {MINIMIZE: "kMinimize", MAXIMIZE: "kMaximize"}
_STATUS = {"kOptimal": OPTIMAL, "kInfeasible": INFEASIBLE, "kUnbounded": UNBOUNDED}


class _Answer(NamedTuple):
    """One HiGHS run: `status` is OPTIMAL, INFEASIBLE or UNBOUNDED, else the
    text of HiGHS's own status; at OPTIMAL also the point, the objective in
    the problem's own sense and the duals of the rows held, in the order the
    handle holds them."""

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
        text = _STATUS.get(status.name) or h.modelStatusToString(status)
        return _Answer(text, None, None, None, nit)
    sol = h.getSolution()
    fun = info.objective_function_value
    return _Answer(OPTIMAL, np.array(sol.col_value), fun, np.array(sol.row_dual), nit)


class Handle:
    """A HiGHS model of one LP.

    It holds every row of the LP, in the order of the attribute `rows`, and
    takes rows from outside the LP through `add_rows`; every `run` starts
    from the basis the last one ended on, unless `clear` dropped it.  `run`
    answers for the rows held, and `certify` holds an answer to every bound
    and row of the LP, under the row bounds the handle holds: those the LP
    states, unless `set_row_upper` has edited them since.
    `method` is SIMPLEX or IPM.

    HiGHS is handed the LP as it is stated: its objective sense and `cost`,
    its column bounds, and row i as `row_lower[i] <= matrix[i] x <=
    row_upper[i]`, the bound its sense does not set being infinite.  The
    LP's rows enter as one row block, through the same `addRows` call as
    the rows `add_rows` takes.  The first handle of a process loads HiGHS's
    binding and holds glibc's mmap threshold, once, under a lock, so threads
    may make their first handles at once (see the module docstring).
    """

    def __init__(self, problem: LpProblem, method: str = SIMPLEX):
        _first_handle()
        p = self.problem = problem
        h = self.highs = _highspy._Highs()
        if method not in _METHODS:
            raise DomainError(f"LP method {method!r}")
        for key, value in {**_OPTIONS, **_METHODS[method]}.items():
            if h.setOptionValue(key, value) != _highspy.HighsStatus.kOk:
                raise DomainError(f"HiGHS option {key}={value!r}")
        n = len(p.lower)
        self.cost = np.zeros(n)
        for j, v in p.objective:
            self.cost[j] = v
        senses = np.array(p.senses, dtype="U2")
        self.row_lower = np.where(senses == LE, -np.inf, p.rhs)
        self.row_upper = np.where(senses == GE, np.inf, p.rhs)
        is_eq = senses == EQ
        # = rows after the others: answers depend on it (in stored order, a
        # one-tool generalized model ends on a slightly negative aggregate time)
        self.rows = np.concatenate((np.flatnonzero(~is_eq), np.flatnonzero(is_eq)))
        self._position = np.argsort(self.rows)  # HiGHS's index of each LP row
        for status in (
            h.addVars(n, p.lower, p.upper),
            h.changeColsCost(n, np.arange(n), self.cost),
            h.changeObjectiveSense(getattr(_highspy.ObjSense, _SENSE[p.sense])),
        ):
            if status == _highspy.HighsStatus.kError:
                raise LpSolverError(f"{p.name}: HiGHS refused the columns")
        self._add_rows(p.matrix[self.rows], self.row_lower[self.rows], self.row_upper[self.rows])

    def add_rows(self, block: Csr, lower, upper):
        """Add rows to the model that are not rows of the LP: row i reads
        `lower[i] <= block[i] x <= upper[i]`.  `run` gives them no dual and
        `certify` does not check them; the caller holds an answer to them."""
        self._add_rows(block, lower, upper)

    def _add_rows(self, block: Csr, lower, upper):
        """The one place rows reach HiGHS: `block` with one lower and one
        upper bound per row."""
        m, n = block.shape
        name = self.problem.name
        if n != len(self.problem.lower):
            raise DomainError(f"{name}: added rows over {n} columns")
        lower, upper = (np.asarray(b, dtype=float) for b in (lower, upper))
        if not lower.shape == upper.shape == (m,):
            raise DomainError(f"{name}: {m} added rows need {m} lower and upper bounds")
        status = self.highs.addRows(
            m, lower, upper, block.nnz, block.indptr[:-1], block.indices, block.data
        )
        if status == _highspy.HighsStatus.kError:
            raise LpSolverError(f"{name}: HiGHS refused {m} added rows")

    def set_row_upper(self, rows, upper):
        """Bound LP row `rows[i]` above by `upper[i]`, in HiGHS and in the
        bounds `certify` checks; the lower bounds stay.  The rows must be
        distinct rows of the LP, and each new bound a number no lower than
        the row's lower bound, or inf."""
        rows, upper = np.asarray(rows), np.asarray(upper, dtype=float)
        name, m = self.problem.name, len(self.row_upper)
        if not rows.ndim == 1 == upper.ndim or rows.size != upper.size:
            raise DomainError(f"{name}: {rows.size} rows to bound need one upper bound each")
        if rows.size and (
            rows.dtype.kind not in "iu" or not 0 <= rows.min() <= rows.max() < m
            or np.bincount(rows).max() > 1
        ):
            raise DomainError(f"{name}: rows to bound must be distinct indices in 0..{m - 1}")
        lower = self.row_lower[rows]
        bad = np.flatnonzero(~((upper >= lower) & (upper > -np.inf)))  # NaN fails too
        if bad.size:
            k = bad[0]
            row = self.problem.row_names[rows[k]]
            raise DomainError(f"{name}: row {row} upper bound {upper[k]}")
        self.row_upper[rows] = upper
        for at, lo, hi in zip(self._position[rows].tolist(), lower.tolist(), upper.tolist()):
            if self.highs.changeRowBounds(at, lo, hi) == _highspy.HighsStatus.kError:
                raise LpSolverError(f"{name}: HiGHS refused the bounds of row {at}")

    def clear(self):
        """Drop the basis and the solution HiGHS holds, so that the next
        `run` solves from scratch, presolve included, as on a new handle."""
        if self.highs.clearSolver() == _highspy.HighsStatus.kError:
            raise LpSolverError(f"{self.problem.name}: HiGHS could not clear its solver")

    def run(self) -> LpSolution:
        """Solve the rows held.  Solver breakdown raises LpSolverError instead
        of being mapped onto Infeasible; duals are per row of the LP, in its
        own order, in the minimization form."""
        ans = _run(self)
        if ans.status not in (OPTIMAL, INFEASIBLE, UNBOUNDED):
            raise LpSolverError(f"{self.problem.name}: solver failure: {ans.status}")
        if ans.status != OPTIMAL:
            return LpSolution(ans.status, None, (), None, ans.iterations)
        duals = np.zeros(len(self.row_lower))
        mine = ans.row_dual[: len(self.rows)]  # the added rows come after the LP's
        # negated, the duals HiGHS gives for a maximization are the minimization form's
        duals[self.rows] = mine if self.problem.sense == MINIMIZE else -mine
        return LpSolution(
            OPTIMAL, ans.fun, tuple(ans.x.tolist()), tuple(duals.tolist()), ans.iterations
        )

    def certify(self, sol: LpSolution):
        """Raise LpSolverError unless the Optimal `sol` keeps every bound and
        every row of the LP to the feasibility tolerance, and its objective
        is the objective at its x."""
        p = self.problem
        x = np.array(sol.x, dtype=float)
        feas = TOL.feasibility
        bad = np.flatnonzero(~((x >= p.lower - feas) & (x <= p.upper + feas)))  # NaN fails too
        if bad.size:
            raise LpSolverError(f"{p.name}: bound violated for {p.col_names[bad[0]]}")
        ax = p.matrix @ x
        violation = np.maximum(self.row_lower - ax, ax - self.row_upper)
        bad = np.flatnonzero(~(violation <= feas))
        if bad.size:
            i = bad[0]
            raise LpSolverError(f"{p.name}: row {p.row_names[i]} violated by {violation[i]:.3e}")
        obj = float(self.cost @ x)
        if not abs(obj - sol.objective) <= TOL.comparison * max(1.0, abs(obj)):
            raise LpSolverError(f"{p.name}: objective mismatch {obj} vs {sol.objective}")


def solve(p: LpProblem, method: str = SIMPLEX) -> LpSolution:
    """Solve the problem; deterministic for a fixed problem and method.

    One HiGHS run on all rows under the layer's tolerances.  An optimal
    solution is checked against every bound and row and the objective before
    it is returned.  Solver breakdown raises LpSolverError instead of being
    mapped onto Infeasible.  Duals are per row, for the minimization form.
    """
    handle = Handle(p, method=method)
    sol = handle.run()
    if sol.status == OPTIMAL:
        handle.certify(sol)
    return sol


# --- textual LP format -----------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _emit_terms(coeffs, names) -> str:
    if not coeffs:
        return "0"
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
    17 significant digits so a reader gets the numbers back exactly.  An
    objective or row without entries reads `0`; an explicit zero entry reads
    `0 x`.  The problem's name, the first (comment) line, holds no line break.
    """
    if "\n" in p.name or "\r" in p.name:
        raise DomainError(f"problem name {p.name!r} holds a line break")
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
