"""HiGHS's own LP file reader, an implementation independent of
`lp.export_lp_text`, as the reference that reads the exported text back."""

import os
import tempfile
from typing import NamedTuple

import numpy as np

from clustercap import lp


class ReadLp(NamedTuple):
    """The model HiGHS reads from LP text.  Columns are in the order the
    reader first meets their names; the matrix is row-wise, each row's
    entries by column."""

    sense: str
    col_names: tuple[str, ...]
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_names: tuple[str, ...]
    row_lower: np.ndarray
    row_upper: np.ndarray
    matrix: lp.Csr

    def problem(self, name: str = "read") -> lp.LpProblem:
        """The model as an `LpProblem`, each row's sense taken from its bounds:
        equal bounds give `=`, no lower bound `<=`, no upper bound `>=`, and a
        row with neither `<= inf`."""
        lo, hi = self.row_lower, self.row_upper
        if np.any((lo > -np.inf) & (hi < np.inf) & (lo != hi)):
            raise ValueError("a row bounded on both sides is not a row of an LpProblem")
        senses = np.where(lo == hi, lp.EQ, np.where(lo == -np.inf, lp.LE, lp.GE))
        rhs = np.where(senses == lp.LE, hi, lo)
        senses = senses.tolist()
        a = self.matrix
        build = lp.LpBuilder(name, self.sense)
        build.add_cols(self.col_names, self.lower, self.upper)
        build.set_objective((j, c) for j, c in enumerate(self.cost.tolist()) if c)
        for i, row in enumerate(self.row_names):
            k, end = a.indptr[i], a.indptr[i + 1]
            build.add_rows([row], [end - k], a.indices[k:end], a.data[k:end], senses[i], rhs[i])
        return build.problem()


def read_lp_text(text: str) -> ReadLp:
    """Write `text` to a temporary file and read it with HiGHS, output off.
    Like any model HiGHS takes, `lp.Handle`'s too, the one read drops matrix
    entries of size at most its `small_matrix_value`, 1e-9: an explicit zero
    entry reads as no entry."""
    highs = lp._highspy._Highs()
    highs.setOptionValue("output_flag", False)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "model.lp")
        with open(path, "w") as fh:
            fh.write(text)
        status = highs.readModel(path)
    if status == lp._highspy.HighsStatus.kError:  # kWarning: an entry <= 1e-9 was dropped
        raise ValueError("HiGHS could not read the LP text")
    highs.ensureColwise()
    m = highs.getLp()
    a = m.a_matrix_
    rows = np.asarray(a.index_, np.int64)
    cols = np.repeat(np.arange(m.num_col_), np.diff(a.start_))
    order = np.lexsort((cols, rows))  # row-wise, by column within a row
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m.num_row_))))
    sense = lp.MINIMIZE if m.sense_ == lp._highspy.ObjSense.kMinimize else lp.MAXIMIZE
    return ReadLp(
        sense=sense,
        col_names=tuple(m.col_names_),
        cost=np.asarray(m.col_cost_, float),
        lower=np.asarray(m.col_lower_, float),
        upper=np.asarray(m.col_upper_, float),
        row_names=tuple(m.row_names_),
        row_lower=np.asarray(m.row_lower_, float),
        row_upper=np.asarray(m.row_upper_, float),
        matrix=lp.Csr(indptr, cols[order], np.asarray(a.value_, float)[order], (m.num_row_, m.num_col_)),
    )
