"""Independent re-checks that only the tests need: a transposed solve for
cone coefficients, an LP for convex membership and a CSV reader."""

import csv

import numpy as np
from scipy.optimize import linprog

from shadowlp.geometry import basis_rows, solve_linear


def cone_coefficients(points, indices, direction, infinite_dir=None):
    """Coefficients lam solving sum_i lam_i a_i = direction over the index
    set's basis vectors (infinite vertex contributes its direction u).
    Returned in sorted index order.  A direction pierces the facet exactly
    when all coefficients are >= -eps_feas."""
    points = np.asarray(points, dtype=float)
    rows, _ = basis_rows(points, indices, infinite_dir)
    return solve_linear(rows.T, np.asarray(direction, dtype=float))


def convex_membership(points, x):
    """Is x a convex combination of the points?"""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    a_eq = np.vstack([points.T, np.ones(n)])
    b_eq = np.append(np.asarray(x, dtype=float), 1.0)
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs")
    return bool(res.success)


def read_csv(path):
    """(header tuple, rows as lists of strings) of a CSV file."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        return header, [list(row) for row in reader]
