"""Dense linear programming via two-phase primal simplex.

Solves ``min c.x`` subject to row-wise relations ``A x {<=, >=, =} b`` and
``x >= 0``.  Bland's pivoting rule is used in both phases, so the solver
terminates on every instance; the problems handled here are tiny (a few
dozen variables), which makes the dense tableau and the slower rule cheap.

Equality rows keep a single artificial variable in phase one instead of
being split into opposing inequalities.  Numerical breakdown is never
converted into a silently wrong answer: the solver raises
`SolverFailureError` instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import LpConstructionError, SolverFailureError

logger = logging.getLogger(__name__)

# Documented solver constants.
FEASIBILITY_TOL = 1e-8  # max constraint violation accepted in a solution
PIVOT_TOL = 1e-10       # entries at or below this are treated as zero pivots

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """``min objective . x`` s.t. ``constraints x (relations) rhs`` and ``x >= 0``."""

    objective: np.ndarray
    constraints: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.atleast_2d(np.asarray(self.constraints, dtype=np.float64))
        b = np.asarray(self.rhs, dtype=np.float64)
        if a.shape != (b.shape[0], c.shape[0]):
            raise LpConstructionError(
                f"constraint matrix {a.shape} does not match "
                f"{b.shape[0]} rhs rows x {c.shape[0]} objective coefficients"
            )
        if len(self.relations) != b.shape[0]:
            raise LpConstructionError(
                f"{len(self.relations)} relations for {b.shape[0]} rows"
            )
        for rel in self.relations:
            if rel not in _RELATIONS:
                raise LpConstructionError(f"unknown relation {rel!r}")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise LpConstructionError("non-finite entry in LP data")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", a)
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "rhs", b)

    @property
    def n_variables(self) -> int:
        return self.objective.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.rhs.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective_value: float | None
    iterations: int


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    basis[row] = col


def _bland_iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    n_cols: int,
    max_iterations: int,
    phase: int,
) -> tuple[str, int]:
    """Run simplex iterations with Bland's rule on a reduced tableau.

    The last tableau row is the objective (to be minimized), the last
    column the right-hand side.  Returns ("optimal" | "unbounded", count).
    """
    iterations = 0
    while True:
        cost = tableau[-1, :n_cols]
        entering_candidates = np.nonzero(cost < -PIVOT_TOL)[0]
        if entering_candidates.size == 0:
            return "optimal", iterations
        col = int(entering_candidates[0])  # Bland: lowest index enters

        column = tableau[:-1, col]
        rhs = tableau[:-1, -1]
        positive = column > PIVOT_TOL
        if not np.any(positive):
            return "unbounded", iterations
        ratios = np.full(column.shape[0], np.inf)
        ratios[positive] = rhs[positive] / column[positive]
        best = ratios.min()
        # Bland tie-break: among minimal ratios, leave the lowest basis index.
        tied = np.nonzero(ratios <= best + PIVOT_TOL)[0]
        row = int(tied[np.argmin(basis[tied])])

        _pivot(tableau, basis, row, col)
        iterations += 1
        logger.debug(
            "phase %d iteration %d: col %d enters, row %d leaves, objective %.12g",
            phase, iterations, col, row, -tableau[-1, -1],
        )
        if iterations > max_iterations:
            raise SolverFailureError(
                f"iteration limit {max_iterations} exceeded in phase {phase}"
            )


def solve(lp: LinearProgram) -> LpSolution:
    """Solve an LP with the two-phase simplex method.

    Returns a status-correct `LpSolution`; when the status is OPTIMAL the
    solution satisfies every constraint within `FEASIBILITY_TOL` (verified
    before returning, otherwise `SolverFailureError` is raised).
    """
    n = lp.n_variables
    a = lp.constraints.copy()
    b = lp.rhs.copy()
    m = a.shape[0]

    # Normalize to non-negative rhs.
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    rel = [
        {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[r]
        if flipped
        else r
        for r, flipped in zip(lp.relations, flip)
    ]

    max_iterations = max(500, 100 * (m + n))

    # Column layout: structural | slack/surplus | artificial.
    n_slack = sum(r != EQUAL for r in rel)
    n_artificial = sum(r != LESS_EQUAL for r in rel)
    n_total = n + n_slack + n_artificial

    tableau = np.zeros((m + 1, n_total + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    basis = np.empty(m, dtype=np.int64)
    slack_at = n
    art_at = n + n_slack
    artificial_cols = []
    for i, r in enumerate(rel):
        if r == LESS_EQUAL:
            tableau[i, slack_at] = 1.0
            basis[i] = slack_at
            slack_at += 1
        elif r == GREATER_EQUAL:
            tableau[i, slack_at] = -1.0
            slack_at += 1
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            artificial_cols.append(art_at)
            art_at += 1
        else:
            tableau[i, art_at] = 1.0
            basis[i] = art_at
            artificial_cols.append(art_at)
            art_at += 1

    total_iterations = 0
    if artificial_cols:
        # Phase 1: minimize the sum of artificials; the cost row is reduced
        # against the artificial basis by subtracting their constraint rows.
        tableau[-1, artificial_cols] = 1.0
        for i in range(m):
            if basis[i] in artificial_cols:
                tableau[-1] -= tableau[i]
        outcome, iters = _bland_iterate(tableau, basis, n_total, max_iterations, 1)
        total_iterations += iters
        if outcome == "unbounded":
            raise SolverFailureError("phase-1 objective unbounded (numerical breakdown)")
        if tableau[-1, -1] < -FEASIBILITY_TOL:
            return LpSolution(LpStatus.INFEASIBLE, None, None, total_iterations)

        # Drive any leftover artificial out of the basis; an all-zero row is
        # a redundant constraint and is dropped.
        art_set = set(artificial_cols)
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] not in art_set:
                continue
            row_entries = np.abs(tableau[i, : n + n_slack])
            candidates = np.nonzero(row_entries > PIVOT_TOL)[0]
            if candidates.size:
                _pivot(tableau, basis, i, int(candidates[0]))
            else:
                keep[i] = False
        if not np.all(keep):
            tableau = np.vstack([tableau[:m][keep], tableau[-1:]])
            basis = basis[keep]
            m = int(keep.sum())

        # Remove artificial columns entirely for phase 2.
        tableau = np.delete(tableau, artificial_cols, axis=1)
        n_total = n + n_slack

    # Phase 2 objective, reduced against the current basis.
    tableau[-1, :] = 0.0
    tableau[-1, :n] = lp.objective
    for i in range(m):
        coef = tableau[-1, basis[i]]
        if abs(coef) > PIVOT_TOL:
            tableau[-1] -= coef * tableau[i]

    outcome, iters = _bland_iterate(tableau, basis, n_total, max_iterations, 2)
    total_iterations += iters
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, None, None, total_iterations)

    x = np.zeros(n_total)
    x[basis] = tableau[:m, -1]
    x = x[:n]

    violation = _max_violation(lp, x)
    if violation > FEASIBILITY_TOL:
        raise SolverFailureError(
            f"solution violates constraints by {violation:.3e} (> {FEASIBILITY_TOL})"
        )
    objective_value = float(lp.objective @ x)
    return LpSolution(LpStatus.OPTIMAL, x, objective_value, total_iterations)


def _max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest absolute violation of any constraint, or of x >= 0, at x."""
    lhs = lp.constraints @ x
    worst = 0.0
    for i, r in enumerate(lp.relations):
        if r == LESS_EQUAL:
            worst = max(worst, lhs[i] - lp.rhs[i])
        elif r == GREATER_EQUAL:
            worst = max(worst, lp.rhs[i] - lhs[i])
        else:
            worst = max(worst, abs(lhs[i] - lp.rhs[i]))
    worst = max(worst, float(np.max(-x, initial=0.0)))
    return float(worst)
