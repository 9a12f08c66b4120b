"""Backward Riccati recursions for the deviation and aggregate control problems.

Both recursions are standard finite-horizon LQR passes.  The deviation chain
runs on the local matrices (A, B, Q, R); the aggregate chain runs on the
coupled sums (A + A_bar, B + B_bar, Q + Q_bar, R + R_bar).  Neither depends
on the population size or the influence vector, so one pass serves every
agent and every team size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RiccatiError
from .model import TeamModel


@dataclass(frozen=True)
class RiccatiPass:
    """Value matrices and feedback gains for both chains.

    ``P[t]`` is the deviation value matrix of stage t (0-based), ``P_agg[t]``
    the aggregate one.  ``gain[t]`` maps a state estimate to an action at
    stage t and exists for t < T - 1 only; the final stage has no action.
    """

    P: np.ndarray
    P_agg: np.ndarray
    gain: np.ndarray
    gain_agg: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def _backward_chain(A, B, Q, R, label: str) -> tuple[np.ndarray, np.ndarray]:
    T, d_x, _ = A.shape
    d_u = B.shape[2]
    P = np.zeros((T, d_x, d_x))
    gain = np.zeros((max(T - 1, 0), d_u, d_x))
    P[T - 1] = 0.5 * (Q[T - 1] + Q[T - 1].T)
    for t in range(T - 2, -1, -1):
        nxt = P[t + 1]
        inner = B[t].T @ nxt @ B[t] + R[t]
        inner = 0.5 * (inner + inner.T)
        try:
            np.linalg.cholesky(inner)
        except np.linalg.LinAlgError as exc:
            raise RiccatiError(
                f"{label} Riccati inner matrix not positive definite", t + 1
            ) from exc
        rhs = B[t].T @ nxt @ A[t]
        if not (np.isfinite(inner).all() and np.isfinite(rhs).all()):
            raise RiccatiError(f"{label} Riccati pass is not finite", t + 1)
        gain[t] = -np.linalg.solve(inner, rhs)
        closed = A[t] + B[t] @ gain[t]
        P[t] = Q[t] + A[t].T @ nxt @ closed
        P[t] = 0.5 * (P[t] + P[t].T)
    return P, gain


def solve_riccati(model: TeamModel) -> RiccatiPass:
    """Run both backward passes and return value matrices with feedback gains."""
    P, gain = _backward_chain(model.A, model.B, model.Q, model.R, "deviation")
    P_agg, gain_agg = _backward_chain(
        model.A + model.A_bar,
        model.B + model.B_bar,
        model.Q + model.Q_bar,
        model.R + model.R_bar,
        "aggregate",
    )
    return RiccatiPass(P=P, P_agg=P_agg, gain=gain, gain_agg=gain_agg)
