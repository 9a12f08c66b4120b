"""Backward Riccati recursions for the deviation and aggregate control problems.

Both recursions are standard finite-horizon LQR passes.  The deviation chain
runs on the local matrices (A, B, Q, R); the aggregate chain runs on the
coupled sums (A + A_bar, B + B_bar, Q + Q_bar, R + R_bar), both read from
``TeamModel.chains``.  Neither depends on the population size or the
influence vector, so one pass serves every agent and every team size.  The
chains run as one pass over a leading chain axis, each stage checked for
all chains by one factorization; a failing stage names its first failing
chain, deviation first.
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


def _raise_first_failure(labels, inner, rhs, t: int) -> None:
    """Check a stage chain by chain, deviation first, and raise for the
    first chain whose inner matrix is not positive definite or whose pass
    is not finite."""
    for label, chain_inner, chain_rhs in zip(labels, inner, rhs):
        try:
            np.linalg.cholesky(chain_inner)
        except np.linalg.LinAlgError as exc:
            raise RiccatiError(
                f"{label} Riccati inner matrix not positive definite", t + 1
            ) from exc
        if not (np.isfinite(chain_inner).all() and np.isfinite(chain_rhs).all()):
            raise RiccatiError(f"{label} Riccati pass is not finite", t + 1)


@np.errstate(over="ignore", invalid="ignore")
def _backward_chain(A, B, Q, R, labels) -> tuple[np.ndarray, np.ndarray]:
    """Value matrices and gains of the chains stacked on the leading axis of
    each (chains, T, rows, cols) argument, one label per chain."""
    chains, T, d_x, _ = A.shape
    d_u = B.shape[-1]
    P = np.zeros((chains, T, d_x, d_x))
    gain = np.zeros((chains, max(T - 1, 0), d_u, d_x))
    P[:, T - 1] = 0.5 * (Q[:, T - 1] + Q[:, T - 1].swapaxes(-1, -2))
    for t in range(T - 2, -1, -1):
        nxt = P[:, t + 1]
        inner = B[:, t].swapaxes(-1, -2) @ nxt @ B[:, t] + R[:, t]
        inner = 0.5 * (inner + inner.swapaxes(-1, -2))
        rhs = B[:, t].swapaxes(-1, -2) @ nxt @ A[:, t]
        try:
            np.linalg.cholesky(inner)
            passed = np.isfinite(inner).all() and np.isfinite(rhs).all()
        except np.linalg.LinAlgError:
            passed = False
        if not passed:
            _raise_first_failure(labels, inner, rhs, t)
        gain[:, t] = -np.linalg.solve(inner, rhs)
        closed = A[:, t] + B[:, t] @ gain[:, t]
        P[:, t] = Q[:, t] + A[:, t].swapaxes(-1, -2) @ nxt @ closed
        P[:, t] = 0.5 * (P[:, t] + P[:, t].swapaxes(-1, -2))
    return P, gain


def solve_riccati(model: TeamModel) -> RiccatiPass:
    """Run both backward passes and return value matrices with feedback gains."""
    P, gain = _backward_chain(*(model.chains[name] for name in "ABQR"),
                              ("deviation", "aggregate"))
    return RiccatiPass(P=P[0], P_agg=P[1], gain=gain[0], gain_agg=gain[1])
