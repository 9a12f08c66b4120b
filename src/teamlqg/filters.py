"""Decentralized Kalman filtering in deviation/aggregate coordinates.

Estimation for the team splits into two independent filters.  A deviation
filter tracks each agent's offset from the influence-weighted average; its
covariance and gain schedule is shared by all agents and all team sizes.
An aggregate filter tracks the weighted average itself on the coupled
matrices, with noise covariances shrunk by 1/n.  The familiar per-agent
state estimate is the derived view ``delta + alpha_i * aggregate`` and is
never stored as a second recursion.

Both schedules (covariances and gains, one ``FilterSchedule`` each) come
from one forward covariance recursion, the dual of the backward Riccati
pass in ``riccati``, over a leading chain axis: the deviation chain on the
local matrices with noise divisor 1, the aggregate chain on the coupled
sums with every noise covariance divided by n.  ``precompute_filters`` runs
both chains in one pass, ``precompute_local``/``precompute_global`` one
alone.  They depend only on the model, so they are precomputed once.
Stepping is cheap linear algebra on top, batched over
rollouts along a leading axis; the simulator and a single hand-driven
trajectory use the same update and predict functions.  Stepping arrays are
agent-last, ``(B, d, n)``: a stage matrix applies as ``M @ x``, an influence
average is ``x @ alpha / n``, and ``alpha_i * z`` broadcasts along the
contiguous agent axis.  Aggregate rows ``(B, d)`` take a stage matrix through
``_matvec``, one product per row, so a rollout rounds alike in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import SingularInnovationError
from .model import TeamModel, _chain_pair

_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class FilterSchedule:
    """Filter covariances and gains, one entry per stage (0-based).

    ``Sigma_pred[t]`` and ``Sigma_post[t]`` are the pre/post-update error
    covariances and ``gain[t]`` is applied to the innovation at stage t,
    including t = 0.  In the deviation schedule they belong to the scaled
    deviation estimate: the per-agent deviation error covariance is
    ``(1 - alpha_i^2 / n) * Sigma``.
    """

    Sigma_pred: np.ndarray
    Sigma_post: np.ndarray
    gain: np.ndarray


def _checked_gain(sigma_pred: np.ndarray, obs: np.ndarray, noise_cov: np.ndarray,
                  t: int, labels) -> np.ndarray:
    """Kalman gains of the chains stacked on the leading axis, one label per
    chain; the first chain whose innovation covariance is not finite or
    numerically singular raises."""
    cov = obs @ sigma_pred @ obs.swapaxes(-1, -2) + noise_cov
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    for label, chain_cov in zip(labels, cov):
        if not np.isfinite(chain_cov).all():
            raise SingularInnovationError(
                f"{label} innovation covariance is not finite", t + 1)
        eigs = np.linalg.eigvalsh(chain_cov)
        if eigs[0] <= _SINGULAR_REL * max(np.trace(chain_cov), 0.0):
            raise SingularInnovationError(
                f"{label} innovation covariance is singular", t + 1)
    return np.linalg.solve(cov, obs @ sigma_pred).swapaxes(-1, -2)


@np.errstate(over="ignore", invalid="ignore")
def _forward_chain(model: TeamModel, labels: tuple[str, ...]) -> list[FilterSchedule]:
    """The schedules of the chains named in ``labels``, from one pass over a
    leading chain axis."""
    pick = [("deviation", "aggregate").index(label) for label in labels]
    A, E, C, S = (_chain_pair(model, name)[pick] for name in "AECS")
    n = np.array([1.0, model.dims.n])[pick, None, None]
    T, d_x = model.dims.T, model.dims.d_x
    sigma_pred = np.zeros((len(pick), T, d_x, d_x))
    sigma_post = np.zeros((len(pick), T, d_x, d_x))
    gain = np.zeros((len(pick), T, d_x, model.dims.d_y))
    sigma_pred[:, 0] = model.Sigma_x / n
    for t in range(T):
        noise = S[:, t] @ model.Sigma_v[t] @ S[:, t].swapaxes(-1, -2) / n
        gain[:, t] = _checked_gain(sigma_pred[:, t], C[:, t], noise, t, labels)
        post = (np.eye(d_x) - gain[:, t] @ C[:, t]) @ sigma_pred[:, t]
        sigma_post[:, t] = 0.5 * (post + post.swapaxes(-1, -2))
        if t + 1 < T:
            nxt = (A[:, t] @ sigma_post[:, t] @ A[:, t].swapaxes(-1, -2)
                   + E[:, t] @ model.Sigma_w[t] @ E[:, t].swapaxes(-1, -2) / n)
            sigma_pred[:, t + 1] = 0.5 * (nxt + nxt.swapaxes(-1, -2))
    return [FilterSchedule(Sigma_pred=sigma_pred[k], Sigma_post=sigma_post[k],
                           gain=gain[k]) for k in range(len(pick))]


def precompute_filters(model: TeamModel) -> tuple[FilterSchedule, FilterSchedule]:
    """Both filter schedules, deviation then aggregate, from one forward pass."""
    return tuple(_forward_chain(model, ("deviation", "aggregate")))


def precompute_local(model: TeamModel) -> FilterSchedule:
    """Run the deviation-filter covariance recursion over the whole horizon."""
    return _forward_chain(model, ("deviation",))[0]


def precompute_global(model: TeamModel) -> FilterSchedule:
    """Run the aggregate-filter covariance recursion over the whole horizon.

    Uses the coupled matrices and noise covariances scaled by 1/n; every
    covariance in the schedule is exactly proportional to 1/n under a
    homogeneous influence vector, while the gains are n-independent.
    """
    return _forward_chain(model, ("aggregate",))[0]


def _matvec(M: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows @ M.T`` for rows (..., d), as one matrix-vector product per
    row, so a row rounds the same way in a batch of any size."""
    return (M @ rows[..., None])[..., 0]


def prior_estimates(model: TeamModel, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Deviation (batch, d_x, n) and aggregate (batch, d_x) estimates before
    the first observation."""
    a_mean = model.alpha_mean
    delta = np.outer(model.mu_x, 1.0 - model.alpha * a_mean)
    return (np.broadcast_to(delta, (batch, *delta.shape)).copy(),
            np.broadcast_to(a_mean * model.mu_x, (batch, model.dims.d_x)).copy())


def update_estimates(
    model: TeamModel,
    local: FilterSchedule,
    glob: Optional[FilterSchedule],
    t: int,
    delta: np.ndarray,
    agg: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Absorb stage t's observations into a batch of estimates.

    ``delta`` (B, d_x, n) and ``agg`` (B, d_x) are the predicted estimates
    and ``y`` (B, d_y, n) the observations; B = 1 covers one trajectory.
    Returns the updated ``(delta, agg, correction)``, where ``correction``
    is the aggregate filter's update.

    Each agent's innovation splits into its influence-weighted average,
    which drives the aggregate filter, and the remainder, which drives the
    deviation filter.  The deviation rows are then projected back onto
    ``delta @ alpha / n == 0``: no innovation ever corrects that component,
    so without the projection its rounding error grows at the open-loop
    rate of A.

    With ``glob`` None the aggregate is not observed but a known path, such
    as the mean-field plan (a single (d_x,) row is accepted).  The whole
    innovation then drives the private deviation filters, ``agg`` comes back
    unchanged and ``correction`` is None.
    """
    alpha = model.alpha
    n = alpha.shape[0]
    C_all = model.C[t] + model.C_bar[t]
    raw = y - model.C[t] @ delta
    raw -= _matvec(C_all, agg)[..., None] * alpha
    if glob is None:
        return delta + local.gain[t] @ raw, agg, None
    agg_innov = raw @ alpha / n
    raw -= agg_innov[..., None] * alpha
    delta = delta + local.gain[t] @ raw
    delta -= (delta @ alpha / n)[..., None] * alpha
    correction = _matvec(glob.gain[t], agg_innov)
    return delta, agg + correction, correction


def predict_estimates(
    model: TeamModel,
    t: int,
    delta: np.ndarray,
    agg: np.ndarray,
    u: np.ndarray,
    u_bar: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a batch of estimates through stage t's dynamics.

    ``u`` (B, d_u, n) holds the applied actions and ``u_bar`` their
    influence-weighted average, or the planned one for mean-field filters.
    """
    dev_u = u - u_bar[..., None] * model.alpha
    delta = model.A[t] @ delta + model.B[t] @ dev_u
    agg = (_matvec(model.A[t] + model.A_bar[t], agg)
           + _matvec(model.B[t] + model.B_bar[t], u_bar))
    return delta, agg


def combined_agent_estimate(delta_xhat, agg_xhat, alpha):
    """Per-agent state estimate ``delta + alpha * aggregate``.

    Accepts a single deviation row with a scalar influence factor, or the
    full (n, d_x) stack with the influence vector.
    """
    return np.asarray(delta_xhat, dtype=float) + np.multiply.outer(
        np.asarray(alpha, dtype=float), np.asarray(agg_xhat, dtype=float))


def team_error_covariance(
    local: FilterSchedule,
    glob: FilterSchedule,
    alpha: np.ndarray,
    n: int,
    t: int | slice,
    phase: str = "updated",
) -> np.ndarray:
    """Joint covariance of the team's per-agent estimation errors at stage t,
    or the (stages, size, size) stack of them when ``t`` is a slice.

    Block (i, j) combines the deviation-error covariance, which carries the
    index-invariant factor (delta_ij - alpha_i alpha_j / n), with the shared
    aggregate error weighted by alpha_i alpha_j.  Both weights keep their
    form under an orthogonal change of agent coordinates, so ``alpha`` may
    be the influence vector in any orthonormal agent basis, or in part of
    one such as the oracle's reduced team; ``n`` is always the real team
    size.
    """
    alpha = np.asarray(alpha, dtype=float)
    sig = local.Sigma_post[t] if phase == "updated" else local.Sigma_pred[t]
    sig_agg = glob.Sigma_post[t] if phase == "updated" else glob.Sigma_pred[t]
    shared = np.outer(alpha, alpha)
    weights = np.eye(alpha.shape[0]) - shared / n
    # np.kron of the weights with each stage, without its call overhead
    blocks = (np.einsum("ij,...kl->...ikjl", weights, sig)
              + np.einsum("ij,...kl->...ikjl", shared, sig_agg))
    size = alpha.shape[0] * sig.shape[-1]
    return blocks.reshape(blocks.shape[:-4] + (size, size))


# ---------------------------------------------------------------------------
# JSON form of a precomputed schedule


def schedule_to_json_dict(schedule) -> dict:
    """JSON form of a ``FilterSchedule`` or a ``RiccatiPass``.

    Each per-stage stack is keyed by 1-based stage strings; ``T`` is the
    horizon, the length of the first stack.
    """
    stacks = {f.name: getattr(schedule, f.name) for f in fields(schedule)}
    doc = {name: {str(t + 1): m.tolist() for t, m in enumerate(stack)}
           for name, stack in stacks.items()}
    doc["T"] = next(iter(stacks.values())).shape[0]
    return doc
