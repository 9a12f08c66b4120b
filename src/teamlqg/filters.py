"""Decentralized Kalman filtering in deviation/aggregate coordinates.

Estimation for the team splits into two independent filters.  A deviation
filter tracks each agent's offset from the influence-weighted average; its
covariance and gain schedule is shared by all agents and all team sizes.
An aggregate filter tracks the weighted average itself on the coupled
matrices, with noise covariances shrunk by 1/n.  The familiar per-agent
state estimate is the derived view ``delta + alpha_i * aggregate`` and is
never stored as a second recursion.

Schedules (covariances and gains) depend only on the model, so they are
precomputed once.  Stepping is cheap linear algebra on top, batched over
rollouts along a leading axis; the simulator and a single hand-driven
trajectory use the same update and predict functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularInnovationError
from .model import TeamModel

_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class LocalFilterSchedule:
    """Deviation-filter covariances and gains, one entry per stage (0-based).

    ``Sigma_pred[t]`` and ``Sigma_post[t]`` are the pre/post-update error
    covariances of the scaled deviation estimate; the per-agent deviation
    error covariance is ``(1 - alpha_i^2 / n) * Sigma``.  ``gain[t]`` is
    applied to the deviation innovation at stage t, including t = 0.
    """

    Sigma_pred: np.ndarray
    Sigma_post: np.ndarray
    gain: np.ndarray


@dataclass(frozen=True)
class GlobalFilterSchedule:
    """Aggregate-filter covariances and gains, one entry per stage (0-based)."""

    Sigma_pred: np.ndarray
    Sigma_post: np.ndarray
    gain: np.ndarray


def _checked_gain(sigma_pred: np.ndarray, obs: np.ndarray, noise_cov: np.ndarray,
                  t: int, label: str) -> np.ndarray:
    cov = obs @ sigma_pred @ obs.T + noise_cov
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= _SINGULAR_REL * max(np.trace(cov), 0.0):
        raise SingularInnovationError(f"{label} innovation covariance is singular", t + 1)
    return np.linalg.solve(cov, obs @ sigma_pred).T


def precompute_local(model: TeamModel) -> LocalFilterSchedule:
    """Run the deviation-filter covariance recursion over the whole horizon."""
    d = model.dims
    sigma_pred = np.zeros((d.T, d.d_x, d.d_x))
    sigma_post = np.zeros((d.T, d.d_x, d.d_x))
    gain = np.zeros((d.T, d.d_x, d.d_y))
    sigma_pred[0] = model.Sigma_x
    for t in range(d.T):
        C = model.C[t]
        noise = model.S[t] @ model.Sigma_v[t] @ model.S[t].T
        gain[t] = _checked_gain(sigma_pred[t], C, noise, t, "deviation")
        post = (np.eye(d.d_x) - gain[t] @ C) @ sigma_pred[t]
        sigma_post[t] = 0.5 * (post + post.T)
        if t + 1 < d.T:
            nxt = (model.A[t] @ sigma_post[t] @ model.A[t].T
                   + model.E[t] @ model.Sigma_w[t] @ model.E[t].T)
            sigma_pred[t + 1] = 0.5 * (nxt + nxt.T)
    return LocalFilterSchedule(Sigma_pred=sigma_pred, Sigma_post=sigma_post, gain=gain)


def precompute_global(model: TeamModel) -> GlobalFilterSchedule:
    """Run the aggregate-filter covariance recursion over the whole horizon.

    Uses the coupled matrices and noise covariances scaled by 1/n; every
    covariance in the schedule is exactly proportional to 1/n under a
    homogeneous influence vector, while the gains are n-independent.
    """
    d = model.dims
    n = d.n
    sigma_pred = np.zeros((d.T, d.d_x, d.d_x))
    sigma_post = np.zeros((d.T, d.d_x, d.d_x))
    gain = np.zeros((d.T, d.d_x, d.d_y))
    sigma_pred[0] = model.Sigma_x / n
    for t in range(d.T):
        C = model.C[t] + model.C_bar[t]
        S = model.S[t] + model.S_bar[t]
        noise = S @ model.Sigma_v[t] @ S.T / n
        gain[t] = _checked_gain(sigma_pred[t], C, noise, t, "aggregate")
        post = (np.eye(d.d_x) - gain[t] @ C) @ sigma_pred[t]
        sigma_post[t] = 0.5 * (post + post.T)
        if t + 1 < d.T:
            A = model.A[t] + model.A_bar[t]
            E = model.E[t] + model.E_bar[t]
            nxt = A @ sigma_post[t] @ A.T + E @ model.Sigma_w[t] @ E.T / n
            sigma_pred[t + 1] = 0.5 * (nxt + nxt.T)
    return GlobalFilterSchedule(Sigma_pred=sigma_pred, Sigma_post=sigma_post, gain=gain)


def prior_estimates(model: TeamModel, batch: int) -> tuple[np.ndarray, np.ndarray]:
    """Deviation (batch, n, d_x) and aggregate (batch, d_x) estimates before
    the first observation."""
    a_mean = model.alpha_mean
    delta = np.outer(1.0 - model.alpha * a_mean, model.mu_x)
    return (np.broadcast_to(delta, (batch, *delta.shape)).copy(),
            np.broadcast_to(a_mean * model.mu_x, (batch, model.dims.d_x)).copy())


def update_estimates(
    model: TeamModel,
    local: LocalFilterSchedule,
    glob: Optional[GlobalFilterSchedule],
    t: int,
    delta: np.ndarray,
    agg: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Absorb stage t's observations into a batch of estimates.

    ``delta`` (B, n, d_x) and ``agg`` (B, d_x) are the predicted estimates
    and ``y`` (B, n, d_y) the observations; B = 1 covers one trajectory.
    Returns the updated ``(delta, agg, correction)``, where ``correction``
    is the aggregate filter's update.

    Each agent's innovation splits into its influence-weighted average,
    which drives the aggregate filter, and the remainder, which drives the
    deviation filter.  The deviation rows are then projected back onto
    ``alpha @ delta / n == 0``: no innovation ever corrects that component,
    so without the projection its rounding error grows at the open-loop
    rate of A.

    With ``glob`` None the aggregate is not observed but a known path, such
    as the mean-field plan (a single (d_x,) row is accepted).  The whole
    innovation then drives the private deviation filters, ``agg`` comes back
    unchanged and ``correction`` is None.
    """
    alpha = model.alpha
    n = alpha.shape[0]
    a3 = alpha[None, :, None]
    C_all = model.C[t] + model.C_bar[t]
    raw = y - (delta @ model.C[t].T + a3 * (agg @ C_all.T)[..., None, :])
    if glob is None:
        return delta + raw @ local.gain[t].T, agg, None
    agg_innov = alpha @ raw / n
    delta = delta + (raw - a3 * agg_innov[:, None, :]) @ local.gain[t].T
    delta -= a3 * (alpha @ delta / n)[:, None, :]
    correction = agg_innov @ glob.gain[t].T
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

    ``u`` (B, n, d_u) holds the applied actions and ``u_bar`` their
    influence-weighted average, or the planned one for mean-field filters.
    """
    a3 = model.alpha[None, :, None]
    delta = delta @ model.A[t].T + (u - a3 * u_bar[..., None, :]) @ model.B[t].T
    agg = (agg @ (model.A[t] + model.A_bar[t]).T
           + u_bar @ (model.B[t] + model.B_bar[t]).T)
    return delta, agg


def combined_agent_estimate(delta_xhat, agg_xhat, alpha):
    """Per-agent state estimate ``delta + alpha * aggregate``.

    Accepts a single deviation row with a scalar influence factor, or the
    full (n, d_x) stack with the influence vector.
    """
    delta_xhat = np.asarray(delta_xhat, dtype=float)
    agg_xhat = np.asarray(agg_xhat, dtype=float)
    if delta_xhat.ndim == 1:
        return delta_xhat + float(alpha) * agg_xhat
    return delta_xhat + np.outer(np.asarray(alpha, dtype=float), agg_xhat)


def team_error_covariance(
    local: LocalFilterSchedule,
    glob: GlobalFilterSchedule,
    alpha: np.ndarray,
    t: int,
    phase: str = "updated",
) -> np.ndarray:
    """Joint covariance of all n per-agent estimation errors at stage t.

    Block (i, j) combines the deviation-error covariance, which carries the
    index-invariant factor (delta_ij - alpha_i alpha_j / n), with the shared
    aggregate error weighted by alpha_i alpha_j.
    """
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    sig = local.Sigma_post[t] if phase == "updated" else local.Sigma_pred[t]
    sig_agg = glob.Sigma_post[t] if phase == "updated" else glob.Sigma_pred[t]
    weights = np.eye(n) - np.outer(alpha, alpha) / n
    return np.kron(weights, sig) + np.kron(np.outer(alpha, alpha), sig_agg)


# ---------------------------------------------------------------------------
# JSON forms for precomputed schedules (stage keys are 1-based strings)


def schedule_to_json_dict(schedule) -> dict:
    T = schedule.Sigma_pred.shape[0]
    def keyed(stack):
        return {str(t + 1): stack[t].tolist() for t in range(stack.shape[0])}
    return {
        "Sigma_pred": keyed(schedule.Sigma_pred),
        "Sigma_post": keyed(schedule.Sigma_post),
        "gain": keyed(schedule.gain),
        "T": T,
    }


def _stack_from_keyed(doc: dict, T: int) -> np.ndarray:
    entries = [np.asarray(doc[str(t + 1)], dtype=float) for t in range(T)]
    return np.stack(entries)


def local_schedule_from_json_dict(doc: dict) -> LocalFilterSchedule:
    T = int(doc["T"])
    return LocalFilterSchedule(
        Sigma_pred=_stack_from_keyed(doc["Sigma_pred"], T),
        Sigma_post=_stack_from_keyed(doc["Sigma_post"], T),
        gain=_stack_from_keyed(doc["gain"], T),
    )


def global_schedule_from_json_dict(doc: dict) -> GlobalFilterSchedule:
    T = int(doc["T"])
    return GlobalFilterSchedule(
        Sigma_pred=_stack_from_keyed(doc["Sigma_pred"], T),
        Sigma_post=_stack_from_keyed(doc["Sigma_post"], T),
        gain=_stack_from_keyed(doc["gain"], T),
    )
