"""Centralized oracle: joint model, textbook filter, exact costs, brute force.

Everything here deliberately ignores the decentralized structure.  The team
is flattened into one big linear-Gaussian system (agent-major stacking), a
standard Kalman filter conditions on all observations at once, and expected
costs are computed by propagating first and second moments of the closed
loop formed by a strategy together with its estimator internals.  These
routines are the independent ground truth the decentralized modules are
checked against, so none of them may reuse the decentralized recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import JointSizeError
from .filters import _checked_gain, precompute_global, precompute_local
from .model import Dimensions, TeamModel
from .riccati import solve_riccati
from .strategy import (
    CustomLinear,
    MeanField,
    Optimal,
    StrategyKind,
    ZeroAction,
    meanfield_trajectory,
    optimal_coefficients,
)

DEFAULT_JOINT_CAP = 64


@dataclass(frozen=True)
class JointModel:
    """The team flattened to one linear-Gaussian system of n * d_x states."""

    dims: Dimensions
    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    C: np.ndarray
    S: np.ndarray
    Qx: np.ndarray
    Ru: np.ndarray
    mu: np.ndarray
    Sigma_x: np.ndarray
    Sigma_w: np.ndarray
    Sigma_v: np.ndarray


@dataclass(frozen=True)
class JointFilterRun:
    """Centralized filter output: moments before and after each update."""

    mean_pred: np.ndarray
    mean_post: np.ndarray
    Sigma_pred: np.ndarray
    Sigma_post: np.ndarray
    gain: np.ndarray


def build_joint_model(model: TeamModel, cap: int = DEFAULT_JOINT_CAP) -> JointModel:
    """Assemble the joint system, refusing team sizes beyond ``cap`` states."""
    d = model.dims
    n = d.n
    if n * d.d_x > cap:
        raise JointSizeError(
            f"joint model needs {n * d.d_x} states, above the cap of {cap}"
        )
    eye = np.eye(n)
    W = np.outer(model.alpha, model.alpha) / n

    def couple(local: np.ndarray, shared: np.ndarray) -> np.ndarray:
        return np.kron(eye, local) + np.kron(W, shared)

    T = d.T
    A = np.stack([couple(model.A[t], model.A_bar[t]) for t in range(T)])
    B = np.stack([couple(model.B[t], model.B_bar[t]) for t in range(T)])
    E = np.stack([couple(model.E[t], model.E_bar[t]) for t in range(T)])
    C = np.stack([couple(model.C[t], model.C_bar[t]) for t in range(T)])
    S = np.stack([couple(model.S[t], model.S_bar[t]) for t in range(T)])
    Qx = np.stack([(np.kron(eye, model.Q[t]) + np.kron(W, model.Q_bar[t])) / n
                   for t in range(T)])
    Ru = np.stack([(np.kron(eye, model.R[t]) + np.kron(W, model.R_bar[t])) / n
                   for t in range(T)])
    return JointModel(
        dims=d,
        A=A, B=B, E=E, C=C, S=S, Qx=Qx, Ru=Ru,
        mu=np.tile(model.mu_x, n),
        Sigma_x=np.kron(eye, model.Sigma_x),
        Sigma_w=np.stack([np.kron(eye, model.Sigma_w[t]) for t in range(T)]),
        Sigma_v=np.stack([np.kron(eye, model.Sigma_v[t]) for t in range(T)]),
    )


def centralized_filter(joint: JointModel, y: np.ndarray, u: np.ndarray) -> JointFilterRun:
    """Textbook Kalman filter on the joint system.

    ``y`` has shape (T, n, d_y) and ``u`` shape (T - 1, n, d_u); both are
    flattened agent-major to match the joint stacking.
    """
    d = joint.dims
    T, N = d.T, d.n * d.d_x
    ny = d.n * d.d_y
    mean_pred = np.zeros((T, N))
    mean_post = np.zeros((T, N))
    sig_pred = np.zeros((T, N, N))
    sig_post = np.zeros((T, N, N))
    gain = np.zeros((T, N, ny))
    mean_pred[0] = joint.mu
    sig_pred[0] = joint.Sigma_x
    for t in range(T):
        noise = joint.S[t] @ joint.Sigma_v[t] @ joint.S[t].T
        gain[t] = _checked_gain(sig_pred[t], joint.C[t], noise, t, "joint")
        innov = np.asarray(y[t], dtype=float).reshape(-1) - joint.C[t] @ mean_pred[t]
        mean_post[t] = mean_pred[t] + gain[t] @ innov
        post = (np.eye(N) - gain[t] @ joint.C[t]) @ sig_pred[t]
        sig_post[t] = 0.5 * (post + post.T)
        if t + 1 < T:
            u_vec = np.asarray(u[t], dtype=float).reshape(-1)
            mean_pred[t + 1] = joint.A[t] @ mean_post[t] + joint.B[t] @ u_vec
            nxt = (joint.A[t] @ sig_post[t] @ joint.A[t].T
                   + joint.E[t] @ joint.Sigma_w[t] @ joint.E[t].T)
            sig_pred[t + 1] = 0.5 * (nxt + nxt.T)
    return JointFilterRun(
        mean_pred=mean_pred, mean_post=mean_post,
        Sigma_pred=sig_pred, Sigma_post=sig_post, gain=gain,
    )


# ---------------------------------------------------------------------------
# Exact expected cost of a closed loop


@dataclass
class _StageMaps:
    """Affine maps of one stage: action from (s, y), internal transition."""

    K_s: np.ndarray
    K_y: np.ndarray
    k: np.ndarray
    F_s: np.ndarray
    F_y: np.ndarray
    F_u: np.ndarray
    f: np.ndarray


def _estimator_update_maps(model: TeamModel, local, glob, t: int):
    """Affine update of the internal state sigma = [deviations; aggregate].

    Returns (U_s, U_y) with sigma_post = U_s s_pred + U_y y.  The aggregate
    row subtracts the weighted mean of the deviation block, as the stepping
    code does.  The stepping code then projects the deviation rows back onto
    the constraint ``alpha @ delta / n == 0`` and this map does not, so the
    two agree on the constraint manifold, which every reachable state lies
    on, and differ off it.
    """
    d = model.dims
    n = d.n
    eye = np.eye(n)
    alpha = model.alpha
    L = local.gain[t]
    Lg = glob.gain[t]
    C = model.C[t]
    C_all = C + model.C_bar[t]
    proj_y = np.eye(n * d.d_y) - np.kron(np.outer(alpha, alpha) / n, np.eye(d.d_y))
    G_y = np.kron(alpha[None, :] / n, np.eye(d.d_y))

    ds = n * d.d_x + d.d_x
    U_s = np.zeros((ds, ds))
    U_y = np.zeros((ds, n * d.d_y))
    nd = n * d.d_x
    U_s[:nd, :nd] = np.eye(nd) - np.kron(eye, L @ C)
    U_y[:nd, :] = np.kron(eye, L) @ proj_y
    # aggregate update: innovation = y_bar - C_all z - C (weighted mean of deviations)
    U_s[nd:, :nd] = -Lg @ np.kron(alpha[None, :] / n, C)
    U_s[nd:, nd:] = np.eye(d.d_x) - Lg @ C_all
    U_y[nd:, :] = Lg @ G_y
    return U_s, U_y


def _estimator_transition_maps(model: TeamModel, t: int):
    """Affine transition (T_s, T_u): next predicted sigma from (sigma_post, u)."""
    d = model.dims
    n = d.n
    eye = np.eye(n)
    alpha = model.alpha
    nd = n * d.d_x
    ds = nd + d.d_x
    T_s = np.zeros((ds, ds))
    T_u = np.zeros((ds, n * d.d_u))
    proj_u = np.eye(n * d.d_u) - np.kron(np.outer(alpha, alpha) / n, np.eye(d.d_u))
    G_u = np.kron(alpha[None, :] / n, np.eye(d.d_u))
    T_s[:nd, :nd] = np.kron(eye, model.A[t])
    T_s[nd:, nd:] = model.A[t] + model.A_bar[t]
    T_u[:nd, :] = np.kron(eye, model.B[t]) @ proj_u
    T_u[nd:, :] = (model.B[t] + model.B_bar[t]) @ G_u
    return T_s, T_u


def _filtering_policy(model: TeamModel, coeffs: CustomLinear) -> tuple[np.ndarray, list[_StageMaps]]:
    """Closed-loop maps for any rule linear in (estimates, observations)."""
    d = model.dims
    n = d.n
    alpha = model.alpha
    local = precompute_local(model)
    glob = precompute_global(model)
    a_mean = model.alpha_mean
    s0 = np.concatenate([
        np.outer(1.0 - alpha * a_mean, model.mu_x).reshape(-1),
        a_mean * model.mu_x,
    ])
    G_y = np.kron(alpha[None, :] / n, np.eye(d.d_y))
    stages = []
    for t in range(d.T - 1):
        U_s, U_y = _estimator_update_maps(model, local, glob, t)
        T_s, T_u = _estimator_transition_maps(model, t)
        # action from sigma_post: deviation block and aggregate block
        W_sigma = np.hstack([
            np.kron(np.eye(n), coeffs.theta[t]),
            np.kron(alpha[:, None], coeffs.theta[t] + coeffs.phi[t]),
        ])
        # direct observation terms: own observation plus the weighted average
        D_y = np.kron(np.eye(n), coeffs.psi[t]) + np.kron(alpha[:, None], coeffs.omega[t]) @ G_y
        stages.append(_StageMaps(
            K_s=W_sigma @ U_s,
            K_y=W_sigma @ U_y + D_y,
            k=np.zeros(n * d.d_u),
            F_s=T_s @ U_s,
            F_y=T_s @ U_y,
            F_u=T_u,
            f=np.zeros(s0.shape[0]),
        ))
    return s0, stages


def _meanfield_policy(model: TeamModel) -> tuple[np.ndarray, list[_StageMaps]]:
    """Closed-loop maps of the mean-field rule with its private filters."""
    d = model.dims
    n = d.n
    alpha = model.alpha
    gains = solve_riccati(model)
    local = precompute_local(model)
    plan = meanfield_trajectory(model, gains)
    a_mean = model.alpha_mean
    s0 = np.outer(1.0 - alpha * a_mean, model.mu_x).reshape(-1)
    eye = np.eye(n)
    stages = []
    for t in range(d.T - 1):
        L = local.gain[t]
        C = model.C[t]
        C_all = C + model.C_bar[t]
        nd = n * d.d_x
        U_s = np.eye(nd) - np.kron(eye, L @ C)
        U_y = np.kron(eye, L)
        c_upd = -np.kron(alpha, L @ C_all @ plan.mean[t])
        gain_block = np.kron(eye, gains.gain[t])
        K_s = gain_block @ U_s
        K_y = gain_block @ U_y
        k = gain_block @ c_upd + np.kron(alpha, gains.gain_agg[t] @ plan.mean[t])
        A_block = np.kron(eye, model.A[t])
        F_s = A_block @ U_s
        F_y = A_block @ U_y
        F_u = np.kron(eye, model.B[t])
        f = A_block @ c_upd - np.kron(alpha, model.B[t] @ plan.u_bar[t])
        stages.append(_StageMaps(K_s=K_s, K_y=K_y, k=k, F_s=F_s, F_y=F_y, F_u=F_u, f=f))
    return s0, stages


def _zero_policy(model: TeamModel) -> tuple[np.ndarray, list[_StageMaps]]:
    d = model.dims
    n = d.n
    s0 = np.zeros(0)
    stages = [
        _StageMaps(
            K_s=np.zeros((n * d.d_u, 0)),
            K_y=np.zeros((n * d.d_u, n * d.d_y)),
            k=np.zeros(n * d.d_u),
            F_s=np.zeros((0, 0)),
            F_y=np.zeros((0, n * d.d_y)),
            F_u=np.zeros((0, n * d.d_u)),
            f=np.zeros(0),
        )
        for _ in range(d.T - 1)
    ]
    return s0, stages


def _policy_maps(model: TeamModel, kind: StrategyKind) -> tuple[np.ndarray, list[_StageMaps]]:
    if isinstance(kind, ZeroAction):
        return _zero_policy(model)
    if isinstance(kind, Optimal):
        return _filtering_policy(model, optimal_coefficients(solve_riccati(model), model))
    if isinstance(kind, MeanField):
        return _meanfield_policy(model)
    if isinstance(kind, CustomLinear):
        return _filtering_policy(model, kind)
    raise TypeError(f"unsupported strategy kind {kind!r}")


def exact_cost(model: TeamModel, kind: StrategyKind, cap: int = DEFAULT_JOINT_CAP) -> float:
    """Exact expected team cost of a strategy, by closed-loop moment propagation.

    The augmented state is [joint states; estimator internals].  Means and
    second moments are pushed through the affine closed loop stage by stage;
    quadratic costs are traces against those moments, so no sampling is
    involved anywhere.
    """
    joint = build_joint_model(model, cap=cap)
    s0, stages = _policy_maps(model, kind)
    d = model.dims
    N = d.n * d.d_x
    ds = s0.shape[0]
    nz = N + ds

    m = np.concatenate([joint.mu, s0])
    M = np.zeros((nz, nz))
    M[:N, :N] = joint.Sigma_x
    M += np.outer(m, m)

    total = 0.0
    for t in range(d.T):
        total += float(np.sum(joint.Qx[t] * M[:N, :N]))
        if t >= d.T - 1:
            break
        st = stages[t]
        # u = K_zeta zeta + K_v v + k
        K_zeta = np.hstack([st.K_y @ joint.C[t], st.K_s])
        K_v = st.K_y @ joint.S[t]
        Euu = (K_zeta @ M @ K_zeta.T
               + K_v @ joint.Sigma_v[t] @ K_v.T
               + K_zeta @ np.outer(m, st.k)
               + np.outer(st.k, m) @ K_zeta.T
               + np.outer(st.k, st.k))
        total += float(np.sum(joint.Ru[t] * Euu))

        # closed-loop transition of zeta = [x; s]
        F = np.zeros((nz, nz))
        F[:N, :N] = joint.A[t] + joint.B[t] @ st.K_y @ joint.C[t]
        F[:N, N:] = joint.B[t] @ st.K_s
        F[N:, :N] = (st.F_y + st.F_u @ st.K_y) @ joint.C[t]
        F[N:, N:] = st.F_s + st.F_u @ st.K_s
        G_w = np.zeros((nz, joint.Sigma_w[t].shape[0]))
        G_w[:N, :] = joint.E[t]
        G_v = np.zeros((nz, joint.Sigma_v[t].shape[0]))
        G_v[:N, :] = joint.B[t] @ K_v
        G_v[N:, :] = (st.F_y + st.F_u @ st.K_y) @ joint.S[t]
        f = np.zeros(nz)
        f[:N] = joint.B[t] @ st.k
        f[N:] = st.f + st.F_u @ st.k

        m_next = F @ m + f
        M = (F @ M @ F.T
             + G_w @ joint.Sigma_w[t] @ G_w.T
             + G_v @ joint.Sigma_v[t] @ G_v.T
             + F @ np.outer(m, f) + np.outer(f, m) @ F.T + np.outer(f, f))
        M = 0.5 * (M + M.T)
        m = m_next
    return total


# ---------------------------------------------------------------------------
# Brute-force search over the CustomLinear class


def pack_coefficients(kind: CustomLinear) -> np.ndarray:
    return np.concatenate([
        kind.theta.reshape(-1), kind.phi.reshape(-1),
        kind.psi.reshape(-1), kind.omega.reshape(-1),
    ])


def unpack_coefficients(vec: np.ndarray, model: TeamModel) -> CustomLinear:
    d = model.dims
    stages = max(d.T - 1, 0)
    sizes = [stages * d.d_u * d.d_x, stages * d.d_u * d.d_x,
             stages * d.d_u * d.d_y, stages * d.d_u * d.d_y]
    parts = np.split(np.asarray(vec, dtype=float), np.cumsum(sizes)[:-1])
    return CustomLinear(
        theta=parts[0].reshape(stages, d.d_u, d.d_x),
        phi=parts[1].reshape(stages, d.d_u, d.d_x),
        psi=parts[2].reshape(stages, d.d_u, d.d_y),
        omega=parts[3].reshape(stages, d.d_u, d.d_y),
    )


def fd_gradient(fun, p: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient, one coordinate at a time."""
    g = np.zeros_like(p)
    for idx in range(p.shape[0]):
        e = np.zeros_like(p)
        e[idx] = step
        g[idx] = (fun(p + e) - fun(p - e)) / (2.0 * step)
    return g


@dataclass(frozen=True)
class BruteForceResult:
    best_cost: float
    best_rule: CustomLinear
    start_costs: tuple[float, ...]


def brute_force_optimize(
    model: TeamModel,
    starts: int = 16,
    seed: int = 0,
    cap: int = DEFAULT_JOINT_CAP,
) -> BruteForceResult:
    """Minimize the exact cost over the CustomLinear class by multi-start descent.

    Start points are drawn from a fixed seed, so the search result is
    deterministic.  Gradients for the quasi-Newton steps come from central
    finite differences of the exact cost, independent of any optimality
    theory being tested.
    """
    d = model.dims
    stages = max(d.T - 1, 0)
    dim = 2 * stages * d.d_u * (d.d_x + d.d_y)
    fun = lambda v: exact_cost(model, unpack_coefficients(v, model), cap=cap)
    if dim == 0:
        cost = exact_cost(model, ZeroAction(), cap=cap)
        return BruteForceResult(cost, unpack_coefficients(np.zeros(0), model), (cost,))

    rng = np.random.default_rng(seed)
    points = [np.zeros(dim)]
    points += [0.5 * rng.normal(size=dim) for _ in range(max(starts - 1, 0))]
    best_cost = np.inf
    best_vec = points[0]
    achieved = []
    for p0 in points:
        res = minimize(
            fun, p0, method="BFGS",
            jac=lambda v: fd_gradient(fun, v),
            options={"gtol": 1e-9, "maxiter": 300},
        )
        achieved.append(float(res.fun))
        if res.fun < best_cost:
            best_cost = float(res.fun)
            best_vec = res.x
    return BruteForceResult(best_cost, unpack_coefficients(best_vec, model), tuple(achieved))
