"""Centralized oracle: textbook filter, exact costs, brute force.

Everything here deliberately ignores the decentralized structure.  Every
team matrix has the form I (x) X + (terms in 1 and alpha) (x) Y and every
noise covariance is I (x) Sigma, so an orthogonal change of agent
coordinates splits the team into span{1, alpha} and n - r identical,
decoupled agents on its complement: at most three virtual agents, whatever
n is.  On their flattened linear-Gaussian system a standard Kalman filter
conditions on all observations at once, and expected costs propagate the
moments of the closed loop of a strategy and its estimator internals.
These routines are the independent ground truth the decentralized modules
are checked against, so none of them may reuse the decentralized
recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import _checked_gain, precompute_global, precompute_local
from .model import TeamModel
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


@dataclass(frozen=True)
class JointModel:
    """A team's agents flattened to one linear-Gaussian system, agent-major.

    The oracle builds it over the virtual agents of ``_Team.reduced``.
    """

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
    """Centralized filter output: updated means, and covariances before and
    after each update."""

    mean_post: np.ndarray
    Sigma_pred: np.ndarray
    Sigma_post: np.ndarray


@dataclass(frozen=True)
class _Team:
    """The agents a system is assembled over.

    ``alpha`` and ``ones`` are the influence vector and the all-ones vector
    in these agents' coordinates, ``weight`` counts how many real agents
    each one stands for in the cost, and ``n`` is the real team size, which
    every 1/n average keeps.
    """

    n: int
    alpha: np.ndarray
    ones: np.ndarray
    weight: np.ndarray

    @property
    def size(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def reduced(cls, model: TeamModel) -> "_Team":
        """The basis u1, u2 of span{1, alpha} (``_span_basis``) plus one
        complement agent.

        1 has coordinates (sqrt(n), 0) and alpha (mean * sqrt(n),
        |alpha - mean|); u2 is dropped when alpha is uniform.  Team matrices
        act on the complement as I (x) X and no mean reaches it, so its
        n - r agents are copies of one zero-mean agent with no influence,
        counted n - r times in the cost.
        """
        n = model.n
        root = np.sqrt(n)
        spread = _alpha_spread(model)
        alpha, ones = [model.alpha_mean * root], [root]
        if spread > 0.0:
            alpha.append(spread)
            ones.append(0.0)
        weight = [1.0] * len(ones)
        if n > len(ones):
            weight.append(float(n - len(ones)))
            alpha.append(0.0)
            ones.append(0.0)
        return cls(n, np.array(alpha), np.array(ones), np.array(weight))


def _alpha_spread(model: TeamModel) -> float:
    """|alpha - mean|, or 0 below 1e-13 |alpha|, the rounding of a uniform alpha."""
    spread = float(np.linalg.norm(model.alpha - model.alpha_mean))
    return spread if spread > 1e-13 * np.linalg.norm(model.alpha) else 0.0


def _span_basis(model: TeamModel) -> np.ndarray:
    """The orthonormal basis (n, r) of span{1, alpha} behind ``_Team.reduced``."""
    n = model.n
    columns = [np.full(n, 1.0 / np.sqrt(n))]
    if _alpha_spread(model) > 0.0:
        offset = model.alpha - model.alpha_mean
        offset -= offset.mean()     # orthogonal to 1 even for a small spread
        columns.append(offset / np.linalg.norm(offset))
    return np.stack(columns, axis=1)


def _kron_stack(P: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``np.kron(P, X[t])`` for every t of a stack X of shape (T, a, b)."""
    T, a, b = X.shape
    p, q = P.shape
    return np.einsum("ij,tkl->tikjl", P, X).reshape(T, p * a, q * b)


def _assemble(model: TeamModel, team: _Team) -> JointModel:
    """The linear-Gaussian system of ``team``'s agents, stacked agent-major.

    The cost matrices count each agent ``team.weight`` times.
    """
    eye = np.eye(team.size)
    W = np.outer(team.alpha, team.alpha) / team.n
    counts = np.diag(team.weight)

    def couple(local: np.ndarray, shared: np.ndarray, own=eye) -> np.ndarray:
        return _kron_stack(own, local) + _kron_stack(W, shared)

    return JointModel(
        A=couple(model.A, model.A_bar),
        B=couple(model.B, model.B_bar),
        E=couple(model.E, model.E_bar),
        C=couple(model.C, model.C_bar),
        S=couple(model.S, model.S_bar),
        Qx=couple(model.Q, model.Q_bar, counts) / team.n,
        Ru=couple(model.R, model.R_bar, counts) / team.n,
        mu=np.outer(team.ones, model.mu_x).reshape(-1),
        Sigma_x=_kron_stack(eye, model.Sigma_x[None])[0],
        Sigma_w=_kron_stack(eye, model.Sigma_w),
        Sigma_v=_kron_stack(eye, model.Sigma_v),
    )


def centralized_filter(joint: JointModel, y: np.ndarray, u: np.ndarray) -> JointFilterRun:
    """Textbook Kalman filter on the joint system.

    ``y`` has shape (..., T, m * d_y) and ``u`` shape (..., T - 1, m * d_u),
    each stage's values of the system's m agents stacked agent-major like
    the joint states.  Leading axes are a batch of trajectories, which the
    means run over and the covariances share.  Sizes come from the arrays.
    """
    T, N, _ = joint.A.shape
    mean = joint.mu
    mean_post = np.zeros(y.shape[:-2] + (T, N))
    sig_pred = np.zeros((T, N, N))
    sig_post = np.zeros((T, N, N))
    sig_pred[0] = joint.Sigma_x
    for t in range(T):
        noise = joint.S[t] @ joint.Sigma_v[t] @ joint.S[t].T
        gain = _checked_gain(sig_pred[t], joint.C[t], noise, t, "joint")
        innov = y[..., t, :] - mean @ joint.C[t].T
        mean_post[..., t, :] = mean + innov @ gain.T
        post = (np.eye(N) - gain @ joint.C[t]) @ sig_pred[t]
        sig_post[t] = 0.5 * (post + post.T)
        if t + 1 < T:
            mean = mean_post[..., t, :] @ joint.A[t].T + u[..., t, :] @ joint.B[t].T
            nxt = (joint.A[t] @ sig_post[t] @ joint.A[t].T
                   + joint.E[t] @ joint.Sigma_w[t] @ joint.E[t].T)
            sig_pred[t + 1] = 0.5 * (nxt + nxt.T)
    return JointFilterRun(mean_post, sig_pred, sig_post)


def centralized_estimates(model: TeamModel, y: np.ndarray,
                          u: np.ndarray) -> tuple[np.ndarray, JointFilterRun]:
    """Every agent's centralized estimate on one trajectory, via the reduced team.

    ``y`` (T, n, d_y) and ``u`` (T - 1, n, d_u) enter ``centralized_filter``
    on ``_Team.reduced`` as n batch rows: each holds U_r^T y, the span
    coordinates on the basis U_r, and row i's complement slot agent i's
    complement row y_i - (U_r U_r^T y)_i.  The complement filter is linear,
    with zero prior mean, and alike in every complement direction, so it
    needs no basis there.  Returns the estimates U_r (span means) plus the
    complement rows, (T, n, d_x), and the run, whose covariances are in the
    reduced team's coordinates.
    """
    team = _Team.reduced(model)
    basis = _span_basis(model)
    r = basis.shape[1]

    def slots(v: np.ndarray) -> np.ndarray:
        span = basis.T @ v
        T, _, d = v.shape
        rows = np.zeros((model.n, T, team.size, d))
        rows[:, :, :r] = span
        if team.size > r:
            rest = v - basis @ span
            rows[:, :, r] = rest.transpose(1, 0, 2)
        return rows.reshape(model.n, T, team.size * d)

    run = centralized_filter(_assemble(model, team), slots(y), slots(u))
    means = run.mean_post.reshape(model.n, model.T, team.size, -1)
    estimates = basis @ means[0, :, :r]
    if team.size > r:
        estimates += means[:, :, r].transpose(1, 0, 2)
    return estimates, run


# ---------------------------------------------------------------------------
# Exact expected cost of a closed loop


@dataclass
class _StageMaps:
    """Affine maps of every action stage, stacked on a leading stage axis:
    action from (s, y), internal transition."""

    K_s: np.ndarray
    K_y: np.ndarray
    k: np.ndarray
    F_s: np.ndarray
    F_y: np.ndarray
    F_u: np.ndarray
    f: np.ndarray


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M[t] @ v[t]`` for every stage t."""
    return np.einsum("tij,tj->ti", M, v)


def _spread(alpha: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.kron(alpha, v[t])`` for every stage t."""
    return (alpha[None, :, None] * v[:, None, :]).reshape(v.shape[0], -1)


def _mean_maps(team: _Team, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(proj, G): remove the weighted mean of k-vectors, and take it."""
    W = np.outer(team.alpha, team.alpha) / team.n
    proj = np.eye(team.size * k) - np.kron(W, np.eye(k))
    return proj, np.kron(team.alpha[None, :] / team.n, np.eye(k))


def _estimator_update_maps(model: TeamModel, team: _Team, local, glob):
    """Affine update of the internal state sigma = [deviations; aggregate].

    Returns stacks (U_s, U_y) over the action stages, with
    sigma_post = U_s s_pred + U_y y.  The aggregate row subtracts the
    weighted mean of the deviation block, as the stepping code does.  The
    stepping code then projects the deviation rows back onto the constraint
    ``alpha @ delta / n == 0`` and this map does not, so the two agree on
    the constraint manifold, which every reachable state lies on, and
    differ off it.
    """
    d = model.dims
    S = d.T - 1
    eye = np.eye(team.size)
    proj_y, G_y = _mean_maps(team, d.d_y)
    L = local.gain[:S]
    Lg = glob.gain[:S]
    C = model.C[:S]
    C_all = C + model.C_bar[:S]
    nd = team.size * d.d_x
    # aggregate update: innovation = y_bar - C_all z - C (weighted mean of deviations)
    U_s = np.block([
        [np.eye(nd) - _kron_stack(eye, L @ C), np.zeros((S, nd, d.d_x))],
        [-Lg @ _kron_stack(team.alpha[None, :] / team.n, C),
         np.eye(d.d_x) - Lg @ C_all],
    ])
    U_y = np.block([[_kron_stack(eye, L) @ proj_y], [Lg @ G_y]])
    return U_s, U_y


def _estimator_transition_maps(model: TeamModel, team: _Team):
    """Affine transition stacks (T_s, T_u): next predicted sigma from
    (sigma_post, u)."""
    d = model.dims
    S = d.T - 1
    eye = np.eye(team.size)
    proj_u, G_u = _mean_maps(team, d.d_u)
    A, B = model.A[:S], model.B[:S]
    nd = team.size * d.d_x
    T_s = np.block([
        [_kron_stack(eye, A), np.zeros((S, nd, d.d_x))],
        [np.zeros((S, d.d_x, nd)), A + model.A_bar[:S]],
    ])
    T_u = np.block([[_kron_stack(eye, B) @ proj_u], [(B + model.B_bar[:S]) @ G_u]])
    return T_s, T_u


def _filtering_policy(model: TeamModel, team: _Team,
                      coeffs: CustomLinear) -> tuple[np.ndarray, _StageMaps]:
    """Closed-loop maps for any rule linear in (estimates, observations)."""
    d = model.dims
    S = d.T - 1
    alpha = team.alpha[:, None]
    eye = np.eye(team.size)
    a_mean = model.alpha_mean
    s0 = np.concatenate([
        np.outer(team.ones - team.alpha * a_mean, model.mu_x).reshape(-1),
        a_mean * model.mu_x,
    ])
    _, G_y = _mean_maps(team, d.d_y)
    U_s, U_y = _estimator_update_maps(
        model, team, precompute_local(model), precompute_global(model))
    T_s, T_u = _estimator_transition_maps(model, team)
    # action from sigma_post: deviation block and aggregate block
    W_sigma = np.block([
        _kron_stack(eye, coeffs.theta),
        _kron_stack(alpha, coeffs.theta + coeffs.phi),
    ])
    # direct observation terms: own observation plus the weighted average
    D_y = _kron_stack(eye, coeffs.psi) + _kron_stack(alpha, coeffs.omega) @ G_y
    return s0, _StageMaps(
        K_s=W_sigma @ U_s,
        K_y=W_sigma @ U_y + D_y,
        k=np.zeros((S, team.size * d.d_u)),
        F_s=T_s @ U_s,
        F_y=T_s @ U_y,
        F_u=T_u,
        f=np.zeros((S, s0.shape[0])),
    )


def _meanfield_policy(model: TeamModel, team: _Team) -> tuple[np.ndarray, _StageMaps]:
    """Closed-loop maps of the mean-field rule with its private filters."""
    d = model.dims
    S = d.T - 1
    alpha = team.alpha
    gains = solve_riccati(model)
    L = precompute_local(model).gain[:S]
    plan = meanfield_trajectory(model, gains)
    a_mean = model.alpha_mean
    s0 = np.outer(team.ones - alpha * a_mean, model.mu_x).reshape(-1)
    eye = np.eye(team.size)
    C = model.C[:S]
    C_all = C + model.C_bar[:S]
    mean = plan.mean[:S]
    U_s = np.eye(team.size * d.d_x) - _kron_stack(eye, L @ C)
    U_y = _kron_stack(eye, L)
    c_upd = -_spread(alpha, _matvec(L @ C_all, mean))
    gain_block = _kron_stack(eye, gains.gain)
    A_block = _kron_stack(eye, model.A[:S])
    return s0, _StageMaps(
        K_s=gain_block @ U_s,
        K_y=gain_block @ U_y,
        k=_matvec(gain_block, c_upd) + _spread(alpha, _matvec(gains.gain_agg, mean)),
        F_s=A_block @ U_s,
        F_y=A_block @ U_y,
        F_u=_kron_stack(eye, model.B[:S]),
        f=_matvec(A_block, c_upd) - _spread(alpha, _matvec(model.B[:S], plan.u_bar)),
    )


def _zero_policy(model: TeamModel, team: _Team) -> tuple[np.ndarray, _StageMaps]:
    d = model.dims
    S = d.T - 1
    nu, ny = team.size * d.d_u, team.size * d.d_y
    return np.zeros(0), _StageMaps(
        K_s=np.zeros((S, nu, 0)),
        K_y=np.zeros((S, nu, ny)),
        k=np.zeros((S, nu)),
        F_s=np.zeros((S, 0, 0)),
        F_y=np.zeros((S, 0, ny)),
        F_u=np.zeros((S, 0, nu)),
        f=np.zeros((S, 0)),
    )


def _policy_maps(model: TeamModel, kind: StrategyKind,
                 team: _Team) -> tuple[np.ndarray, _StageMaps]:
    if isinstance(kind, ZeroAction):
        return _zero_policy(model, team)
    if isinstance(kind, Optimal):
        return _filtering_policy(
            model, team, optimal_coefficients(solve_riccati(model), model))
    if isinstance(kind, MeanField):
        return _meanfield_policy(model, team)
    if isinstance(kind, CustomLinear):
        return _filtering_policy(model, team, kind)
    raise TypeError(f"unsupported strategy kind {kind!r}")


def exact_cost(model: TeamModel, kind: StrategyKind) -> float:
    """Exact expected team cost of a strategy, by closed-loop moment propagation.

    The team is split into an orthonormal basis of span{1, alpha} and its
    orthogonal complement (see ``_Team.reduced``), so the closed loop runs
    on at most three virtual agents whatever n is.  The augmented state is
    zeta = [their states; estimator internals], and u = K zeta + K_v v + k.
    The closed loop zeta' = F zeta + G_w w + G_v v + f is built for every
    stage at once; then the mean and covariance of zeta are pushed through
    it stage by stage.  Quadratic costs are traces against those moments,
    with the complement agent's blocks weighted by the number of real
    agents it stands for, so no sampling is involved anywhere.
    """
    team = _Team.reduced(model)
    system = _assemble(model, team)
    s0, maps = _policy_maps(model, kind, team)
    T = model.T
    S = T - 1
    N = system.mu.shape[0]
    A, B, C, S_obs = system.A[:S], system.B[:S], system.C[:S], system.S[:S]
    E, Sigma_v = system.E[:S], system.Sigma_v[:S]

    K = np.block([maps.K_y @ C, maps.K_s])
    K_v = maps.K_y @ S_obs
    noise_u = K_v @ Sigma_v @ K_v.transpose(0, 2, 1)
    sig_y = maps.F_y + maps.F_u @ maps.K_y
    F = np.block([
        [A + B @ maps.K_y @ C, B @ maps.K_s],
        [sig_y @ C, maps.F_s + maps.F_u @ maps.K_s],
    ])
    G_v = np.block([[B @ K_v], [sig_y @ S_obs]])
    noise = G_v @ Sigma_v @ G_v.transpose(0, 2, 1)
    noise[:, :N, :N] += E @ system.Sigma_w[:S] @ E.transpose(0, 2, 1)
    f = np.block([_matvec(B, maps.k), maps.f + _matvec(maps.F_u, maps.k)])

    nz = N + s0.shape[0]
    m = np.concatenate([system.mu, s0])
    P = np.zeros((nz, nz))
    P[:N, :N] = system.Sigma_x
    total = 0.0
    for t in range(T):
        x = m[:N]
        total += float(np.sum(system.Qx[t] * P[:N, :N]) + x @ system.Qx[t] @ x)
        if t == S:
            break
        u = K[t] @ m + maps.k[t]
        Puu = K[t] @ P @ K[t].T + noise_u[t]
        total += float(np.sum(system.Ru[t] * Puu) + u @ system.Ru[t] @ u)
        P = F[t] @ P @ F[t].T + noise[t]
        P = 0.5 * (P + P.T)
        m = F[t] @ m + f[t]
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
) -> BruteForceResult:
    """Minimize the exact cost over the CustomLinear class by multi-start descent.

    Start points are drawn from a fixed seed, so the search result is
    deterministic.  Gradients for the quasi-Newton steps come from central
    finite differences of the exact cost, independent of any optimality
    theory being tested.
    """
    # scipy.optimize is slow to import and only this search uses it
    from scipy.optimize import minimize

    d = model.dims
    stages = max(d.T - 1, 0)
    dim = 2 * stages * d.d_u * (d.d_x + d.d_y)
    fun = lambda v: exact_cost(model, unpack_coefficients(v, model))
    if dim == 0:
        cost = exact_cost(model, ZeroAction())
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
