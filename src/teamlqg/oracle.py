"""Centralized oracle: textbook filter, exact costs, brute force.

Everything here deliberately ignores the decentralized structure.  Every
team matrix has the form I (x) X + (terms in 1 and alpha) (x) Y and every
noise covariance is I (x) Sigma, so an orthogonal change of agent
coordinates splits the team into span{1, alpha} and n - r identical,
decoupled agents on its complement: at most three virtual agents, whatever
n is.  On their flattened linear-Gaussian system a standard Kalman filter
conditions on all observations at once.  ``_closed_loop`` composes, in one
place, the rule that a strategy's ``prepare`` returns (solved afresh) with
that system, over the agents' states and the rule's estimator internals;
``exact_cost`` is the forward pass of the loop's mean and covariance.
These routines are the independent ground truth the decentralized modules
are checked against, so none of them may reuse the decentralized stepping
code; ``centralized_filter`` shares only the gain check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import _checked_gain
from .model import TeamModel, _alpha_spread
from .strategy import (CustomLinear, Prepared, StrategyKind, ZeroAction,
                       _coefficient_shapes)


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
        gain = _checked_gain(sig_pred[t][None], joint.C[t][None], noise[None],
                             t, ("joint",))[0]
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


@dataclass(frozen=True)
class _ClosedLoop:
    """A rule's closed loop on ``system``, stacked over the action stages.

    The augmented state is zeta = [the agents' states; the rule's internal
    state], starting at mean ``m0`` with covariance ``P0``.  At stage t the
    rule acts as u = K zeta + K_v v + k, and zeta moves on as
    zeta' = F zeta + G_w w + G_v v + f, where ``G_w`` (the system's E) feeds
    only the states' block.
    """

    system: JointModel
    m0: np.ndarray
    P0: np.ndarray
    K: np.ndarray
    K_v: np.ndarray
    k: np.ndarray
    F: np.ndarray
    G_w: np.ndarray
    G_v: np.ndarray
    f: np.ndarray


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M[t] @ v[t]`` for every stage t."""
    return np.einsum("tij,tj->ti", M, v)


def _spread(alpha: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.kron(alpha, v[t])`` for every stage t."""
    return (alpha[None, :, None] * v[:, None, :]).reshape(
        v.shape[0], alpha.shape[0] * v.shape[1])


def _mean_maps(team: _Team, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(proj, G): remove the weighted mean of k-vectors, and take it."""
    W = np.outer(team.alpha, team.alpha) / team.n
    proj = np.eye(team.size * k) - np.kron(W, np.eye(k))
    return proj, np.kron(team.alpha[None, :] / team.n, np.eye(k))


def _closed_loop(model: TeamModel, prep: Prepared, team: _Team) -> _ClosedLoop:
    """The closed loop of what a strategy acts with on ``team``'s agents.

    It branches as ``sim._run_batch`` does: no estimator, or a rule linear in
    (estimates, observations) on a planned or a filtered aggregate.  The
    rule's internal state s holds the predicted deviations and, when it
    filters the aggregate, the predicted aggregate.  It updates to
    U_s s + U_y y + c, the rule acts as W s + D_y y + a on the updated state,
    and s moves on as T_s s + T_u u + e.  A planned aggregate is a known
    path: it enters c, e and a, and the whole innovation drives the private
    deviation filters.  A filtered aggregate's row subtracts the weighted
    mean of the deviation block from its innovation, as the stepping code
    does.  The stepping code then projects the deviation rows back onto the
    constraint ``alpha @ delta / n == 0`` and these maps do not, so the two
    agree on the constraint manifold, which every reachable state lies on.
    A rule with no estimator has no internal state and acts as zero.
    """
    system = _assemble(model, team)
    d = model.dims
    S = d.T - 1
    eye = np.eye(team.size)
    nd, nu, ny = (team.size * k for k in (d.d_x, d.d_u, d.d_y))
    if prep.coeffs is None:
        s0 = np.zeros(0)
        W, D_y, a = np.zeros((S, nu, 0)), np.zeros((S, nu, ny)), np.zeros((S, nu))
        U_s, U_y, T_s, T_u = (np.zeros((S, 0, cols)) for cols in (0, ny, 0, nu))
        c = e = np.zeros((S, 0))
    else:
        coeffs = prep.coeffs
        alpha = team.alpha[:, None]
        proj_y, G_y = _mean_maps(team, d.d_y)
        L, C, A, B = prep.local.gain[:S], model.C[:S], model.A[:S], model.B[:S]
        # action from the updated state: deviation block and aggregate block
        W = np.block([
            _kron_stack(eye, coeffs.theta),
            _kron_stack(alpha, coeffs.theta + coeffs.phi),
        ])
        # direct observation terms: own observation plus the weighted average
        D_y = _kron_stack(eye, coeffs.psi) + _kron_stack(alpha, coeffs.omega) @ G_y
        s0 = np.outer(team.ones - team.alpha * model.alpha_mean,
                      model.mu_x).reshape(-1)
        U_s = np.eye(nd) - _kron_stack(eye, L @ C)
        U_y = _kron_stack(eye, L)
        T_s = _kron_stack(eye, A)
        T_u = _kron_stack(eye, B)
        if prep.glob is None:
            mean = prep.plan.mean[:S]
            c = -_spread(team.alpha, _matvec(L @ (C + model.C_bar[:S]), mean))
            e = -_spread(team.alpha, _matvec(B, prep.plan.u_bar))
            W, a = W[:, :, :nd], _matvec(W[:, :, nd:], mean)
        else:
            # aggregate update: innovation = y_bar - C_all z - C (weighted
            # mean of deviations)
            Lg = prep.glob.gain[:S]
            proj_u, G_u = _mean_maps(team, d.d_u)
            s0 = np.concatenate([s0, model.alpha_mean * model.mu_x])
            U_s = np.block([
                [U_s, np.zeros((S, nd, d.d_x))],
                [-Lg @ _kron_stack(team.alpha[None, :] / team.n, C),
                 np.eye(d.d_x) - Lg @ (C + model.C_bar[:S])],
            ])
            U_y = np.block([[U_y @ proj_y], [Lg @ G_y]])
            T_s = np.block([
                [T_s, np.zeros((S, nd, d.d_x))],
                [np.zeros((S, d.d_x, nd)), A + model.A_bar[:S]],
            ])
            T_u = np.block([[T_u @ proj_u], [(B + model.B_bar[:S]) @ G_u]])
            c = e = np.zeros((S, s0.shape[0]))
            a = np.zeros((S, nu))

    A, B, C, S_obs = system.A[:S], system.B[:S], system.C[:S], system.S[:S]
    K_s = W @ U_s
    K_y = W @ U_y + D_y
    k = _matvec(W, c) + a
    K_v = K_y @ S_obs
    sig_y = T_s @ U_y + T_u @ K_y
    N = system.mu.shape[0]
    P0 = np.zeros((N + s0.shape[0],) * 2)
    P0[:N, :N] = system.Sigma_x
    return _ClosedLoop(
        system=system,
        m0=np.concatenate([system.mu, s0]),
        P0=P0,
        K=np.block([K_y @ C, K_s]),
        K_v=K_v,
        k=k,
        F=np.block([
            [A + B @ K_y @ C, B @ K_s],
            [sig_y @ C, T_s @ U_s + T_u @ K_s],
        ]),
        G_w=system.E[:S],
        G_v=np.block([[B @ K_v], [sig_y @ S_obs]]),
        f=np.block([_matvec(B, k), _matvec(T_s, c) + e + _matvec(T_u, k)]),
    )


def exact_cost(model: TeamModel, kind: StrategyKind) -> float | complex:
    """Exact expected team cost of a strategy, by closed-loop moment propagation.

    The strategy is costed as ``kind.prepare(model)`` defines it.  The team
    is split into an orthonormal basis of span{1, alpha} and its orthogonal
    complement (see ``_Team.reduced``), so the closed loop runs on at most
    three virtual agents whatever n is.  ``_closed_loop`` builds it for
    every stage at once; then the mean and covariance of zeta are pushed
    through it stage by stage.  Quadratic costs are traces against those
    moments, with the complement agent's blocks weighted by the number of
    real agents it stands for, so no sampling is involved anywhere.

    Complex coefficients (see ``cost_gradient``) give a complex cost: every
    transpose is a plain one.
    """
    loop = _closed_loop(model, kind.prepare(model), _Team.reduced(model))
    system = loop.system
    S = model.T - 1
    N = system.mu.shape[0]
    Sigma_v = system.Sigma_v[:S]
    noise_u = loop.K_v @ Sigma_v @ loop.K_v.transpose(0, 2, 1)
    noise = loop.G_v @ Sigma_v @ loop.G_v.transpose(0, 2, 1)
    noise[:, :N, :N] += loop.G_w @ system.Sigma_w[:S] @ loop.G_w.transpose(0, 2, 1)

    m, P = loop.m0, loop.P0
    total = 0.0
    for t in range(model.T):
        x = m[:N]
        total += np.sum(system.Qx[t] * P[:N, :N]) + x @ system.Qx[t] @ x
        if t == S:
            break
        u = loop.K[t] @ m + loop.k[t]
        Puu = loop.K[t] @ P @ loop.K[t].T + noise_u[t]
        total += np.sum(system.Ru[t] * Puu) + u @ system.Ru[t] @ u
        P = loop.F[t] @ P @ loop.F[t].T + noise[t]
        P = 0.5 * (P + P.T)
        m = loop.F[t] @ m + loop.f[t]
    return total if np.iscomplexobj(total) else float(total)


# ---------------------------------------------------------------------------
# Brute-force search over the CustomLinear class


def pack_coefficients(kind: CustomLinear) -> np.ndarray:
    return np.concatenate([
        kind.theta.reshape(-1), kind.phi.reshape(-1),
        kind.psi.reshape(-1), kind.omega.reshape(-1),
    ])


def unpack_coefficients(vec: np.ndarray, model: TeamModel) -> CustomLinear:
    """The CustomLinear rule of a packed vector; a complex vector stays complex."""
    shapes = _coefficient_shapes(model.dims)
    vec = np.asarray(vec, dtype=complex if np.iscomplexobj(vec) else float)
    parts = np.split(vec, np.cumsum(list(map(math.prod, shapes.values())))[:-1])
    return CustomLinear(**{key: part.reshape(shape) for (key, shape), part
                           in zip(shapes.items(), parts)})


_COMPLEX_STEP = 1e-30


def cost_gradient(model: TeamModel, vec: np.ndarray) -> np.ndarray:
    """Gradient of ``exact_cost(model, unpack_coefficients(vec, model))``.

    Complex step, one coordinate at a time: dJ/dv_i = Im J(v + i h e_i) / h
    with h = ``_COMPLEX_STEP``.  No difference of two costs is taken, so the
    result is exact up to rounding, at one ``exact_cost`` call per coordinate.
    """
    probes = vec + 1j * _COMPLEX_STEP * np.eye(len(vec))
    return np.array([exact_cost(model, unpack_coefficients(probe, model)).imag
                     for probe in probes]) / _COMPLEX_STEP


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
    deterministic.  Gradients for the quasi-Newton steps are the exact cost's
    own, by complex step (``cost_gradient``), independent of any optimality
    theory being tested.
    """
    # scipy.optimize is slow to import and only this search uses it
    from scipy.optimize import minimize

    dim = sum(map(math.prod, _coefficient_shapes(model.dims).values()))
    if dim == 0:
        cost = exact_cost(model, ZeroAction())
        return BruteForceResult(cost, unpack_coefficients(np.zeros(0), model), (cost,))

    rng = np.random.default_rng(seed)
    points = [np.zeros(dim)] + [0.5 * rng.normal(size=dim) for _ in range(starts - 1)]
    runs = [minimize(lambda v: exact_cost(model, unpack_coefficients(v, model)), p0,
                     method="BFGS", jac=lambda v: cost_gradient(model, v),
                     options={"gtol": 1e-9, "maxiter": 300})
            for p0 in points]
    best = min(runs, key=lambda res: res.fun)
    return BruteForceResult(float(best.fun), unpack_coefficients(best.x, model),
                            tuple(float(res.fun) for res in runs))
