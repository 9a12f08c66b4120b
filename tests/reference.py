"""Plain loop-based reference implementations used to cross-check the package.

Everything here is written as directly as possible from the model equations,
one agent and one step at a time, so the vectorized production code has an
independent implementation to agree with.
"""

from dataclasses import fields

import numpy as np

from teamlqg.model import TeamModel, make_model, normalize_influence


def simulate_truth(model, rng, action_fn=None):
    """Roll the team forward once, returning states, observations, actions.

    ``action_fn(t, y_so_far, u_so_far) -> (n, d_u)`` supplies actions; the
    default draws exogenous Gaussian actions, which the estimators must
    handle like any other known input.
    """
    d = model.dims
    n, T = d.n, d.T
    alpha = model.alpha
    chol_x = np.linalg.cholesky(model.Sigma_x)
    x = np.zeros((T, n, d.d_x))
    y = np.zeros((T, n, d.d_y))
    u = np.zeros((max(T - 1, 0), n, d.d_u))
    w = np.zeros((max(T - 1, 0), n, d.d_w))
    v = np.zeros((T, n, d.d_v))

    x[0] = model.mu_x + rng.normal(size=(n, d.d_x)) @ chol_x.T
    for t in range(T):
        v[t] = rng.normal(size=(n, d.d_v)) @ np.linalg.cholesky(model.Sigma_v[t]).T
        x_bar = alpha @ x[t] / n
        v_bar = alpha @ v[t] / n
        for i in range(n):
            y[t, i] = (model.C[t] @ x[t, i] + model.S[t] @ v[t, i]
                       + alpha[i] * (model.C_bar[t] @ x_bar + model.S_bar[t] @ v_bar))
        if t + 1 >= T:
            break
        if action_fn is None:
            u[t] = 0.5 * rng.normal(size=(n, d.d_u))
        else:
            u[t] = action_fn(t, y[: t + 1], u[:t])
        w[t] = rng.normal(size=(n, d.d_w)) @ np.linalg.cholesky(model.Sigma_w[t]).T
        u_bar = alpha @ u[t] / n
        w_bar = alpha @ w[t] / n
        for i in range(n):
            x[t + 1, i] = (model.A[t] @ x[t, i] + model.B[t] @ u[t, i]
                           + model.E[t] @ w[t, i]
                           + alpha[i] * (model.A_bar[t] @ x_bar
                                         + model.B_bar[t] @ u_bar
                                         + model.E_bar[t] @ w_bar))
    return {"x": x, "y": y, "u": u, "w": w, "v": v}


def direct_estimate_recursion(model, local, glob, y, u):
    """Per-agent estimate recursion run directly in the original coordinates.

    Maintains each agent's combined estimate and the aggregate estimate,
    corrects with the agent's own innovation through the deviation gain and
    with the aggregate innovation through the gain difference.  Returns the
    post-update estimates, stacked (T, n, d_x).
    """
    d = model.dims
    n, T = d.n, d.T
    alpha = model.alpha
    a_mean = float(np.sum(alpha)) / n

    z = a_mean * model.mu_x
    xhat = np.zeros((T, n, d.d_x))
    pred = np.array([model.mu_x + 0.0 for _ in range(n)])
    for t in range(T):
        C_all = model.C[t] + model.C_bar[t]
        z_prior = z  # predicted aggregate at stage t
        agg_innov = alpha @ y[t] / n - C_all @ z_prior
        z = z_prior + glob.gain[t] @ agg_innov
        gain_diff = glob.gain[t] - local.gain[t]
        for i in range(n):
            raw = y[t, i] - (model.C[t] @ pred[i] + alpha[i] * model.C_bar[t] @ z_prior)
            xhat[t, i] = pred[i] + local.gain[t] @ raw + alpha[i] * gain_diff @ agg_innov
        if t + 1 >= T:
            break
        u_bar = alpha @ u[t] / n
        for i in range(n):
            pred[i] = (model.A[t] @ xhat[t, i] + model.B[t] @ u[t, i]
                       + alpha[i] * (model.A_bar[t] @ z + model.B_bar[t] @ u_bar))
        z = (model.A[t] + model.A_bar[t]) @ z + (model.B[t] + model.B_bar[t]) @ u_bar
    return xhat


def run_decentralized_filters(model, y, u):
    """Drive the production batched filter update and predict along one
    trajectory, as a batch of one, transposing to and from the filters'
    agent-last layout.

    Returns the post-update components stacked over stages:
    (deltas (T, n, d_x), aggregates (T, d_x)).
    """
    from teamlqg.filters import (
        precompute_global,
        precompute_local,
        predict_estimates,
        prior_estimates,
        update_estimates,
    )

    local = precompute_local(model)
    glob = precompute_global(model)
    delta, agg = prior_estimates(model, 1)
    deltas, aggs = [], []
    for t in range(model.T):
        delta, agg, _ = update_estimates(model, local, glob, t, delta, agg,
                                         y[t].T[None])
        deltas.append(delta[0].T)
        aggs.append(agg[0])
        if t + 1 < model.T:
            u_t = u[t].T[None]
            delta, agg = predict_estimates(model, t, delta, agg, u_t,
                                           u_t @ model.alpha / model.n)
    return np.stack(deltas), np.stack(aggs)


def noise_bank(model, seed, start, stop):
    """The noise for rollouts [start, stop) drawn one block at a time: per
    rollout, x1, then w stage by stage, then v stage by stage, each as its own
    (n, d) normal draw times the covariance factor.  Arrays are (B, n, d_x),
    (T - 1, B, n, d_w) and (T, B, n, d_v)."""
    from teamlqg.sim import _cov_factor

    d = model.dims
    B = stop - start
    fac_x = _cov_factor(model.Sigma_x)
    fac_w = [_cov_factor(model.Sigma_w[t]) for t in range(d.T - 1)]
    fac_v = [_cov_factor(model.Sigma_v[t]) for t in range(d.T)]
    x1 = np.empty((B, d.n, d.d_x))
    w = np.empty((d.T - 1, B, d.n, d.d_w))
    v = np.empty((d.T, B, d.n, d.d_v))
    for b in range(B):
        gen = np.random.default_rng(np.random.SeedSequence((seed, start + b)))
        x1[b] = model.mu_x + gen.standard_normal((d.n, d.d_x)) @ fac_x.T
        for t in range(d.T - 1):
            w[t, b] = gen.standard_normal((d.n, d.d_w)) @ fac_w[t].T
        for t in range(d.T):
            v[t, b] = gen.standard_normal((d.n, d.d_v)) @ fac_v[t].T
    return {"x1": x1, "w": w, "v": v}


def _all_agents(model):
    """The team as the oracle's ``_Team``: every agent in its own coordinates."""
    from teamlqg.oracle import _Team

    n = model.n
    return _Team(n, model.alpha, np.ones(n), np.ones(n))


def dense_joint_model(model):
    """The dense n * d_x joint system of the whole team, agent-major.

    The package propagates only the reduced team; this is the ground truth
    that the reduced filter and costs are held against.
    """
    from teamlqg.oracle import _assemble

    return _assemble(model, _all_agents(model))


def joint_exact_cost(model, kind):
    """Exact expected cost by raw second moments on the full joint system.

    The augmented state is [all n * d_x joint states; estimator internals of
    every agent], with the oracle's closed loop built for the whole team.
    The moments are pushed through it as E[z] and E[z z^T] rather than as a
    mean and a covariance, so this cross-checks both the reduced team and
    the moment pass the package propagates.
    """
    from teamlqg.oracle import _closed_loop

    loop = _closed_loop(model, kind.prepare(model), _all_agents(model))
    joint = loop.system
    N = joint.mu.shape[0]
    m = loop.m0
    M = loop.P0 + np.outer(m, m)

    total = 0.0
    for t in range(model.T):
        total += float(np.sum(joint.Qx[t] * M[:N, :N]))
        if t >= model.T - 1:
            break
        # u = K zeta + K_v v + k
        K, K_v, k = loop.K[t], loop.K_v[t], loop.k[t]
        Euu = (K @ M @ K.T
               + K_v @ joint.Sigma_v[t] @ K_v.T
               + K @ np.outer(m, k)
               + np.outer(k, m) @ K.T
               + np.outer(k, k))
        total += float(np.sum(joint.Ru[t] * Euu))

        # zeta' = F zeta + G_w w + G_v v + f, with w driving the states only
        F, G_w, G_v, f = loop.F[t], loop.G_w[t], loop.G_v[t], loop.f[t]
        m_next = F @ m + f
        M = (F @ M @ F.T
             + G_v @ joint.Sigma_v[t] @ G_v.T
             + F @ np.outer(m, f) + np.outer(f, m) @ F.T + np.outer(f, f))
        M[:N, :N] += G_w @ joint.Sigma_w[t] @ G_w.T
        M = 0.5 * (M + M.T)
        m = m_next
    return total


# ---------------------------------------------------------------------------
# Schedules, one chain per pass
#
# The package runs the deviation and aggregate chains of each schedule as one
# pass over a leading chain axis.  These are the recursions it had before,
# one chain at a time, kept as the byte-for-byte reference for that pass.


def schedule_bytes(schedule):
    """Shape and raw bytes of every stack of a ``FilterSchedule`` or
    ``RiccatiPass``, for comparing schedules byte for byte."""
    return {f.name: (getattr(schedule, f.name).shape,
                     getattr(schedule, f.name).tobytes())
            for f in fields(schedule)}


def _backward_chain(A, B, Q, R):
    T, d_x, _ = A.shape
    P = np.zeros((T, d_x, d_x))
    gain = np.zeros((max(T - 1, 0), B.shape[2], d_x))
    P[T - 1] = 0.5 * (Q[T - 1] + Q[T - 1].T)
    for t in range(T - 2, -1, -1):
        nxt = P[t + 1]
        inner = B[t].T @ nxt @ B[t] + R[t]
        inner = 0.5 * (inner + inner.T)
        gain[t] = -np.linalg.solve(inner, B[t].T @ nxt @ A[t])
        closed = A[t] + B[t] @ gain[t]
        P[t] = Q[t] + A[t].T @ nxt @ closed
        P[t] = 0.5 * (P[t] + P[t].T)
    return P, gain


def solve_riccati(model):
    """The deviation and the aggregate Riccati pass, one after the other."""
    from teamlqg.riccati import RiccatiPass

    P, gain = _backward_chain(model.A, model.B, model.Q, model.R)
    P_agg, gain_agg = _backward_chain(
        model.A + model.A_bar, model.B + model.B_bar,
        model.Q + model.Q_bar, model.R + model.R_bar)
    return RiccatiPass(P=P, P_agg=P_agg, gain=gain, gain_agg=gain_agg)


def _forward_chain(A, E, C, S, Sigma_x, Sigma_w, Sigma_v, n):
    from teamlqg.filters import FilterSchedule

    T, d_x, _ = A.shape
    sigma_pred = np.zeros((T, d_x, d_x))
    sigma_post = np.zeros((T, d_x, d_x))
    gain = np.zeros((T, d_x, C.shape[1]))
    sigma_pred[0] = Sigma_x / n
    for t in range(T):
        cov = C[t] @ sigma_pred[t] @ C[t].T + S[t] @ Sigma_v[t] @ S[t].T / n
        cov = 0.5 * (cov + cov.T)
        gain[t] = np.linalg.solve(cov, C[t] @ sigma_pred[t]).T
        post = (np.eye(d_x) - gain[t] @ C[t]) @ sigma_pred[t]
        sigma_post[t] = 0.5 * (post + post.T)
        if t + 1 < T:
            nxt = A[t] @ sigma_post[t] @ A[t].T + E[t] @ Sigma_w[t] @ E[t].T / n
            sigma_pred[t + 1] = 0.5 * (nxt + nxt.T)
    return FilterSchedule(Sigma_pred=sigma_pred, Sigma_post=sigma_post, gain=gain)


def precompute_local(model):
    """The deviation filter schedule on its own."""
    return _forward_chain(model.A, model.E, model.C, model.S, model.Sigma_x,
                          model.Sigma_w, model.Sigma_v, 1)


def precompute_global(model):
    """The aggregate filter schedule on its own: coupled sums, noise / n."""
    return _forward_chain(model.A + model.A_bar, model.E + model.E_bar,
                          model.C + model.C_bar, model.S + model.S_bar,
                          model.Sigma_x, model.Sigma_w, model.Sigma_v,
                          model.dims.n)


# ---------------------------------------------------------------------------
# Random team models, drawn stage by stage
#
# The package's generator before it was batched over stages, kept unchanged
# as the draw-for-draw reference for ``teamlqg.random_models.random_team``.


def _spread(rng, rows: int, cols: int, scale: float) -> np.ndarray:
    return scale * rng.normal(size=(rows, cols)) / np.sqrt(max(rows, cols))


def _with_norm(rng, m: np.ndarray, target: float) -> np.ndarray:
    norm = np.linalg.norm(m, 2)
    if norm == 0.0:
        return m
    return m * (target / norm)


def _psd(rng, d: int, floor: float = 0.0) -> np.ndarray:
    g = rng.normal(size=(d, d + 2))
    m = g @ g.T / (d + 2)
    return 0.5 * (m + m.T) + floor * np.eye(d)


def _stack(draw, T: int, time_varying: bool) -> np.ndarray:
    if time_varying:
        return np.stack([draw() for _ in range(T)])
    m = draw()
    return np.broadcast_to(m, (T,) + m.shape).copy()


def random_team(
    rng: np.random.Generator,
    *,
    n: int | None = None,
    T: int | None = None,
    d_max: int = 3,
    coupling: float = 0.5,
    time_varying: bool = True,
    homogeneous: bool = False,
    zero_mean: bool = False,
) -> TeamModel:
    """Draw a valid random team model.

    ``coupling`` scales every coupling matrix; 0 gives a fully decoupled
    team.  ``homogeneous`` forces the all-ones influence vector.
    """
    if n is None:
        n = int(rng.choice([2, 3, 5]))
    if T is None:
        T = int(rng.integers(2, 11))
    d_x = int(rng.integers(1, d_max + 1))
    d_u = int(rng.integers(1, d_max + 1))
    d_y = int(rng.integers(1, d_max + 1))
    d_w = int(rng.integers(1, d_x + 1))
    d_v = d_y  # square full-rank noise map keeps innovations well posed

    def draw_A():
        return _with_norm(rng, rng.normal(size=(d_x, d_x)), float(rng.uniform(0.5, 1.05)))

    def draw_A_bar():
        return _with_norm(rng, rng.normal(size=(d_x, d_x)), coupling * float(rng.uniform(0.1, 0.4)))

    def draw_S():
        q, _ = np.linalg.qr(rng.normal(size=(d_y, d_y)))
        return q @ np.diag(rng.uniform(0.6, 1.5, d_y))

    def draw_S_bar():
        return 0.1 * coupling * rng.uniform(-1.0, 1.0, (d_y, d_v))

    def draw_Q_pair():
        q = _psd(rng, d_x)
        q_bar = _psd(rng, d_x) - float(rng.uniform(0.0, 0.5)) * q
        return q, 0.5 * (q_bar + q_bar.T)

    def draw_R_pair():
        r = _psd(rng, d_u, floor=0.3)
        r_bar = _psd(rng, d_u) - float(rng.uniform(0.0, 0.5)) * r
        return r, 0.5 * (r_bar + r_bar.T)

    Q = np.zeros((T, d_x, d_x))
    Q_bar = np.zeros((T, d_x, d_x))
    R = np.zeros((T, d_u, d_u))
    R_bar = np.zeros((T, d_u, d_u))
    steps = range(T) if time_varying else [0]
    for t in steps:
        Q[t], Q_bar[t] = draw_Q_pair()
        R[t], R_bar[t] = draw_R_pair()
    if not time_varying:
        Q[:], Q_bar[:], R[:], R_bar[:] = Q[0], Q_bar[0], R[0], R_bar[0]
    if coupling == 0.0:
        Q_bar[:] = 0.0
        R_bar[:] = 0.0

    if homogeneous:
        alpha = np.ones(n)
    else:
        alpha = normalize_influence(
            rng.uniform(0.3, 1.7, n) * rng.choice([-1.0, 1.0], n)
        )
    mu_x = np.zeros(d_x) if zero_mean else 0.5 * rng.normal(size=d_x)

    cs = coupling
    return make_model(
        T=T,
        alpha=alpha,
        A=_stack(draw_A, T, time_varying),
        A_bar=_stack(draw_A_bar, T, time_varying) if cs else 0.0,
        B=_stack(lambda: _spread(rng, d_x, d_u, 0.9), T, time_varying),
        B_bar=_stack(lambda: _spread(rng, d_x, d_u, 0.3 * cs), T, time_varying) if cs else 0.0,
        E=_stack(lambda: _spread(rng, d_x, d_w, 0.8), T, time_varying),
        E_bar=_stack(lambda: _spread(rng, d_x, d_w, 0.3 * cs), T, time_varying) if cs else 0.0,
        C=_stack(lambda: _spread(rng, d_y, d_x, 1.0), T, time_varying),
        C_bar=_stack(lambda: _spread(rng, d_y, d_x, 0.4 * cs), T, time_varying) if cs else 0.0,
        S=_stack(draw_S, T, time_varying),
        S_bar=_stack(draw_S_bar, T, time_varying) if cs else 0.0,
        Q=Q, Q_bar=Q_bar, R=R, R_bar=R_bar,
        mu_x=mu_x,
        Sigma_x=_psd(rng, d_x, floor=0.1),
        Sigma_w=np.stack([_psd(rng, d_w, floor=0.1) for _ in range(T)]),
        Sigma_v=np.stack([_psd(rng, d_v, floor=0.2) for _ in range(T)]),
    )
