"""Plain loop-based reference implementations used to cross-check the package.

Everything here is written as directly as possible from the model equations,
one agent and one step at a time, so the vectorized production code has an
independent implementation to agree with.
"""

from types import SimpleNamespace

import numpy as np


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
    trajectory, as a batch of one.

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
                                         y[t][None])
        deltas.append(delta[0])
        aggs.append(agg[0])
        if t + 1 < model.T:
            u_t = u[t][None]
            delta, agg = predict_estimates(model, t, delta, agg, u_t,
                                           model.alpha @ u_t / model.n)
    return np.stack(deltas), np.stack(aggs)


def joint_exact_cost(model, kind):
    """Exact expected cost by moment propagation on the full joint system.

    The augmented state is [all n * d_x joint states; estimator internals of
    every agent], with the stage maps built for the whole team, so this
    cross-checks the reduced team the package propagates.
    """
    from teamlqg.oracle import _policy_maps, _Team, build_joint_model

    d = model.dims
    N = d.n * d.d_x
    joint = build_joint_model(model, cap=N)
    s0, maps = _policy_maps(model, kind, _Team.full(model))
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
        st = SimpleNamespace(**{key: value[t] for key, value in vars(maps).items()})
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
