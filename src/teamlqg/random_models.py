"""Randomized team models for verification and property testing.

The generator keeps every draw inside the assumptions the solvers rely on:
cost weights satisfy the definiteness requirements, observation noise maps
stay full rank so innovation covariances cannot collapse, and transition
norms are capped so a ten-step horizon does not blow up numerically.

Draws are batched over stages without changing a single value: the generator
is called in the same order as drawing stage by stage would call it (runs of
one distribution become one draw of the stacked size, which reads the stream
identically), and the linear algebra then runs once on each stage stack.
"""

from __future__ import annotations

import numpy as np

from .model import TeamModel, make_model, normalize_influence


def _spread(rng, steps: int, rows: int, cols: int, scale: float) -> np.ndarray:
    return scale * rng.normal(size=(steps, rows, cols)) / np.sqrt(max(rows, cols))


def _psd(g: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """``g g^T / (d + 2)``, symmetrized, plus ``floor * I``, for each
    (d, d + 2) draw in ``g``."""
    d = g.shape[-2]
    m = g @ g.swapaxes(-1, -2) / (d + 2)
    return 0.5 * (m + m.swapaxes(-1, -2)) + floor * np.eye(d)


def _with_norms(m: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each matrix of the stack rescaled to the spectral norm in ``targets``;
    a zero matrix stays zero."""
    norms = np.linalg.svd(m, compute_uv=False)[:, 0]
    scale = np.divide(targets, norms, out=np.ones_like(norms), where=norms != 0.0)
    return m * scale[:, None, None]


def _scaled_transitions(rng, steps: int, d: int, low: float,
                        high: float) -> tuple[np.ndarray, np.ndarray]:
    """Per stage, a (d, d) normal draw and then its target norm."""
    g = np.empty((steps, d, d))
    target = np.empty(steps)
    for t in range(steps):
        g[t] = rng.normal(size=(d, d))
        target[t] = rng.uniform(low, high)
    return g, target


def _cost_weights(rng, steps: int, d_x: int,
                  d_u: int) -> tuple[np.ndarray, ...]:
    """Q, Q_bar, R, R_bar: per stage the state pair, then the action pair,
    each a weight and its coupling weight less up to half the weight."""
    gq = np.empty((steps, 2, d_x, d_x + 2))
    gr = np.empty((steps, 2, d_u, d_u + 2))
    shift = np.empty((2, steps))
    for t in range(steps):
        gq[t] = rng.normal(size=(2, d_x, d_x + 2))
        shift[0, t] = rng.uniform(0.0, 0.5)
        gr[t] = rng.normal(size=(2, d_u, d_u + 2))
        shift[1, t] = rng.uniform(0.0, 0.5)
    weights = []
    for g, floor, c in ((gq, 0.0, shift[0]), (gr, 0.3, shift[1])):
        w = _psd(g[:, 0], floor)
        w_bar = _psd(g[:, 1]) - c[:, None, None] * w
        weights += [w, 0.5 * (w_bar + w_bar.swapaxes(-1, -2))]
    return tuple(weights)


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
    team.  ``homogeneous`` forces the all-ones influence vector.  Without
    ``time_varying`` one draw serves every stage, except for the process
    and observation noise covariances, which are drawn per stage either way.
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
    steps = T if time_varying else 1

    def over_horizon(stack: np.ndarray) -> np.ndarray:
        """The (T, rows, cols) stack, or its one matrix for every stage."""
        return stack if time_varying else stack[0]

    Q, Q_bar, R, R_bar = _cost_weights(rng, steps, d_x, d_u)
    if coupling == 0.0:
        Q_bar = R_bar = 0.0
    else:
        Q_bar, R_bar = over_horizon(Q_bar), over_horizon(R_bar)

    if homogeneous:
        alpha = np.ones(n)
    else:
        alpha = normalize_influence(
            rng.uniform(0.3, 1.7, n) * rng.choice([-1.0, 1.0], n)
        )
    mu_x = np.zeros(d_x) if zero_mean else 0.5 * rng.normal(size=d_x)

    cs = coupling
    g, target = _scaled_transitions(rng, steps, d_x, 0.5, 1.05)
    A = _with_norms(g, target)
    if cs:
        g, target = _scaled_transitions(rng, steps, d_x, 0.1, 0.4)
        A_bar = _with_norms(g, coupling * target)
    B = _spread(rng, steps, d_x, d_u, 0.9)
    B_bar = _spread(rng, steps, d_x, d_u, 0.3 * cs) if cs else 0.0
    E = _spread(rng, steps, d_x, d_w, 0.8)
    E_bar = _spread(rng, steps, d_x, d_w, 0.3 * cs) if cs else 0.0
    C = _spread(rng, steps, d_y, d_x, 1.0)
    C_bar = _spread(rng, steps, d_y, d_x, 0.4 * cs) if cs else 0.0
    g = np.empty((steps, d_y, d_y))
    diag = np.empty((steps, d_y))
    for t in range(steps):
        g[t] = rng.normal(size=(d_y, d_y))
        diag[t] = rng.uniform(0.6, 1.5, d_y)
    S = np.linalg.qr(g)[0] * diag[:, None, :]
    S_bar = 0.1 * coupling * rng.uniform(-1.0, 1.0, (steps, d_y, d_v)) if cs else 0.0
    Sigma_x = _psd(rng.normal(size=(d_x, d_x + 2)), floor=0.1)
    Sigma_w = _psd(rng.normal(size=(T, d_w, d_w + 2)), floor=0.1)
    Sigma_v = _psd(rng.normal(size=(T, d_v, d_v + 2)), floor=0.2)

    return make_model(
        T=T,
        alpha=alpha,
        A=over_horizon(A),
        A_bar=over_horizon(A_bar) if cs else 0.0,
        B=over_horizon(B),
        B_bar=over_horizon(B_bar) if cs else 0.0,
        E=over_horizon(E),
        E_bar=over_horizon(E_bar) if cs else 0.0,
        C=over_horizon(C),
        C_bar=over_horizon(C_bar) if cs else 0.0,
        S=over_horizon(S),
        S_bar=over_horizon(S_bar) if cs else 0.0,
        Q=over_horizon(Q), Q_bar=Q_bar, R=over_horizon(R), R_bar=R_bar,
        mu_x=mu_x,
        Sigma_x=Sigma_x,
        Sigma_w=Sigma_w,
        Sigma_v=Sigma_v,
    )
