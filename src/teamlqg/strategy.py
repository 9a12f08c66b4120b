"""Action rules for the team: optimal, mean-field, zero, and custom linear.

Every rule that acts is a CustomLinear rule on two estimates per agent.  The
optimal rule is the member that feeds each agent's combined estimate through
the deviation gain and the shared aggregate estimate through the gain
difference.  The mean-field rule is the same law with the aggregate estimate
replaced by its offline-computable deterministic trajectory, which frees
agents from needing the aggregated observations at run time; each agent then
tracks its deviation with a private filter driven only by its own
observations.  A strategy's ``prepare`` solves, once per model, everything
it acts with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .filters import FilterSchedule, _matvec, precompute_filters, precompute_local
from .model import Dimensions, TeamModel, _read_json, _reject_unknown, _stack_stage
from .riccati import RiccatiPass, solve_riccati


@dataclass(frozen=True)
class Prepared:
    """What a strategy acts with, solved once per model.

    ``coeffs`` is None for a rule that carries no estimator.  ``glob`` is
    None when the aggregate estimate is replaced by the planned path in
    ``plan``, which is None otherwise.
    """

    coeffs: Optional[CustomLinear]
    local: Optional[FilterSchedule]
    glob: Optional[FilterSchedule]
    plan: Optional[MeanFieldPlan]


@dataclass(frozen=True)
class ZeroAction:
    """Play zero at every stage."""

    def prepare(self, model: TeamModel) -> Prepared:
        return Prepared(None, None, None, None)


@dataclass(frozen=True)
class Optimal:
    """Certainty-equivalent rule on the two decentralized filters."""

    def prepare(self, model: TeamModel) -> Prepared:
        return Prepared(optimal_coefficients(solve_riccati(model), model),
                        *precompute_filters(model), None)


@dataclass(frozen=True)
class MeanField:
    """Optimal rule with the aggregate estimate replaced by its planned path."""

    def prepare(self, model: TeamModel) -> Prepared:
        gains = solve_riccati(model)
        return Prepared(optimal_coefficients(gains, model), precompute_local(model),
                        None, meanfield_trajectory(model, gains))


@dataclass(frozen=True)
class CustomLinear:
    """Stagewise linear rule u_i = theta xhat_i + alpha_i phi z + psi y_i + alpha_i omega y_bar.

    Coefficient stacks have one entry per action stage (T - 1 of them).
    The optimal rule is the member with theta = gain, phi = gain_agg - gain,
    psi = omega = 0.
    """

    theta: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    omega: np.ndarray

    @classmethod
    def from_json_dict(cls, doc: dict, model: TeamModel) -> "CustomLinear":
        """Read each coefficient in any form ``model._stack_stage`` accepts;
        an omitted one is zero, a non-finite one or a key that names no
        coefficient a ValueError.  ``T``, the horizon that
        ``schedule_to_json_dict`` writes, is allowed and not read."""
        shapes = _coefficient_shapes(model.dims)
        _reject_unknown(doc, (*shapes, "T"))
        coefficients = {key: _stack_stage(doc.get(key, 0.0), *shape, key)
                        for key, shape in shapes.items()}
        for key, value in coefficients.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{key}: not finite")
        return cls(**coefficients)

    def prepare(self, model: TeamModel) -> Prepared:
        return Prepared(self, *precompute_filters(model), None)

    @functools.cached_property
    def _live(self) -> tuple[tuple[bool, bool], ...]:
        """Per action stage, whether ``psi`` and ``omega`` have a nonzero
        entry."""
        return tuple(zip(np.any(self.psi, axis=(1, 2)).tolist(),
                         np.any(self.omega, axis=(1, 2)).tolist()))

    def act(self, t: int, delta: np.ndarray, agg: np.ndarray, y: np.ndarray,
            model: TeamModel) -> np.ndarray:
        """Actions (B, d_u, n) at action stage t from a batch of updated
        estimates ``delta`` (B, d_x, n), ``agg`` (B, d_x) or one planned
        (d_x,) row, and current observations ``y`` (B, d_y, n).

        Arrays are agent-last; the shared terms ``phi z + omega y_bar``
        broadcast along the agent axis, scaled by ``model.alpha_bcast``.
        A stage whose ``psi`` or ``omega`` is all zero skips that product
        (and for ``omega`` the average ``y_bar``); on finite values adding
        zero moves no bit."""
        scale = model.alpha_bcast
        live_psi, live_omega = self._live[t]
        combined = delta + agg[..., None] * scale
        shared = _matvec(self.phi[t], agg)
        if live_omega:
            y_bar = y @ model.alpha / model.dims.n
            shared = shared + _matvec(self.omega[t], y_bar)
        u = self.theta[t] @ combined
        if live_psi:
            u += self.psi[t] @ y
        u += shared[..., None] * scale
        return u


def _coefficient_shapes(dims: Dimensions) -> dict[str, tuple[int, int, int]]:
    """The (stages, rows, cols) shape of each ``CustomLinear`` coefficient
    stack, in field order: theta, phi, psi, omega."""
    stages = max(dims.T - 1, 0)
    return {"theta": (stages, dims.d_u, dims.d_x),
            "phi": (stages, dims.d_u, dims.d_x),
            "psi": (stages, dims.d_u, dims.d_y),
            "omega": (stages, dims.d_u, dims.d_y)}


StrategyKind = Union[ZeroAction, Optimal, MeanField, CustomLinear]


def optimal_coefficients(gains: RiccatiPass, model: TeamModel) -> CustomLinear:
    """The CustomLinear member that reproduces the optimal rule exactly."""
    stages, d_u, _ = gains.gain.shape
    d_y = model.dims.d_y
    return CustomLinear(
        theta=gains.gain.copy(),
        phi=gains.gain_agg - gains.gain,
        psi=np.zeros((stages, d_u, d_y)),
        omega=np.zeros((stages, d_u, d_y)),
    )


def parse_strategy(text: str, model: TeamModel) -> StrategyKind:
    """Map a command-line strategy name to a strategy object."""
    if text == "optimal":
        return Optimal()
    if text == "meanfield":
        return MeanField()
    if text == "zero":
        return ZeroAction()
    if text.startswith("custom:"):
        return CustomLinear.from_json_dict(_read_json(text.split(":", 1)[1]),
                                           model)
    raise ValueError(f"unknown strategy {text!r}")


# ---------------------------------------------------------------------------
# Mean-field strategy


@dataclass(frozen=True)
class MeanFieldPlan:
    """Offline aggregate plan: mean trajectory and the aggregate actions on it."""

    mean: np.ndarray
    u_bar: np.ndarray


def meanfield_trajectory(model: TeamModel, gains: RiccatiPass) -> MeanFieldPlan:
    """Deterministic closed-loop path of the aggregate under the optimal gains."""
    d = model.dims
    mean = np.zeros((d.T, d.d_x))
    u_bar = np.zeros((max(d.T - 1, 0), d.d_u))
    A_all, B_all = model.chains["A"][1], model.chains["B"][1]
    mean[0] = model.alpha_mean * model.mu_x
    for t in range(d.T - 1):
        u_bar[t] = gains.gain_agg[t] @ mean[t]
        mean[t + 1] = A_all[t] @ mean[t] + B_all[t] @ u_bar[t]
    return MeanFieldPlan(mean=mean, u_bar=u_bar)
