"""Team model container, validation, and its JSON wire format.

A team consists of n agents with identical local dynamics plus a coupling
through the influence-weighted average of their states, actions, and noises.
A model is a set of per-stage matrix stacks: plain matrices for an agent's
own dynamics, sensing, and costs, ``_bar`` matrices that couple it to the
averages.  ``_stack_stage`` is the one reader of such stacks; ``make_model``,
the model JSON reader, and ``CustomLinear.from_json_dict`` all go through it.
``TeamModel.chains`` is the one place that forms the aggregate chain's
coupled sums X + X_bar, which the solvers and the stepping kernel read.

Time is handled 0-based in code (stage index ``t`` runs over ``range(T)``);
human-facing output such as validation messages and serialized schedules uses
1-based stage labels.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InfluenceError

SYM_TOL = 1e-12
PSD_TOL = -1e-10
PD_TOL = 1e-10
NORMALIZATION_TOL = 1e-9

# stage-matrix key -> (row dim, col dim), in model dimension names
_STAGE_SHAPES = {
    "A": ("d_x", "d_x"),
    "A_bar": ("d_x", "d_x"),
    "B": ("d_x", "d_u"),
    "B_bar": ("d_x", "d_u"),
    "E": ("d_x", "d_w"),
    "E_bar": ("d_x", "d_w"),
    "C": ("d_y", "d_x"),
    "C_bar": ("d_y", "d_x"),
    "S": ("d_y", "d_v"),
    "S_bar": ("d_y", "d_v"),
    "Q": ("d_x", "d_x"),
    "Q_bar": ("d_x", "d_x"),
    "R": ("d_u", "d_u"),
    "R_bar": ("d_u", "d_u"),
}
_STAGE_KEYS = tuple(_STAGE_SHAPES)
_REQUIRED_STAGE_KEYS = ("A", "B", "C", "Q", "R")
# arrays with no stage axis: what validate() finds there names no stage
_UNSTAGED = ("mu_x", "Sigma_x", "alpha")

# The spectral invariants validate() checks at every stage: the stacks that
# must be symmetric (make_model symmetrizes these), then (label, bound) rows
# on the least eigenvalue of a stack or a sum of two, >= PSD_TOL or > PD_TOL.
_SYMMETRIC = ("Sigma_x", "Q", "Q_bar", "R", "R_bar", "Sigma_w", "Sigma_v")
_DEFINITE = (("Sigma_x", PSD_TOL), ("Q", PSD_TOL), ("Q+Q_bar", PSD_TOL), ("R", PD_TOL),
             ("R+R_bar", PD_TOL), ("Sigma_w", PSD_TOL), ("Sigma_v", PSD_TOL))
# bound -> (whether a least eigenvalue fails it, the property it names)
_BOUNDS = {PSD_TOL: (np.less, "positive semidefinite"),
           PD_TOL: (np.less_equal, "positive definite")}


@dataclass(frozen=True)
class Dimensions:
    """Static sizes of a team model."""

    n: int
    T: int
    d_x: int
    d_u: int
    d_y: int
    d_w: int
    d_v: int


@dataclass(frozen=True)
class TeamModel:
    """Immutable team model: dimensions, stacked stage matrices, noise, influence.

    Stage matrices are stored stacked over time, e.g. ``A[t]`` is the local
    transition matrix of stage ``t`` (0-based).  ``Sigma_w[T - 1]`` is carried
    for uniform shapes but never used: process noise only drives the T - 1
    transitions.  Array fields are read-only in every process, and a pickle
    holds the defining fields only: the cached values are formed afresh.
    """

    dims: Dimensions
    A: np.ndarray
    A_bar: np.ndarray
    B: np.ndarray
    B_bar: np.ndarray
    E: np.ndarray
    E_bar: np.ndarray
    C: np.ndarray
    C_bar: np.ndarray
    S: np.ndarray
    S_bar: np.ndarray
    Q: np.ndarray
    Q_bar: np.ndarray
    R: np.ndarray
    R_bar: np.ndarray
    mu_x: np.ndarray
    Sigma_x: np.ndarray
    Sigma_w: np.ndarray
    Sigma_v: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        for f in fields(self)[1:]:      # every field after dims is an array
            _freeze(getattr(self, f.name))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def T(self) -> int:
        return self.dims.T

    @property
    def alpha_mean(self) -> float:
        """(1/n) sum of influence factors."""
        return float(np.sum(self.alpha)) / self.dims.n

    @functools.cached_property
    def alpha_bcast(self) -> float | np.ndarray:
        """The influence factor that scales a shared term along the agent
        axis: the float alpha_0 when every alpha_i equals it, else ``alpha``.

        ``z[..., None] * alpha_bcast`` is then a (..., 1) product under
        uniform influence, broadcast by the add that consumes it instead of
        built n wide, with the same bits as the vector product.  Influence
        averages ``x @ alpha / n`` keep the vector.
        """
        alpha = self.alpha
        if alpha.size and (alpha == alpha[0]).all():
            return float(alpha[0])
        return alpha

    @functools.cached_property
    def chains(self) -> dict[str, np.ndarray]:
        """Stage stacks of both chains, (2, T, rows, cols) for each of A, B,
        C, E, Q, R and S: the deviation chain's X, then the aggregate chain's
        coupled sum X + X_bar.  Formed once per model; read-only."""
        return {key: _freeze(np.stack([getattr(self, key), getattr(self, key)
                                       + getattr(self, key + "_bar")]))
                for key in "ABCEQRS"}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of model validation: a list of human-readable violations."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _stack_stage(value, T: int, rows: int, cols: int, name: str) -> np.ndarray:
    """Read a per-stage matrix spec into a new (T, rows, cols) stack.

    ``value`` is a scalar (a 1x1 matrix, or 0 for zeros of any shape), one
    matrix reused at every stage, a (T, rows, cols) stack (``[]`` when T is
    0), or a dict keyed by 1-based stage strings "1".."T", the form
    ``schedule_to_json_dict`` writes.
    """
    if isinstance(value, dict):
        try:
            value = [value[str(t + 1)] for t in range(T)]
        except KeyError as exc:
            raise ValueError(f"{name}: no entry for stage {exc}") from exc
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not a numeric array ({exc})") from exc
    if T == 0 and arr.shape == (0,):
        return np.zeros((0, rows, cols))
    if arr.ndim == 0:
        if (rows, cols) == (1, 1):
            arr = arr.reshape(1, 1)
        elif float(arr) == 0.0:
            return np.zeros((T, rows, cols))
        else:
            raise ValueError(f"{name}: scalar given but expected shape {(rows, cols)}")
    if arr.ndim == 2:
        if arr.shape != (rows, cols):
            raise ValueError(f"{name}: expected shape {(rows, cols)}, got {arr.shape}")
        return np.broadcast_to(arr, (T, rows, cols)).copy()
    if arr.ndim == 3:
        if arr.shape != (T, rows, cols):
            raise ValueError(f"{name}: expected shape {(T, rows, cols)}, got {arr.shape}")
        return arr.copy()
    raise ValueError(f"{name}: cannot interpret array of ndim {arr.ndim}")


def _symmetrize_in_place(stack: np.ndarray) -> None:
    """Average away asymmetry that is within tolerance; leave the rest alone
    (a non-finite entry too, silently, for validate() to flag)."""
    flipped = stack.swapaxes(1, 2)
    with np.errstate(invalid="ignore"):
        near = np.max(np.abs(stack - flipped), axis=(1, 2), initial=0.0) <= SYM_TOL
    stack[near] = 0.5 * (stack[near] + flipped[near])


def make_model(
    *,
    T: int,
    A,
    B,
    C,
    Q,
    R,
    Sigma_x,
    Sigma_w,
    Sigma_v,
    alpha=None,
    n: int | None = None,
    E=None,
    S=None,
    mu_x=None,
    A_bar=0.0,
    B_bar=0.0,
    E_bar=0.0,
    C_bar=0.0,
    S_bar=0.0,
    Q_bar=0.0,
    R_bar=0.0,
) -> TeamModel:
    """Assemble an immutable TeamModel from constants or per-stage arrays.

    Each stage matrix and noise covariance may be given in any form
    ``_stack_stage`` reads: a scalar, one matrix reused for the whole
    horizon, a (T, rows, cols) stack, or a dict keyed "1".."T".  The sizes
    are read off ``A``, ``B``, ``C``, ``E``, and ``S``.  ``E`` and ``S``
    default to square identities, ``mu_x`` to zero, the coupling
    (``*_bar``) matrices to zero.  ``alpha`` defaults to the homogeneous
    vector of ones, in which case ``n`` must be given.  Near-symmetric
    quadratic-form and covariance matrices are symmetrized; anything worse
    is left for validate() to flag.
    """
    if T < 1:
        raise ValueError("horizon T must be at least 1")
    if alpha is None:
        if n is None:
            raise ValueError("give either alpha or n")
        alpha_arr = np.ones(n, dtype=float)
    else:
        alpha_arr = np.asarray(alpha, dtype=float).reshape(-1).copy()
        if n is not None and n != alpha_arr.shape[0]:
            raise ValueError(f"n={n} disagrees with len(alpha)={alpha_arr.shape[0]}")

    d_x = np.atleast_2d(A).shape[-2]
    d_y = np.atleast_2d(C).shape[-2]
    if E is None:
        E = np.eye(d_x)
    if S is None:
        S = np.eye(d_y)
    dims = Dimensions(n=alpha_arr.shape[0], T=T, d_x=d_x, d_u=np.atleast_2d(B).shape[-1],
                      d_y=d_y, d_w=np.atleast_2d(E).shape[-1], d_v=np.atleast_2d(S).shape[-1])

    stage_values = {
        "A": A, "A_bar": A_bar, "B": B, "B_bar": B_bar, "E": E, "E_bar": E_bar,
        "C": C, "C_bar": C_bar, "S": S, "S_bar": S_bar,
        "Q": Q, "Q_bar": Q_bar, "R": R, "R_bar": R_bar,
    }
    stacks = {key: _stack_stage(stage_values[key], T, getattr(dims, rname),
                                getattr(dims, cname), key)
              for key, (rname, cname) in _STAGE_SHAPES.items()}

    if mu_x is None:
        mu = np.zeros(d_x)
    else:
        mu = np.asarray(mu_x, dtype=float).reshape(-1).copy()
        if mu.shape != (d_x,):
            raise ValueError(f"mu_x: expected shape {(d_x,)}, got {mu.shape}")
    stacks.update(Sigma_x=_stack_stage(Sigma_x, 1, d_x, d_x, "Sigma_x"),
                  Sigma_w=_stack_stage(Sigma_w, T, dims.d_w, dims.d_w, "Sigma_w"),
                  Sigma_v=_stack_stage(Sigma_v, T, dims.d_v, dims.d_v, "Sigma_v"))
    for key in _SYMMETRIC:
        _symmetrize_in_place(stacks[key])
    stacks["Sigma_x"] = stacks["Sigma_x"][0]
    return TeamModel(dims=dims, **stacks, mu_x=mu, alpha=alpha_arr)


def _alpha_spread(model: TeamModel) -> float:
    """|alpha - mean|, or 0 below 1e-13 |alpha|, the rounding of a uniform alpha."""
    spread = float(np.linalg.norm(model.alpha - model.alpha_mean))
    return spread if spread > 1e-13 * np.linalg.norm(model.alpha) else 0.0


def resize_team(model: TeamModel, n: int) -> TeamModel:
    """Rebuild the model for a population of n agents with homogeneous influence."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return make_model(
        T=model.dims.T,
        alpha=np.ones(n),
        mu_x=model.mu_x,
        Sigma_x=model.Sigma_x,
        Sigma_w=model.Sigma_w,
        Sigma_v=model.Sigma_v,
        **{k: getattr(model, k) for k in _STAGE_KEYS},
    )


def _stages(model: TeamModel, label: str) -> np.ndarray:
    """The (stages, rows, cols) stack a table label names, "Q+Q_bar" the
    aggregate chain's."""
    key = label.split("+")[0]
    stack = model.chains[key][1] if "+" in label else getattr(model, key)
    return stack.reshape((-1,) + stack.shape[-2:])


def _by_stage(checks: list[tuple[str, str, np.ndarray]], T: int) -> list[str]:
    """The messages of (label, what, per-stage failure mask) checks, stage by
    stage and in check order within one; unstaged arrays come first."""
    failed = np.zeros((T + 1, len(checks)), dtype=bool)
    for j, (label, _, mask) in enumerate(checks):
        rows = slice(0, 1) if label in _UNSTAGED else slice(1, None)
        failed[rows, j] = mask
    return [f"{checks[j][0]} {checks[j][1]}" + (f" at t={s}" if s else "")
            for s, j in np.argwhere(failed).tolist()]


def validate(model: TeamModel) -> ValidationReport:
    """Check every model invariant and report all violations with their stage."""
    v: list[str] = []
    d = model.dims
    if d.n < 2:
        v.append(f"n must be at least 2, got {d.n}")
    if d.T < 1:
        v.append(f"horizon T must be at least 1, got {d.T}")
    for name in ("d_x", "d_u", "d_y", "d_w", "d_v"):
        if getattr(d, name) < 1:
            v.append(f"{name} must be positive")

    if model.alpha.shape != (d.n,):
        v.append(f"alpha: expected shape {(d.n,)}, got {model.alpha.shape}")
    else:
        for i, a in enumerate(model.alpha):
            if a == 0.0:
                v.append(f"alpha[{i}] is zero")
        dev = abs(float(np.sum(model.alpha**2)) / d.n - 1.0)
        if dev > NORMALIZATION_TOL:
            v.append(f"alpha normalization violated: |(1/n) sum alpha^2 - 1| = {dev:.3e}")

    expected = {key: (d.T, getattr(d, rows), getattr(d, cols))
                for key, (rows, cols) in _STAGE_SHAPES.items()}
    expected.update(mu_x=(d.d_x,), Sigma_x=(d.d_x, d.d_x),
                    Sigma_w=(d.T, d.d_w, d.d_w), Sigma_v=(d.T, d.d_v, d.d_v))
    for key, want in expected.items():
        got = getattr(model, key).shape
        if got != want:
            v.append(f"{key}: expected shape {want}, got {got}")
    if not v:
        nonfinite = []
        for key in (*expected, "alpha"):
            per_stage = getattr(model, key).reshape(1 if key in _UNSTAGED else d.T, -1)
            nonfinite.append((key, "not finite", ~np.isfinite(per_stage).all(axis=1)))
        v += _by_stage(nonfinite, d.T)
    if v:
        # a wrong shape or a non-finite entry makes the spectral checks meaningless
        return ValidationReport(tuple(v))

    checks = []
    for key in _SYMMETRIC:
        stack = _stages(model, key)
        asym = np.max(np.abs(stack - stack.swapaxes(1, 2)), axis=(1, 2), initial=0.0)
        checks.append((key, "not symmetric", asym > SYM_TOL))
    for label, bound in _DEFINITE:
        stack = _stages(model, label)
        fails, name = _BOUNDS[bound]
        least = np.linalg.eigvalsh(0.5 * (stack + stack.swapaxes(1, 2)))[:, 0]
        checks.append((label, f"not {name}", fails(least, bound)))
    return ValidationReport(tuple(_by_stage(checks, d.T)))


def normalize_influence(alpha_raw) -> np.ndarray:
    """Rescale an influence vector so that (1/n) sum alpha_i^2 = 1."""
    arr = np.asarray(alpha_raw, dtype=float).reshape(-1)
    n = arr.shape[0]
    if n < 2:
        raise InfluenceError(f"influence vector needs at least 2 entries, got {n}")
    if not np.all(np.isfinite(arr)):
        raise InfluenceError("influence vector has non-finite entries")
    if np.any(arr == 0.0):
        raise InfluenceError("influence vector has zero entries")
    with np.errstate(over="ignore"):
        ssq = float(np.sum(arr**2))
    if not n * np.finfo(float).tiny <= ssq < np.inf:
        # the squares under- or overflow: scale by the largest entry first
        arr = arr / np.max(np.abs(arr))
        ssq = float(np.sum(arr**2))
    return arr * np.sqrt(n / ssq)


# ---------------------------------------------------------------------------
# JSON wire format


def to_json_dict(model: TeamModel) -> dict:
    """Serialize a model to the documented JSON structure (always explicit stages)."""
    return {
        "dims": asdict(model.dims),
        "stages": [{k: getattr(model, k)[t].tolist() for k in _STAGE_KEYS}
                   for t in range(model.dims.T)],
        "noise": {
            "mu_x": model.mu_x.tolist(),
            "Sigma_x": model.Sigma_x.tolist(),
            "Sigma_w": model.Sigma_w.tolist(),
            "Sigma_v": model.Sigma_v.tolist(),
        },
        "alpha": model.alpha.tolist(),
    }


def from_json_dict(doc: dict) -> TeamModel:
    """Build a TeamModel from a parsed JSON document.

    The document needs ``dims``, ``stages`` (one object or a list of T),
    ``noise``, and ``alpha``.  Coupling matrices, ``E``, ``S``, and ``mu_x``
    may be omitted; see the README for the full schema.  Every matrix is
    read at the shape ``dims`` gives it.
    """
    try:
        dims = Dimensions(**{f.name: int(doc["dims"][f.name]) for f in fields(Dimensions)})
        stages, noise, alpha = doc["stages"], doc["noise"], doc["alpha"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model document is missing required data: {exc}") from exc
    if dims.T < 1:
        raise ValueError("dims.T must be at least 1")
    if isinstance(stages, dict):
        stages = [stages] * dims.T
    if len(stages) != dims.T:
        raise ValueError(f"stages: expected {dims.T} entries, got {len(stages)}")

    entries = {key: [] for key in _STAGE_KEYS}
    for t, st in enumerate(stages):
        for key, (rname, cname) in _STAGE_SHAPES.items():
            if key in _REQUIRED_STAGE_KEYS and key not in st:
                raise ValueError(f"stages[{t}]: missing required matrix {key}")
            rows, cols = getattr(dims, rname), getattr(dims, cname)
            default = np.eye(rows, cols) if key in ("E", "S") else 0.0
            entries[key].append(_stack_stage(st.get(key, default), 1, rows, cols,
                                             f"stages[{t}].{key}")[0])
    try:
        covs = {key: noise[key] for key in ("Sigma_x", "Sigma_w", "Sigma_v")}
    except KeyError as exc:
        raise ValueError(f"noise block is missing {exc}") from exc
    return make_model(T=dims.T, n=dims.n, alpha=alpha, mu_x=noise.get("mu_x"),
                      **covs, **entries)


def _read_json(path):
    """Parse a JSON file; a syntax error is a ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def load_model(path) -> TeamModel:
    """Read and assemble a model from a JSON file."""
    return from_json_dict(_read_json(path))


def save_model(model: TeamModel, path) -> None:
    """Write a model to a JSON file (floats round-trip exactly)."""
    Path(path).write_text(json.dumps(to_json_dict(model), indent=2) + "\n")
