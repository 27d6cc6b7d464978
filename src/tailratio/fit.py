"""Maximum-likelihood fitting of logistic mixtures with a 75/25 split protocol.

The optimizer is L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) with a closed-form
gradient over an unconstrained reparameterization: k-1 weight logits
(softmax, last logit pinned to 0), locations, and log scales.  It runs in
standardized coordinates: the sorted sample is mapped once to
z = (x - median) / IQR (the range when the IQR is 0), so locations are O(1)
and log scales near 0 whatever the score units, and the winner is mapped
back (location = median + IQR * z-location, scale = IQR * z-scale,
log-likelihood = z-log-likelihood - n log IQR).  The map makes the fit
affine-equivariant up to rounding and takes about a third fewer objective
evaluations than fitting raw scores.  Each fit runs a few deterministic
starts from the quantile initializer plus one start per extra restart;
restarts jitter the initializer with an independent substream per restart,
keyed (*seed, restart, RESTART), so results do not depend on scheduling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dist import MixtureModel
from .errors import DomainError, FitFailureError
from .seeds import RESTART, Key, key_path, substream

__all__ = ["FitConfig", "SplitResult", "FitResult", "split_dataset", "init_params", "fit_mixture"]

_LOGIT_CLIP = 30.0
_LOG_SCALE_CLIP = 700.0
# Scale floor as a fraction of the sample range; prevents a component from
# collapsing onto a single point and blowing up the likelihood.
_SCALE_FLOOR_FRAC = 1e-4
# Extra starts from the initializer with the top component moved to these
# sample quantiles.  From the mid-quantile placement alone the search settles
# in a worse mode on 14 of the 400 criterion-7/8 training splits (short by up
# to 1.28 in log-likelihood); with these starts it reaches the best known
# mode on all of them.  A start at 0.97 in place of 0.98 misses it on one
# split, by 0.011.
_TOP_START_QUANTILES = (0.90, 0.98)


@dataclass(frozen=True)
class FitConfig:
    """Fitting settings: component count, iteration budget, tolerance, restarts, seed.

    `seed` is a key path (an int is the one-element path), stored as a tuple.
    """

    k: int = 2
    max_iter: int = 2000
    tol: float = 1e-8
    restarts: int = 5
    seed: Key = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", key_path(self.seed))
        if self.k < 1:
            raise DomainError(f"component count must be at least 1, got {self.k}")
        if not 0.0 < self.tol < np.inf:
            raise DomainError(f"tolerance must be finite and positive, got {self.tol}")
        if self.restarts < 1:
            raise DomainError(f"restarts must be at least 1, got {self.restarts}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class SplitResult:
    """Random train/test partition of a score sequence."""

    train: np.ndarray
    test: np.ndarray


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted model, its log-likelihood, the winning restart, and a convergence record.

    `converged` is true when every start stopped on the optimizer's own
    convergence test; `nit` and `nfev` are iterations and objective
    evaluations summed over all starts.
    """

    model: MixtureModel
    log_likelihood: float
    restart: int
    converged: bool
    nit: int
    nfev: int


def split_dataset(scores, fraction: float, seed: Key) -> SplitResult:
    """Randomly partition scores into train and test, train size = round(fraction * n)."""
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size < 4:
        raise DomainError(f"need a flat sequence of at least 4 scores, got shape {arr.shape}")
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"fraction must be in (0, 1), got {fraction}")
    n = arr.size
    n_train = round(fraction * n)
    if n_train == 0 or n_train == n:
        raise DomainError(f"degenerate split: {n_train} train of {n} total")
    idx = substream(*key_path(seed)).permutation(n)
    return SplitResult(train=arr[idx[:n_train]], test=arr[idx[n_train:]])


def _sorted_sample(train, k: int) -> np.ndarray:
    """Sorted copy of a fit sample, checked for size, finiteness and spread."""
    arr = np.asarray(train, dtype=float)
    if k < 1:
        raise DomainError(f"component count must be at least 1, got {k}")
    if arr.size < 10 * k:
        raise DomainError(f"need at least {10 * k} points to initialize k={k}, got {arr.size}")
    xs = np.sort(arr)
    # -inf sorts first, +inf and NaN last
    if not (np.isfinite(xs[0]) and np.isfinite(xs[-1])):
        raise DomainError("fit sample must be finite")
    if xs[-1] - xs[0] <= 0.0:
        raise DomainError("sample is a single repeated value; no scale information")
    return xs


def _initializer(xs: np.ndarray, k: int) -> tuple[np.ndarray, float, float, float]:
    """Mid-quantile locations, common scale, IQR and scale floor of a sorted sample."""
    q1, q3 = np.quantile(xs, [0.25, 0.75])
    iqr = float(q3 - q1)
    floor = _SCALE_FLOOR_FRAC * float(xs[-1] - xs[0])
    locations = np.quantile(xs, [(j - 0.5) / k for j in range(1, k + 1)])
    # sd of a unit-scale logistic is pi/sqrt(3); spread the IQR across components
    scale = max(iqr * (np.sqrt(3.0) / np.pi) / k, floor)
    return locations, scale, iqr, floor


def init_params(train, k: int) -> MixtureModel:
    """Initializer: components at the k mid-quantiles, IQR-derived scales, uniform weights."""
    locations, scale, _, _ = _initializer(_sorted_sample(train, k), k)
    return MixtureModel(np.full(k, 1.0 / k), locations, np.full(k, scale))


def _unpack(theta: np.ndarray, k: int, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    logits = np.concatenate([theta[: k - 1], [0.0]])
    logits = np.clip(logits, -_LOGIT_CLIP, _LOGIT_CLIP)
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    locations = theta[k - 1 : 2 * k - 1]
    scales = np.maximum(np.exp(np.clip(theta[2 * k - 1 :], -_LOG_SCALE_CLIP, _LOG_SCALE_CLIP)), floor)
    return weights, locations, scales


def _neg_loglik(theta: np.ndarray, xs: np.ndarray, k: int, floor: float) -> tuple[float, np.ndarray]:
    """Negative log-likelihood and its gradient in the unconstrained parameters.

    With z = (x - mu) / s and responsibilities r = softmax over components of
    log w + log f: d/dmu = -sum r tanh(z/2) / s, d/dlog s = -sum r (z tanh(z/2) - 1)
    and d/dlogit = -(sum r - n w).  Where a clip or the scale floor binds, the
    objective is flat in that coordinate and its gradient is 0.
    """
    # Hot path: about 25 calls per start.  Arrays are k-by-n so that every
    # reduction runs over contiguous rows or across whole rows; an n-by-k
    # layout makes the per-point max and sums several times slower.
    weights, locations, scales = _unpack(theta, k, floor)
    z = xs - locations[:, None]
    z /= scales[:, None]
    az = np.abs(z)
    u = np.exp(-az)
    # lp = log w + log f = log w - log s - |z| - 2 log1p(e^-|z|), exact in both tails
    lp = np.log1p(u)
    lp *= -2.0
    lp -= az
    lp += (np.log(weights) - np.log(scales))[:, None]
    m = lp.max(axis=0)
    lp -= m
    np.exp(lp, out=lp)
    total = lp.sum(axis=0)
    f = -float(m.sum() + np.log(total).sum())
    r = lp
    r /= total
    # tanh(|z|/2) = (1 - e^-|z|) / (1 + e^-|z|), then r * tanh(|z|/2) in place
    th = 1.0 - u
    u += 1.0
    th /= u
    th *= r
    r_sum = r.sum(axis=1)
    g_logit = xs.size * weights[:-1] - r_sum[:-1]
    g_logit[np.abs(theta[: k - 1]) > _LOGIT_CLIP] = 0.0
    g_loc = -np.copysign(th, z).sum(axis=1) / scales
    g_log_scale = r_sum - (th * az).sum(axis=1)
    log_scales = theta[2 * k - 1 :]
    g_log_scale[(log_scales <= np.log(floor)) | (log_scales > _LOG_SCALE_CLIP)] = 0.0
    return f, np.concatenate([g_logit, g_loc, g_log_scale])


def fit_mixture(train, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit a k-component logistic mixture by L-BFGS-B over several starts.

    The starts run on the standardized sample (see the module docstring).
    Restart 0 runs from the quantile initializer and, for k > 1, from two
    variants of it with the top component moved into the right tail; each
    further restart runs once from a jittered initializer.  A later start
    replaces the best so far only if it lowers the negative log-likelihood,
    in data units, by more than cfg.tol * max(1, |f|), so float noise never
    changes the winner.

    Parameters
    ----------
    train : array-like of float
        Scores to fit; at least 10 * cfg.k points.
    cfg : FitConfig
        Component count, iteration budget (L-BFGS-B maxiter), tolerance
        (L-BFGS-B gtol = tol * max(1, |f|) at the start and ftol = tol**2,
        both on the standardized objective), restart count, and seed.

    Returns
    -------
    FitResult
        Best converged model in canonical component order, its
        log-likelihood, the restart that produced it (ties go to the lowest
        index, so reruns are reproducible), and the convergence record.

    Raises
    ------
    FitFailureError
        If no start ends at a finite, converged optimum; carries the best
        finite start so far, in data units.
    """
    k = cfg.k
    xs = _sorted_sample(train, k)
    # Standardize once (see the module docstring): a well-scaled problem
    # takes about a third fewer L-BFGS-B evaluations.
    q1, center, q3 = np.quantile(xs, [0.25, 0.5, 0.75])
    unit = float(q3 - q1) or float(xs[-1] - xs[0])
    zs = (xs - center) / unit
    # the data-unit objective is the standardized one plus n log(unit)
    shift = float(zs.size * np.log(unit))
    locations, scale, iqr, floor = _initializer(zs, k)
    theta0 = np.concatenate([np.zeros(k - 1), locations, np.full(k, np.log(scale))])

    starts = [(0, theta0)]
    for q in _TOP_START_QUANTILES if k > 1 else ():
        theta = theta0.copy()
        theta[2 * k - 2] = np.quantile(zs, q)
        starts.append((0, theta))
    for r in range(1, cfg.restarts):
        theta = theta0.copy()
        jitter = substream(*cfg.seed, r, RESTART)
        theta[: k - 1] += jitter.normal(0.0, 0.5, size=k - 1)
        theta[k - 1 : 2 * k - 1] += jitter.normal(0.0, 0.25 * max(iqr, floor), size=k)
        theta[2 * k - 1 :] += jitter.normal(0.0, 0.25, size=k)
        starts.append((r, theta))

    runs = []  # (restart, OptimizeResult, data-unit objective) per start
    for r, theta in starts:
        f0 = _neg_loglik(theta, zs, k, floor)[0]
        res = minimize(
            _neg_loglik,
            theta,
            args=(zs, k, floor),
            method="L-BFGS-B",
            jac=True,
            # gtol is relative to the objective's size: at tol * n, 1 in 90
            # starts on 20,000-point samples ended in a line search lost in
            # float noise.  The relative-reduction test runs at tol**2: at
            # tol it stops on slow ridges up to 7e-5 short of the optimum.
            options=dict(maxiter=cfg.max_iter, ftol=cfg.tol**2, gtol=cfg.tol * max(1.0, abs(f0))),
        )
        runs.append((r, res, float(res.fun) + shift))

    def data_model(theta: np.ndarray) -> MixtureModel:
        weights, locs, scales = _unpack(theta, k, floor)
        return MixtureModel(weights, center + unit * locs, unit * scales)

    best = None
    for r, res, f in runs:
        if not (res.success and np.isfinite(f)):
            continue
        if best is None or f < best[2] - cfg.tol * max(1.0, abs(best[2])):
            best = (r, res, f)
    if best is None:
        _, res, f = min(runs, key=lambda run: run[2] if np.isfinite(run[2]) else np.inf)
        raise FitFailureError(
            "no start converged to a finite optimum",
            best_model=data_model(res.x),
            best_log_likelihood=-f,
        )
    best_restart, res, f = best
    return FitResult(
        model=data_model(res.x),
        log_likelihood=-f,
        restart=best_restart,
        converged=all(run.success for _, run, _ in runs),
        nit=sum(int(run.nit) for _, run, _ in runs),
        nfev=sum(int(run.nfev) for _, run, _ in runs),
    )
