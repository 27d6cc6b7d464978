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
# L-BFGS-B iteration cap per start.  It never binds: the longest start took
# 28 iterations over ten 20,000-point fits at restarts 5, and 258 over 300
# fits of 1,500-point study splits (k = 1-3, restarts 5).
_MAX_ITER = 2000
# Stopping and restart-winner tolerance; the gtol, ftol and winner rules in
# `fit_mixture` are tuned at this value.
_TOL = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Fitting settings: component count, restarts, seed.

    `seed` is a key path (an int is the one-element path), stored as a tuple.
    """

    k: int = 2
    restarts: int = 5
    seed: Key = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", key_path(self.seed))
        if self.k < 1:
            raise DomainError(f"component count must be at least 1, got {self.k}")
        if self.restarts < 1:
            raise DomainError(f"restarts must be at least 1, got {self.restarts}")


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


class _Workspace:
    """Buffers for `_neg_loglik` on one k-by-n problem, allocated once per fit.

    Fresh k-by-n temporaries on every call cost more than the arithmetic at
    large n: past glibc's mmap threshold each one is mapped and unmapped
    again.  A `tailratio fit` of 20,000 scores took about 24,000 minor page
    faults (some 330 per evaluation) with them, and about 1,000 with this.
    """

    def __init__(self, k: int, n: int) -> None:
        self.z, self.az, self.u, self.lp, self.th, self.scratch = np.empty((6, k, n))
        self.m, self.total, self.log_total = np.empty((3, n))


def _neg_loglik(
    theta: np.ndarray, xs: np.ndarray, k: int, floor: float, work: _Workspace
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood and its gradient in the unconstrained parameters.

    With z = (x - mu) / s and responsibilities r = softmax over components of
    log w + log f: d/dmu = -sum r tanh(z/2) / s, d/dlog s = -sum r (z tanh(z/2) - 1)
    and d/dlogit = -(sum r - n w).  Where a clip or the scale floor binds, the
    objective is flat in that coordinate and its gradient is 0.  Every k-by-n
    and n-sized intermediate lives in `work`, which must match k and xs.size.
    """
    # Hot path: about 25 calls per start.  Arrays are k-by-n so that every
    # reduction runs over contiguous rows or across whole rows; an n-by-k
    # layout makes the per-point max and sums several times slower.
    weights, locations, scales = _unpack(theta, k, floor)
    z, az, u, lp, th, scratch = work.z, work.az, work.u, work.lp, work.th, work.scratch
    np.subtract(xs, locations[:, None], out=z)
    z /= scales[:, None]
    np.abs(z, out=az)
    np.exp(np.negative(az, out=scratch), out=u)
    # lp = log w + log f = log w - log s - |z| - 2 log1p(e^-|z|), exact in both tails
    np.log1p(u, out=lp)
    lp *= -2.0
    lp -= az
    lp += (np.log(weights) - np.log(scales))[:, None]
    m = np.max(lp, axis=0, out=work.m)
    lp -= m
    np.exp(lp, out=lp)
    total = np.sum(lp, axis=0, out=work.total)
    f = -float(m.sum() + np.log(total, out=work.log_total).sum())
    r = lp
    r /= total
    # tanh(|z|/2) = (1 - e^-|z|) / (1 + e^-|z|), then r * tanh(|z|/2) in place
    np.subtract(1.0, u, out=th)
    u += 1.0
    th /= u
    th *= r
    r_sum = r.sum(axis=1)
    g_logit = xs.size * weights[:-1] - r_sum[:-1]
    g_logit[np.abs(theta[: k - 1]) > _LOGIT_CLIP] = 0.0
    g_loc = -np.copysign(th, z, out=scratch).sum(axis=1) / scales
    g_log_scale = r_sum - np.multiply(th, az, out=scratch).sum(axis=1)
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
    in data units, by more than 1e-8 * max(1, |f|), so float noise never
    changes the winner.

    Parameters
    ----------
    train : array-like of float
        Scores to fit; at least 10 * cfg.k points.
    cfg : FitConfig
        Component count, restart count, and seed.

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

    work = _Workspace(k, zs.size)
    runs = []  # (restart, OptimizeResult, data-unit objective) per start
    for r, theta in starts:
        f0 = _neg_loglik(theta, zs, k, floor, work)[0]
        res = minimize(
            _neg_loglik,
            theta,
            args=(zs, k, floor, work),
            method="L-BFGS-B",
            jac=True,
            # gtol is relative to the objective's size: at _TOL * n, 1 in 90
            # starts on 20,000-point samples ended in a line search lost in
            # float noise.  The relative-reduction test runs at _TOL**2: at
            # _TOL it stops on slow ridges up to 7e-5 short of the optimum.
            options=dict(maxiter=_MAX_ITER, ftol=_TOL**2, gtol=_TOL * max(1.0, abs(f0))),
        )
        runs.append((r, res, float(res.fun) + shift))

    def data_model(theta: np.ndarray) -> MixtureModel:
        weights, locs, scales = _unpack(theta, k, floor)
        return MixtureModel(weights, center + unit * locs, unit * scales)

    best = None
    for r, res, f in runs:
        if not (res.success and np.isfinite(f)):
            continue
        if best is None or f < best[2] - _TOL * max(1.0, abs(best[2])):
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
