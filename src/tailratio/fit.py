"""Maximum-likelihood fitting of logistic mixtures with a 75/25 split protocol.

The optimizer is a damped Newton method with the exact Hessian (Nocedal &
Wright 2006, *Numerical Optimization*, ch. 3) over an unconstrained
reparameterization: k-1 weight logits (softmax, last logit pinned to 0),
locations, and log scales.  All starts of one fit step together as one
(starts, k, n) problem, and so do the starts of every sample in a stack of
equal-size samples, in chunks of whole samples; each start is the same bits
alone or in any batch, so a sample fits to the same bits alone or stacked.
Each sample runs in standardized coordinates: it is sorted and mapped once to
z = (x - median) / IQR (the range when the IQR is 0), so locations are O(1)
and log scales near 0 whatever the score units, and the winner is mapped
back (location = median + IQR * z-location, scale = IQR * z-scale,
log-likelihood = z-log-likelihood - n log IQR).  The map makes the fit
affine-equivariant up to rounding and makes a step of fixed size mean the
same for any scores.  Each fit runs a few deterministic starts from the
quantile initializer plus one start per extra restart; restarts jitter the
initializer with an independent substream per restart, keyed
(*seed, restart, RESTART), where row i of a stack takes (*seed, i) for seed,
so results do not depend on scheduling or on which samples share a stack.
A sample of at least 8,000 points is fitted coarse to fine: every start
first converges on about 2,000 of its order statistics, and then each
distinct coarse optimum is polished once on all n points, so the reported
fit is still a converged optimum of the full likelihood.  Smaller samples
take the full-sample descent alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
# Newton iteration cap per start.  It never binds: the longest start took
# 13 iterations over ten 20,000-point fits at restarts 5, and 51 over 300
# fits of 1,500-point study splits (k = 1-3, restarts 5).
_MAX_ITER = 2000
# Stopping and restart-winner tolerance; the gradient test and the winner
# rule in `fit_mixture` are tuned at this value.
_TOL = 1e-8
# Newton step: Hessian eigenvalues floored at this fraction of the largest,
# the step capped at this size in every coordinate, the Armijo constant, and
# the halvings a start may take in one line search.  With a cap of 2.0 the
# search ended in a worse mode than L-BFGS-B on 9 of 2,800 criterion-7/8
# training splits (data seeds 0-2), by 0.035-0.93 in log-likelihood; at 0.5 it
# matched on all of them.
_EIG_FLOOR = 1e-8
_MAX_STEP = 0.5
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# The sufficient-decrease test allows this much of eps (n + |f|) above f: the
# objective's rounding.  Its spread under perturbations of 1e-13 near an
# optimum was 2.0e-14 at n = 40 (|f| = 7) and 1.4e-12 at n = 1,500 (|f| = 2,057),
# 1.6-2.4 eps (n + |f|); without the allowance, a start whose last Newton step
# gained less than that spread kept halving it, and 2 of 300 stress fits ran
# to the iteration cap.
_ROUNDING = 16.0
# Values (starts times points) one `minimize` call steps together; a stack of
# samples is fitted in chunks of as many whole samples as fit, and always at
# least one.  Its workspace takes (6k + 2) * 8 bytes a value, 7.3 MB at k = 2.
# On `pvalue_study(reps=200)` of criterion 8's data (3 starts of 1,500 points
# a sample; one core of a 2-core x86_64 host, numpy 2.4.6) a replicate took
# 5.5-5.6 ms at 2**14, 4.8-5.0 at 2**16, 5.0-5.7 at 2**18 and 5.8-6.4 at
# 2**20, and the study's traced peak grew from 18.8 MB at 2**16 to 126 MB at
# 2**20.  Fitting one sample at a time, the study took 7.8-8.7 ms a replicate.
_CHUNK_VALUES = 2**16
# Coarse-to-fine descent (see `_descend`) for samples of at least
# 4 * _COARSE_POINTS points, and the distance within which two coarse optima
# of one sample count as one.  Median k = 2 fit times, full descent against
# coarse to fine with the threshold moved (30 samples each of the reference
# and contaminated mixtures, restarts 1 / 3; one core of a 2-core x86_64
# host, numpy 2.4.6): 7-12 / 13-18 ms against 8-13 / 12-19 at n = 3,000,
# 10-13 / 20 against 9-12 / 16-17 at 4,000, 16-17 / 22-28 against 10-13 /
# 13-17 at 6,000, 15-21 / 27-30 against 10-14 / 12-19 at 8,000, and about
# 42 ms against 13 (restarts 1) at 20,000.  Time breaks even near
# 2 * _COARSE_POINTS; the threshold sits at 4x so that a coarse sample has at
# least 2,000 points and no study split or bootstrap refit changes path.
# Over 1,600 k = 2 fits of 8,000 and 20,000 points no log-likelihood moved
# by more than 6e-10 against the full descent.
_COARSE_POINTS = 2000
_MERGE_TOL = 1e-6


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

    `converged` is true when every start of this fit stopped on the gradient
    test; `nit` and `nfev` are Newton steps and objective evaluations (each
    with its gradient and Hessian) summed over this fit's starts, so a fit
    in a stack counts the same as alone.  In a coarse-to-fine fit they add
    each start's coarse steps and evaluations, on about 2,000 points, to
    its full-sample ones; a start merged into an earlier one counts only
    its coarse ones.
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


def _sorted_samples(train, k: int) -> np.ndarray:
    """Sorted rows of one fit sample (1-D) or of a stack of them (2-D), each checked for size, finiteness and spread."""
    arr = np.asarray(train, dtype=float)
    if k < 1:
        raise DomainError(f"component count must be at least 1, got {k}")
    if arr.ndim > 2 or arr.ndim == 2 and arr.shape[0] == 0:
        raise DomainError(f"need one sample or a nonempty stack of them, got shape {arr.shape}")
    n = arr.shape[-1] if arr.ndim else arr.size
    if n < 10 * k:
        raise DomainError(f"need at least {10 * k} points to initialize k={k}, got {n}")
    xs = np.sort(np.atleast_2d(arr), axis=1)

    def check(bad: np.ndarray, message: str) -> None:
        if bad.any():
            raise DomainError(f"row {int(np.argmax(bad))}: {message}" if arr.ndim == 2 else message)

    # -inf sorts first, +inf and NaN last
    check(~(np.isfinite(xs[:, 0]) & np.isfinite(xs[:, -1])), "fit sample must be finite")
    check(xs[:, -1] - xs[:, 0] <= 0.0, "sample is a single repeated value; no scale information")
    return xs


def _initializer(xs: np.ndarray, k: int, extra=()) -> tuple[np.ndarray, ...]:
    """Mid-quantile locations, common scale, IQR, scale floor and the `extra` quantiles of each sorted row.

    All the quantiles come from one `np.quantile` call, which gives the same
    bits as one call per row and quantile.  Locations and extras have one
    row per sample; the scale, IQR and floor one entry.
    """
    mids = [(j - 0.5) / k for j in range(1, k + 1)]
    q = np.quantile(xs, [0.25, 0.75, *mids, *extra], axis=1)
    iqr = q[1] - q[0]
    floor = _SCALE_FLOOR_FRAC * (xs[:, -1] - xs[:, 0])
    # sd of a unit-scale logistic is pi/sqrt(3); spread the IQR across components
    scale = np.maximum(iqr * (np.sqrt(3.0) / np.pi) / k, floor)
    return q[2 : 2 + k].T, scale, iqr, floor, q[2 + k :].T


def init_params(train, k: int) -> MixtureModel:
    """Initializer of one sample: components at the k mid-quantiles, IQR-derived scales, uniform weights."""
    if np.ndim(train) != 1:
        raise DomainError(f"need one flat sample, got shape {np.shape(train)}")
    locations, scale, *_ = _initializer(_sorted_samples(train, k), k)
    return MixtureModel(np.full(k, 1.0 / k), locations[0], np.full(k, scale[0]))


def _unpack(theta: np.ndarray, k: int, floor: float | np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, locations and scales of one parameter vector or of each row of a stack.

    `floor` is the scale floor: one number, or one per row.
    """
    logits = np.zeros((*theta.shape[:-1], k))
    np.minimum(theta[..., : k - 1], _LOGIT_CLIP, out=logits[..., : k - 1])
    np.maximum(logits, -_LOGIT_CLIP, out=logits)
    logits -= logits.max(axis=-1, keepdims=True)
    weights = np.exp(logits)
    weights /= weights.sum(axis=-1, keepdims=True)
    locations = theta[..., k - 1 : 2 * k - 1]
    # below -_LOG_SCALE_CLIP the scale is at the floor anyway
    scales = np.exp(np.minimum(theta[..., 2 * k - 1 :], _LOG_SCALE_CLIP))
    np.maximum(scales, np.expand_dims(floor, -1), out=scales)
    return weights, locations, scales


class _Workspace:
    """Buffers for `minimize` on a chunk of up to `s` starts of k-by-n problems, allocated once per chunk.

    Fresh k-by-n temporaries on every call cost more than the arithmetic at
    large n: past glibc's mmap threshold each one is mapped and unmapped
    again.  A `tailratio fit` of 20,000 scores took about 24,000 minor page
    faults (some 330 per evaluation) with them, and about 1,000 with this.
    `point_grad` holds each point's gradient of log p, one row per parameter,
    with the location rows times the scale; `sample` holds the active
    starts' samples.
    """

    def __init__(self, s: int, k: int, n: int) -> None:
        self.z, self.lp, self.scratch = np.empty((3, s, k, n))
        self.point_grad = np.empty((s, 3 * k - 1, n))
        self.m, self.total, self.sample = np.empty((3, s, n))


@lru_cache
def _curvature_index(k: int) -> np.ndarray:
    """Flat Hessian positions of the blocks `_neg_loglik` subtracts, in the order it lists them."""
    size = 3 * k - 1
    logit, loc, log_scale = np.arange(k - 1), np.arange(k - 1, 2 * k - 1), np.arange(2 * k - 1, size)

    def block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return (rows[:, None] * size + cols).ravel()

    index = np.concatenate([
        block(logit, logit), block(logit, loc), block(loc, logit), block(logit, log_scale),
        block(log_scale, logit), loc * size + loc, loc * size + log_scale, log_scale * size + loc,
        log_scale * size + log_scale,
    ])
    index.flags.writeable = False  # shared by every call through the cache
    return index


def _neg_loglik(
    thetas: np.ndarray, xs: np.ndarray, k: int, floor: float | np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negative log-likelihood, its gradient and its Hessian at each row of `thetas`.

    With z = (x - mu) / s, t = tanh(z/2) and responsibilities r = softmax
    over components of log w + log f, the per-point gradient of log p is
    r - w in the logits, r t / s in mu and r (z t - 1) in log s; the
    gradient is minus its sum over points.  The Hessian is the sum over
    points of that gradient's outer product, minus the responsibility-weighted
    curvature of each component: with e = 1.5 t^2 - 0.5 its own block is
    sum r e / s^2, (sum r e z - 2 sum r t) / s and sum r - 3 sum r z t +
    sum r e z^2, and the logit blocks follow from the softmax.  Where a clip
    or the scale floor binds, the objective is flat in that coordinate and
    its gradient, Hessian row and Hessian column are 0.  `xs` holds one
    sorted n-point sample per row of `thetas`, and `floor` one scale floor
    per row; a single sample or floor serves every row.  Every k-by-n and
    n-sized intermediate lives in `work`, which must match k and n and hold
    at least len(thetas) starts.  Each row's numbers are the same bits
    whichever other rows share the call.
    """
    # Arrays are starts-by-k-by-n so that every reduction runs over
    # contiguous rows or across whole rows.  Sums of products go through
    # einsum, which runs in this thread, not through a threaded BLAS.
    a, n = thetas.shape[0], xs.shape[-1]
    weights, locations, scales = _unpack(thetas, k, floor)
    z, lp, scratch, point_grad = work.z[:a], work.lp[:a], work.scratch[:a], work.point_grad[:a]
    m, total = work.m[:a], work.total[:a]
    g_logit, g_loc, g_log_scale = point_grad[:, : k - 1], point_grad[:, k - 1 : 2 * k - 1], point_grad[:, 2 * k - 1 :]
    np.subtract(xs[..., None, :], locations[..., None], out=z)
    z /= scales[..., None]
    az = np.abs(z, out=g_log_scale)
    u = np.exp(np.negative(az, out=scratch), out=g_loc)
    # lp = log w + log f = log w - log s - |z| - 2 log1p(e^-|z|), exact in both tails
    np.log1p(u, out=lp)
    lp *= -2.0
    lp -= az
    lp += np.log(weights / scales)[..., None]
    np.max(lp, axis=1, out=m)
    lp -= m[:, None]
    np.exp(lp, out=lp)
    np.sum(lp, axis=1, out=total)
    f = m.sum(axis=1)
    f += np.log(total, out=m).sum(axis=1)
    r = lp
    r /= total[:, None]
    # tanh(|z|/2) = (1 - e^-|z|) / (1 + e^-|z|)
    th = np.subtract(1.0, u, out=g_log_scale)
    u += 1.0
    th /= u
    re = np.square(th, out=scratch)
    re *= 1.5
    re -= 0.5
    re *= r
    rt = np.multiply(r, np.copysign(th, z, out=th), out=g_loc)
    rzt = np.multiply(rt, z, out=g_log_scale)
    rzt -= r
    np.subtract(r[:, : k - 1], weights[:, : k - 1, None], out=g_logit)
    sums = point_grad.sum(axis=2)  # sum r - n w, sum r t and sum r (z t - 1)
    re_sum = re.sum(axis=2)
    rez_sum = np.einsum("skn,skn->sk", re, z)
    re *= z
    rez2_sum = np.einsum("skn,skn->sk", re, z)

    unit = np.ones_like(sums)
    unit[:, k - 1 : 2 * k - 1] = 1.0 / scales
    grad = -sums * unit
    # one start at a time: past 8,192 points a batched einsum splits each row
    # where the batch's flattened buffer does, so its bits would depend on the batch
    hess = np.array([np.einsum("pn,qn->pq", g, g) for g in point_grad])
    hess *= unit[:, :, None] * unit[:, None, :]
    # minus the responsibility-weighted curvature, block by block
    w = weights[:, :-1]
    r_logit = sums[:, : k - 1] + n * w
    r_sum = np.concatenate([r_logit, n - r_logit.sum(axis=1, keepdims=True)], axis=1)
    rt_sum, rzt1_sum = sums[:, k - 1 : 2 * k - 1], sums[:, 2 * k - 1 :]
    logit_logit = (n * w - r_logit)[:, :, None] * w[:, None, :]
    logit_logit += logit_logit.transpose(0, 2, 1)
    logit_logit += np.eye(k - 1) * (r_logit - n * w)[:, None, :]
    own = np.eye(k)[:-1] - w[:, :, None]  # d log w_j / d logit_i
    logit_loc = own * (rt_sum / scales)[:, None, :]
    logit_log_scale = own * rzt1_sum[:, None, :]
    loc_log_scale = (rez_sum - 2.0 * rt_sum) / scales
    curvature = np.concatenate([
        logit_logit.reshape(a, -1), logit_loc.reshape(a, -1), logit_loc.transpose(0, 2, 1).reshape(a, -1),
        logit_log_scale.reshape(a, -1), logit_log_scale.transpose(0, 2, 1).reshape(a, -1),
        re_sum / scales**2, loc_log_scale, loc_log_scale, rez2_sum - 3.0 * rzt1_sum - 2.0 * r_sum,
    ], axis=1)
    hess.reshape(a, -1)[:, _curvature_index(k)] -= curvature

    log_scales = thetas[:, 2 * k - 1 :]
    free = np.ones_like(grad)
    free[:, : k - 1] = np.abs(thetas[:, : k - 1]) <= _LOGIT_CLIP
    free[:, 2 * k - 1 :] = (log_scales > np.log(np.expand_dims(floor, -1))) & (log_scales <= _LOG_SCALE_CLIP)
    grad *= free
    hess *= free[:, :, None] * free[:, None, :]
    return -f, grad, hess


@dataclass(frozen=True, eq=False)
class Minimum:
    """Where each start of one `minimize` call stopped, with its counts and their totals.

    `converged` marks the starts that stopped on the gradient test;
    `start_nit` counts each start's Newton steps and `start_nfev` its
    objective evaluations (each with its gradient and Hessian), coarse
    and full phases together when `_descend` ran both.  `nit`, `nfev` and
    `success` sum and join them over all starts.
    """

    x: np.ndarray
    fun: np.ndarray
    converged: np.ndarray
    start_nit: np.ndarray
    start_nfev: np.ndarray

    @property
    def nit(self) -> int:
        """Newton steps summed over starts."""
        return int(self.start_nit.sum())

    @property
    def nfev(self) -> int:
        """Objective evaluations summed over starts."""
        return int(self.start_nfev.sum())

    @property
    def success(self) -> bool:
        """True when every start converged."""
        return bool(self.converged.all())


def _newton_steps(grad: np.ndarray, hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified-Newton direction per start, and its slope grad . step.

    The Hessian's eigenvalues are replaced by their absolute values, floored
    at _EIG_FLOOR of the largest, so the direction descends where the
    Hessian is indefinite; the step is then shortened to at most _MAX_STEP
    in any coordinate.
    """
    lam, vec = np.linalg.eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, _EIG_FLOOR * lam.max(axis=1, keepdims=True))
    step = -np.einsum("spq,sq->sp", vec, np.einsum("spq,sp->sq", vec, grad) / lam)
    step *= np.minimum(1.0, _MAX_STEP / np.abs(step).max(axis=1))[:, None]
    return step, np.einsum("sp,sp->s", grad, step)


def minimize(
    thetas: np.ndarray, xs: np.ndarray, k: int, floor: float | np.ndarray, maxiter: int = _MAX_ITER
) -> Minimum:
    """Damped Newton from each row of `thetas` on the negative log-likelihood of its sorted sample.

    `xs` holds one n-point sample per row of `thetas` and `floor` one scale
    floor per row; a single sample or floor serves every row.  All starts
    step together as one batch, and each is the same bits alone or in any
    batch.  A start takes the modified-Newton step of `_newton_steps`,
    halved until it meets the Armijo condition (sufficient decrease
    _ARMIJO, up to the objective's rounding), and stops once the largest
    gradient entry is at most _TOL * max(1, |f0|), f0 its objective at the
    start.  It fails if it takes `maxiter` steps first, or if
    _MAX_HALVINGS halvings find no decrease.
    """
    x = np.array(thetas, dtype=float)
    starts, n = x.shape[0], np.shape(xs)[-1]
    floor = np.broadcast_to(floor, (starts,))
    work = _Workspace(starts, k, n)
    f, grad, hess = _neg_loglik(x, xs, k, floor, work)
    gtol = _TOL * np.maximum(1.0, np.abs(f))
    converged = np.abs(grad).max(axis=1) <= gtol
    active = ~converged & np.isfinite(f) & np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2))
    step, slope = np.zeros_like(x), np.zeros(starts)
    step[active], slope[active] = _newton_steps(grad[active], hess[active])
    alpha, iters, nfev = np.ones(starts), np.zeros(starts, dtype=int), np.ones(starts, dtype=int)
    while active.any():
        idx = np.flatnonzero(active)
        trial = x[idx] + alpha[idx, None] * step[idx]
        # a shared sample serves any subset of starts as it is, and a stack all of them
        if np.ndim(xs) == 1 or idx.size == starts:
            sample = xs
        else:
            sample = np.take(xs, idx, axis=0, out=work.sample[: idx.size])
        f_t, grad_t, hess_t = _neg_loglik(trial, sample, k, floor[idx], work)
        nfev[idx] += 1
        rounding = _ROUNDING * np.finfo(float).eps * (n + np.abs(f[idx]))
        ok = f_t <= f[idx] + _ARMIJO * alpha[idx] * slope[idx] + rounding
        moved = idx[ok]
        x[moved], f[moved], grad[moved] = trial[ok], f_t[ok], grad_t[ok]
        iters[moved] += 1
        done = np.abs(grad[moved]).max(axis=1) <= gtol[moved]
        converged[moved[done]] = True
        stop = done | (iters[moved] >= maxiter)
        active[moved[stop]] = False
        going = moved[~stop]
        if going.size:
            step[going], slope[going] = _newton_steps(grad[going], hess_t[ok][~stop])
        alpha[going] = 1.0
        short = idx[~ok]
        alpha[short] *= 0.5
        active[short[alpha[short] < 0.5**_MAX_HALVINGS]] = False
    return Minimum(x, f, converged, iters, nfev)


def _per_start(zs: np.ndarray, s: int) -> np.ndarray:
    """Each sample of a chunk once per start, or the one sample of a chunk of one, shared with no copies."""
    return zs[0] if zs.shape[0] == 1 else np.repeat(zs, s, axis=0)


def _descend(thetas: np.ndarray, zs: np.ndarray, floor: np.ndarray, k: int) -> Minimum:
    """`minimize` from the starts of a chunk of samples, coarse to fine when the samples are large.

    `thetas` is samples by starts by parameters, `zs` the sorted standardized
    samples and `floor` their scale floors; the result has one row per start,
    a sample's starts adjacent.  Samples of fewer than 4 * _COARSE_POINTS
    points take one `minimize` call.  Larger ones first run every start on
    the middle order statistic of each stratum of n // _COARSE_POINTS points,
    at the full sample's scale floor.  A start whose coarse run converged
    within _MERGE_TOL of an earlier kept start of the same sample, in every
    parameter, takes that start's full-sample result; every other start is
    polished on all n points, from where its coarse run ended, or from where
    it began if that end is not finite.  A merged start counts only its
    coarse steps and evaluations.
    """
    c, s, p = thetas.shape
    n = zs.shape[1]
    floors = np.repeat(floor, s)
    x0 = thetas.reshape(-1, p)
    if n < 4 * _COARSE_POINTS:
        return minimize(x0, _per_start(zs, s), k, floors)
    stride = n // _COARSE_POINTS
    coarse = minimize(x0, _per_start(zs[:, stride // 2 :: stride], s), k, floors)
    finite = np.isfinite(coarse.fun) & np.isfinite(coarse.x).all(axis=1)
    x = np.where(finite[:, None], coarse.x, x0)
    # twin[j] is the start whose full-sample result start j takes: itself, or an earlier start of its sample
    twin = np.arange(c * s)
    for sample in range(c):
        kept: list[int] = []
        for j in range(sample * s, (sample + 1) * s):
            if coarse.converged[j] and finite[j]:
                twin[j] = next((i for i in kept if np.abs(x[j] - x[i]).max() <= _MERGE_TOL), j)
                if twin[j] == j:
                    kept.append(j)
    polish = np.flatnonzero(twin == np.arange(c * s))
    full = minimize(x[polish], zs[0] if c == 1 else zs[polish // s], k, floors[polish])
    fun, converged = np.empty(c * s), np.empty(c * s, dtype=bool)
    x[polish], fun[polish], converged[polish] = full.x, full.fun, full.converged
    nit, nfev = coarse.start_nit.copy(), coarse.start_nfev.copy()
    nit[polish] += full.start_nit
    nfev[polish] += full.start_nfev
    return Minimum(x[twin], fun[twin], converged[twin], nit, nfev)


def fit_mixture(train, cfg: FitConfig = FitConfig()) -> FitResult | list[FitResult | FitFailureError]:
    """Fit a k-component logistic mixture by damped Newton over several starts.

    The starts run on the standardized sample (see the module docstring).
    Restart 0 runs from the quantile initializer and, for k > 1, from two
    variants of it with the top component moved into the right tail; each
    further restart runs once from a jittered initializer.  The starts go
    to `minimize` together: each steps along its modified-Newton direction
    (the Hessian's eigenvalues made positive, the step at most 0.5 in any
    coordinate), halves the step until the objective falls enough, and
    stops once its largest gradient entry is at most 1e-8 * max(1, |f0|),
    f0 its standardized objective at the start.  A later start
    replaces the best so far only if it lowers the negative log-likelihood,
    in data units, by more than 1e-8 * max(1, |f|), so float noise never
    changes the winner.

    A sample of at least 4 * _COARSE_POINTS (8,000) points is fitted coarse
    to fine (see `_descend`): every start first runs on the middle order
    statistic of each stratum of n // _COARSE_POINTS points, and only the
    starts whose coarse optima differ are then polished on all n points,
    with the same gradient test.  A start whose coarse optimum is within
    _MERGE_TOL of an earlier start's takes that start's result, which the
    winner rule would keep over its own anyway.

    A stack of samples is one `minimize` call per chunk of whole samples,
    up to _CHUNK_VALUES starts times points (at least one sample).  Row i
    fits to the same bits as fitting it alone under
    `replace(cfg, seed=(*cfg.seed, i))`.

    Parameters
    ----------
    train : array-like of float
        Scores to fit, at least 10 * cfg.k points: one sample (1-D), or a
        stack of equal-size samples (2-D), one per row.
    cfg : FitConfig
        Component count, restart count, and seed.

    Returns
    -------
    FitResult, or a list with one entry per row for a stack
        Best converged model in canonical component order, its
        log-likelihood, the restart that produced it (ties go to the lowest
        index, so reruns are reproducible), and the convergence record.  A
        row whose fit fails holds the FitFailureError that fitting it alone
        raises.

    Raises
    ------
    FitFailureError
        If no start of a single sample ends at a finite, converged optimum;
        carries the best finite start so far, in data units.
    """
    k = cfg.k
    xs = _sorted_samples(train, k)
    m, n = xs.shape
    stacked = np.ndim(train) == 2
    keys = [(*cfg.seed, i) for i in range(m)] if stacked else [cfg.seed]
    # Standardize once (see the module docstring).
    q1, center, q3 = np.quantile(xs, [0.25, 0.5, 0.75], axis=1)
    unit = np.where(q3 > q1, q3 - q1, xs[:, -1] - xs[:, 0])
    zs = (xs - center[:, None]) / unit[:, None]
    # the data-unit objective is the standardized one plus n log(unit)
    shift = n * np.log(unit)
    locations, scale, iqr, floor, tops = _initializer(zs, k, _TOP_START_QUANTILES if k > 1 else ())
    theta0 = np.concatenate([np.zeros((m, k - 1)), locations, np.repeat(np.log(scale)[:, None], k, axis=1)], axis=1)

    starts = [theta0]
    for top in tops.T:
        theta = theta0.copy()
        theta[:, 2 * k - 2] = top
        starts.append(theta)
    restarts = [0] * len(starts) + list(range(1, cfg.restarts))
    for r in range(1, cfg.restarts):
        theta = theta0.copy()
        for row, key, q, fl in zip(theta, keys, iqr, floor):
            jitter = substream(*key, r, RESTART)
            row[: k - 1] += jitter.normal(0.0, 0.5, size=k - 1)
            row[k - 1 : 2 * k - 1] += jitter.normal(0.0, 0.25 * max(q, fl), size=k)
            row[2 * k - 1 :] += jitter.normal(0.0, 0.25, size=k)
        starts.append(theta)
    # samples by starts by parameters, so that a sample's starts are adjacent
    thetas = np.stack(starts, axis=1)
    s = thetas.shape[1]

    def row_result(i: int, res: Minimum, at: slice) -> FitResult | FitFailureError:
        """Sample i's fit from its starts, `at` in the chunk's `minimize` result."""
        def data_model(theta: np.ndarray) -> MixtureModel:
            weights, locs, scales = _unpack(theta, k, floor[i])
            return MixtureModel(weights, center[i] + unit[i] * locs, unit[i] * scales)

        x, fun, converged = res.x[at], res.fun[at] + shift[i], res.converged[at]
        best = None
        for j, f in enumerate(fun.tolist()):
            if not (converged[j] and np.isfinite(f)):
                continue
            if best is None or f < best[1] - _TOL * max(1.0, abs(best[1])):
                best = (j, f)
        if best is None:
            j = int(np.argmin(np.where(np.isfinite(fun), fun, np.inf)))
            return FitFailureError(
                "no start converged to a finite optimum",
                best_model=data_model(x[j]),
                best_log_likelihood=-float(fun[j]),
            )
        j, f = best
        return FitResult(
            model=data_model(x[j]),
            log_likelihood=-f,
            restart=restarts[j],
            converged=bool(converged.all()),
            nit=int(res.start_nit[at].sum()),
            nfev=int(res.start_nfev[at].sum()),
        )

    results = []
    per_chunk = max(1, _CHUNK_VALUES // (s * n))
    for lo in range(0, m, per_chunk):
        hi = min(lo + per_chunk, m)
        res = _descend(thetas[lo:hi], zs[lo:hi], floor[lo:hi], k)
        for i in range(lo, hi):
            at = slice((i - lo) * s, (i - lo + 1) * s)
            results.append(row_result(i, res, at))
    if stacked:
        return results
    if isinstance(results[0], FitFailureError):
        raise results[0]
    return results[0]
