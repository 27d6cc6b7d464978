"""Hypothesis strategies, a model comparison and a failing fit shared by the tests."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from tailratio import FitFailureError, MixtureModel, fit_mixture


def same_model(a: MixtureModel, b: MixtureModel) -> bool:
    """Exact equality of two models: the three parameter arrays, origin and feature count."""
    arrays = ("weights", "locations", "scales")
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in arrays) and (
        (a.origin, a.feature_count) == (b.origin, b.feature_count)
    )


def random_mixture(k: int, params) -> MixtureModel:
    """A k-component mixture from nine numbers in [0, 1]."""
    u = np.asarray(params)
    return MixtureModel(
        weights=(0.05 + u[:k]) / np.sum(0.05 + u[:k]),
        locations=-150.0 + 200.0 * u[3 : 3 + k],
        scales=0.5 + 30.0 * u[6 : 6 + k],
    )


def fit_failing_on(*reps, at=-1):
    """`fit_mixture` that fails on the study replicates `reps`: element `at` of a fit's key path.

    A fit's key path is its config's seed, and row i of a stacked fit has
    (*seed, i).  A study fits replicate r as row r of a stack keyed by its
    seed, so r is the last element; its bootstrap refits draw b as row b of
    a stack keyed (*seed, r, 0), which puts r at -3.  A failed row of a
    stack holds a FitFailureError, as in a real stacked fit.
    """
    def fit(train, cfg):
        if np.ndim(train) == 1:
            if cfg.seed[at] in reps:
                raise FitFailureError("stubbed failure")
            return fit_mixture(train, cfg)
        return [FitFailureError("stubbed failure") if (*cfg.seed, i)[at] in reps else result
                for i, result in enumerate(fit_mixture(train, cfg))]

    return fit


# k in {1, 2, 3}; locations in [-150, 50], scales in [0.5, 30.5]
MIXTURES = st.builds(
    random_mixture,
    st.sampled_from((1, 2, 3)),
    st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
)
