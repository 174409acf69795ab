"""Anderson-Darling goodness of fit for the Weibull family.

The statistic uses the standard order-statistic form

    A2 = -n - (1/n) * sum_{i=1..n} (2i - 1) * [ln F(x_(i)) + ln(1 - F(x_(n+1-i)))]

with F the fitted distribution function.  Because shape and scale are
estimated from the data, the null distribution of A2 is not the classical
tabulated one; the p-value comes from a parametric bootstrap that refits
both parameters on every resample.

The bootstrap works on blocks of resamples, one per row: a block's seeded
uniforms are drawn at once and transformed in place, the shape estimator's
row kernel refits the whole block, and the profile scale and the statistic
are computed for every row together.  A resample the method cannot refit,
or whose refit puts an observation at probability 0 or 1, counts as a
failed refit; the p-value is taken over the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._streams import STREAMS, seeded_uniforms
from .empirical_qf import SortedSample, _as_sorted_sample
from .errors import DomainError, _check_count
from .shape_estimators import (_ROW_KERNELS, _profile_scale_rows, _scaled_powers, fit_shape,
                               profile_scale)
from .weibull import WeibullParams, _from_uniforms

__all__ = ["GofResult", "ad_statistic", "ad_test"]

# Values (rows x sample size) per bootstrap block: 32K values make 256 KB
# matrices, so the few a kernel's root-finder pass holds stay in a 2 MB
# per-core L2 cache, and memory does not grow with the number of resamples.
_BLOCK_VALUES = 32 * 1024


@dataclass(frozen=True)
class GofResult:
    """Outcome of the bootstrap Anderson-Darling test."""

    statistic: float
    p_value: float
    beta_hat: float
    sigma_hat: float
    bootstrap_reps: int
    seed: int
    method: str
    failed_refits: int = 0

    def __str__(self) -> str:
        failed = f", {self.failed_refits} failed refits" if self.failed_refits else ""
        return (
            f"A2 = {self.statistic:.6g}, p = {self.p_value:.4g} "
            f"({self.bootstrap_reps} bootstrap replicates{failed}, method {self.method})"
        )


def _ad_rows(x_rows, beta, sigma, strict):
    """A2 of each sorted row against the Weibull(beta, sigma) of its row; NaN
    for a row with an observation at fitted probability 0 or 1 (or a NaN
    parameter), or with ``strict`` a DomainError.  (x / sigma)^beta comes
    from ``_scaled_powers``, so a row spanning more than the float range
    keeps the probabilities of its extreme observations."""
    n = x_rows.shape[1]
    with np.errstate(all="ignore"):
        z = -np.expm1(-_scaled_powers(x_rows, sigma, beta))
        bad = ~((z > 0.0) & (z < 1.0)).all(axis=1)
        if strict and bad.any():
            raise DomainError("fitted distribution puts an observation at probability 0 or 1")
        i = np.arange(1, n + 1, dtype=float)
        terms = (2.0 * i - 1.0) * (np.log(z) + np.log1p(-z[:, ::-1]))
        return np.where(bad, np.nan, -n - terms.sum(axis=1) / n)


def ad_statistic(sample: SortedSample, params: WeibullParams) -> float:
    """Anderson-Darling distance between a sample or raw data and a fitted Weibull."""
    beta, sigma = np.array([params.beta]), np.array([params.sigma])
    return float(_ad_rows(_as_sorted_sample(sample).values[None, :], beta, sigma, True)[0])


def _fit_both(sample: SortedSample, method: str) -> WeibullParams:
    beta = fit_shape(sample, method).beta_hat
    return WeibullParams(beta=beta, sigma=profile_scale(sample, beta))


def _bootstrap_block(beta, n, seed, reps, method):
    """Bootstrap statistics of replicates ``reps``, drawn at shape ``beta``
    and unit scale; NaN where a refit failed."""
    x_rows = _from_uniforms(seeded_uniforms((seed,), reps, n), WeibullParams(beta, 1.0))
    x_rows.sort(axis=1)
    beta = _ROW_KERNELS[method](x_rows, False)[0]
    return _ad_rows(x_rows, beta, _profile_scale_rows(x_rows, beta, False), False)


def ad_test(
    sample: SortedSample,
    bootstrap_reps: int = 999,
    seed: int = 0,
    method: str = "ml",
) -> GofResult:
    """Parametric-bootstrap Anderson-Darling test of the Weibull null.

    ``sample`` is a SortedSample or raw data.  Shape (by ``method``) and
    profile scale are estimated on the data, then on each of
    ``bootstrap_reps`` (at most 2**32) resamples drawn from the fitted
    shape; each resample is compared with its own refit.  That comparison
    does not depend on the scale, so the resamples are drawn at unit scale,
    and the bootstrap overflows only where the study does, at shapes below
    about 0.0051, however large the data.  Resample b
    is the inverse transform of the uniforms of
    ``Generator(PCG64(SeedSequence((seed, b))))``, so the result is
    reproducible and independent of evaluation order.  The resamples are
    drawn and refitted in blocks of rows: ``_streams.seeded_uniforms`` draws
    a block's streams, equal to NumPy's bit for bit, from one reused
    generator whose state it sets per resample, and the method's row kernel
    refits the block.

    A refit fails when the method cannot fit the resample (say, a resample
    with a zero for a method that needs positive data) or when the refit puts
    an observation at probability 0 or 1; ``failed_refits`` counts these.  The
    p-value is the proportion of the other bootstrap statistics exceeding the
    observed one, exceedances / (bootstrap_reps - failed_refits).  It is
    exactly 0 when no bootstrap statistic exceeds the observed one, and then
    reads as p < 1 / (bootstrap_reps - failed_refits).  Davison & Hinkley's
    (1 + exceedances) / (1 + bootstrap_reps - failed_refits), never 0, was
    not taken: it would move every reported p-value.  If every refit fails,
    DomainError is raised.
    """
    # replicate b draws from stream b
    _check_count(bootstrap_reps, 1, "bootstrap replicates", STREAMS)
    _check_count(seed, 0, "seed")
    sample = _as_sorted_sample(sample)
    fitted = _fit_both(sample, method)
    observed = ad_statistic(sample, fitted)
    n = sample.n
    block = max(1, _BLOCK_VALUES // n)
    exceed = failed = 0
    for start in range(0, bootstrap_reps, block):
        stats = _bootstrap_block(fitted.beta, n, seed,
                                 range(start, min(start + block, bootstrap_reps)), method)
        exceed += int(np.count_nonzero(stats > observed))
        failed += int(np.count_nonzero(np.isnan(stats)))
    if failed == bootstrap_reps:
        raise DomainError(f"no bootstrap refit succeeded ({failed} failed)")
    return GofResult(
        statistic=observed,
        p_value=exceed / (bootstrap_reps - failed),
        beta_hat=fitted.beta,
        sigma_hat=fitted.sigma,
        bootstrap_reps=bootstrap_reps,
        seed=seed,
        method=method,
        failed_refits=failed,
    )
