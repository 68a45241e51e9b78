"""CMA-ES baseline: (mu/mu_w, lambda) evolution strategy, Hansen defaults.

Serves both as a standalone optimizer and as the distribution-based half of
hybrid initialization, which is why the run returns the final search
Gaussian alongside the incumbent. Box constraints are handled by resampling
an out-of-box offspring up to 100 times, then clamping.

Random streams: 0 draws the initial mean, 1 drives offspring sampling.
Offspring are drawn as if one at a time: each try is one
standard_normal(d) row, offspring k takes tries until one lands in the box
(or its 100th try, clamped), and only then does offspring k + 1 start.
Sampling in blocks keeps that stream and those results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetTooSmall
from ..objective import BoxDomain, EvalCounter, Objective, evaluate, uniform_sample
from .base import RunResult, check_number, fold_block, split_streams

_RESAMPLE_TRIES = 100


@dataclass(frozen=True)
class CmaesParams:
    """popsize None: 4 + floor(3 ln d); sigma0 None: 0.3 x the widest box side."""

    popsize: int | None = None
    sigma0: float | None = None

    def __post_init__(self):
        check_number(self, "popsize", int, optional=True, minimum=2)
        check_number(self, "sigma0", float, optional=True, positive=True)


@dataclass
class CmaGaussian:
    """Final search distribution: N(mean, sigma^2 * cov)."""

    mean: np.ndarray
    sigma: float
    cov: np.ndarray


def default_popsize(d: int) -> int:
    return 4 + int(3 * math.log(d))


def sample_gaussian(gauss: CmaGaussian, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the search Gaussian (one eigendecomposition)."""
    eigvals, basis = np.linalg.eigh((gauss.cov + gauss.cov.T) / 2.0)
    scales = np.sqrt(np.maximum(eigvals, 0.0))
    z = rng.standard_normal((n, gauss.mean.shape[0]))
    return gauss.mean + gauss.sigma * (z * scales) @ basis.T


def _sample_offspring(
    mean: np.ndarray,
    sigma: float,
    basis: np.ndarray,
    scales: np.ndarray,
    lam: int,
    domain: BoxDomain,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw lam in-box offspring of N(mean, sigma^2 B diag(scales^2) B^T).

    Each round draws one row per offspring still missing. Every row is one
    try for the current offspring, so a round never draws past the last
    try the one-at-a-time loop would make. A try is accepted when it lies
    in the box or when it is its offspring's 100th failure in a row
    (clamped); the failure count carries over to the next round.
    """
    d = mean.shape[0]
    offspring = np.empty((lam, d))
    filled = 0
    failures = 0
    while filled < lam:
        z = rng.standard_normal((lam - filled, d))
        # the stacked product rounds each row as basis @ (scales * z_row) does
        candidates = mean + sigma * (basis @ (scales * z)[:, :, None])[:, :, 0]
        inside = ((candidates >= domain.lower) & (candidates <= domain.upper)).all(axis=1)
        if inside.all():
            offspring[filled:] = candidates
            return offspring
        for candidate, hit in zip(candidates, inside.tolist()):
            failures = 0 if hit else failures + 1
            if hit or failures == _RESAMPLE_TRIES:
                offspring[filled] = (candidate if hit else
                                     np.clip(candidate, domain.lower, domain.upper))
                filled += 1
                failures = 0
    return offspring


def cmaes_run(
    obj: Objective,
    params: CmaesParams,
    budget: int,
    seed: int,
    *,
    counter: EvalCounter | None = None,
    collect_diagnostics: bool = False,
) -> tuple[RunResult, CmaGaussian]:
    """Run CMA-ES under an evaluation budget.

    Returns the incumbent plus the final Gaussian so a caller can keep
    sampling from where the search ended.
    """
    counter = counter if counter is not None else EvalCounter()
    domain = obj.domain
    d = domain.d
    lam = params.popsize if params.popsize is not None else default_popsize(d)
    if budget - counter.count < lam:
        raise BudgetTooSmall(f"budget {budget} below one generation ({lam} evaluations)")

    # Hansen's default strategy parameters
    mu = lam // 2
    raw = math.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = 1.0 / float(np.sum(weights**2))
    cc = (4.0 + mueff / d) / (d + 4.0 + 2.0 * mueff / d)
    cs = (mueff + 2.0) / (d + mueff + 5.0)
    c1 = 2.0 / ((d + 1.3) ** 2 + mueff)
    cmu = min(1.0 - c1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((d + 2.0) ** 2 + mueff))
    damps = 1.0 + 2.0 * max(0.0, math.sqrt((mueff - 1.0) / (d + 1.0)) - 1.0) + cs
    chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
    ps_gain = math.sqrt(cs * (2.0 - cs) * mueff)
    pc_gain = math.sqrt(cc * (2.0 - cc) * mueff)
    hsig_bound = (1.4 + 2.0 / (d + 1.0)) * chi_n
    column_weights = weights[:, None]

    rng_init, rng_sample = split_streams(seed, 2)
    mean = uniform_sample(domain, 1, rng_init)[0]
    sigma = params.sigma0
    if sigma is None:
        sigma = 0.3 * float(np.max(domain.widths))
    cov = np.eye(d)
    ps = np.zeros(d)
    pc = np.zeros(d)

    result = RunResult(best_x=mean.copy(), best_f=np.inf, evals_used=0, iterations_done=0,
                       diagnostics=[] if collect_diagnostics else None)

    while counter.count + lam <= budget:
        cov = (cov + cov.T) / 2.0
        eigvals, basis = np.linalg.eigh(cov)
        eigvals = np.maximum(eigvals, 1e-30)
        scales = np.sqrt(eigvals)
        widest = scales.max()
        if (
            not math.isfinite(sigma)
            or sigma * widest < 1e-250
            or widest / scales.min() > 1e14
        ):
            break

        offspring = _sample_offspring(mean, sigma, basis, scales, lam, domain, rng_sample)
        fitness = evaluate(obj, offspring, counter)
        fold_block(result, offspring, fitness, lam)

        order = np.argsort(fitness, kind="stable")[:mu]
        selected = offspring[order]
        ys = (selected - mean) / sigma
        y_w = weights @ ys
        mean = mean + sigma * y_w

        inv_sqrt = (basis * (1.0 / scales)) @ basis.T
        ps = (1.0 - cs) * ps + ps_gain * (inv_sqrt @ y_w)
        ps_norm = math.sqrt(ps @ ps)  # np.linalg.norm's own formula
        correction = math.sqrt(1.0 - (1.0 - cs) ** (2 * result.iterations_done))
        hsig = 1.0 if ps_norm / correction < hsig_bound else 0.0
        pc = (1.0 - cc) * pc + hsig * pc_gain * y_w

        rank_mu = ys.T @ (column_weights * ys)
        cov = (
            (1.0 - c1 - cmu) * cov
            + c1 * (np.outer(pc, pc) + (1.0 - hsig) * cc * (2.0 - cc) * cov)
            + cmu * rank_mu
        )
        sigma = sigma * math.exp(min(1.0, (cs / damps) * (ps_norm / chi_n - 1.0)))

    result.evals_used = counter.count
    return result, CmaGaussian(mean=mean, sigma=sigma, cov=cov)
