"""RBF kernel, its pairwise terms for SVGD, and bandwidth policies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HYBRID_SIGMA = 1e-10


@dataclass(frozen=True)
class RbfKernel:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")


@dataclass(frozen=True)
class BandwidthPolicy:
    """How sigma is chosen from the live particle count.

    Variants: "fixed" (explicit sigma), "inverse_n_squared" (sigma = 1/N^2,
    re-resolved whenever N changes), "hybrid_small" (sigma = 1e-10, used when
    continuing from a concentrated init).
    """

    variant: str
    sigma: float | None = None

    def __post_init__(self):
        if self.variant not in ("fixed", "inverse_n_squared", "hybrid_small"):
            raise ValueError(f"unknown bandwidth variant {self.variant!r}")
        if self.variant == "fixed":
            if self.sigma is None or not (np.isfinite(self.sigma) and self.sigma > 0):
                raise ValueError("fixed policy needs a positive finite sigma")
        elif self.sigma is not None:
            raise ValueError(f"{self.variant} takes no sigma parameter")

    @staticmethod
    def fixed(sigma: float) -> "BandwidthPolicy":
        return BandwidthPolicy("fixed", float(sigma))

    @staticmethod
    def inverse_n_squared() -> "BandwidthPolicy":
        return BandwidthPolicy("inverse_n_squared")

    @staticmethod
    def hybrid_small() -> "BandwidthPolicy":
        return BandwidthPolicy("hybrid_small")


def resolve_bandwidth(policy: BandwidthPolicy, n: int) -> float:
    """Concrete sigma for a set of n live particles."""
    if n < 1:
        raise ValueError("particle count must be >= 1")
    if policy.variant == "fixed":
        return float(policy.sigma)
    if policy.variant == "inverse_n_squared":
        return 1.0 / float(n) ** 2
    return HYBRID_SIGMA


def pairwise_kernel(kernel_sigma: float, positions: np.ndarray):
    """Gram matrix K, pairwise differences, and squared distances.

    Returns (K, diff, sqdist) with diff[i, j] = x_i - x_j. Shared by the SVGD
    update and the KSD diagnostic so both see identical floating-point values.
    """
    diff = positions[:, None, :] - positions[None, :, :]
    sqdist = np.einsum("ijk,ijk->ij", diff, diff)
    kmat = np.exp(-sqdist / (2.0 * kernel_sigma**2))
    return kmat, diff, sqdist
