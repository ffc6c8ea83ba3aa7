"""Noise families for the data-generating processes.

A NoiseSpec names a location-scale family member. Moments are computed
analytically (exactly, up to float rounding) and sampling is deterministic
given a generator, so the same spec is usable both as a simulation input
and as an oracle for the identification conditions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._converters import _as_float, _convert, _one_of

__all__ = ["FAMILIES", "THREE_POINT_PROBABILITIES", "THREE_POINT_SUPPORT", "DistributionError",
           "MomentReport", "NoiseSpec", "ica_condition_value"]

FAMILIES = ("gaussian", "laplace", "uniform", "generalized_normal", "discrete_symmetric")

# the discrete_symmetric law: three points with unit variance and zero mean
THREE_POINT_SUPPORT = (-math.sqrt(2.0), 0.0, math.sqrt(2.0))
THREE_POINT_PROBABILITIES = (0.25, 0.5, 0.25)

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# NoiseSpec field converters, the ones the noise syntax implies
_FIELDS = {"family": _one_of(FAMILIES), "location": _as_float, "scale": _as_float,
           "shape_beta": lambda v: None if v is None else _as_float(v)}


def _gennorm_log_moment(b: float, k: int) -> float:
    """log E[B^k] = log Gamma((k + 1)/b) - log Gamma(1/b) for even k, B the
    generalized normal's base member with shape b."""
    return math.lgamma((k + 1) / b) - math.lgamma(1.0 / b)


class DistributionError(ValueError):
    """Invalid noise specification or unusable request."""


@dataclass(frozen=True)
class MomentReport:
    """Population moments of a noise spec.

    variance describes the spec itself; fourth_moment and sixth_moment
    are E[z^4] and E[z^6] of the standardized variable z = (X - mean)/sd.
    Every family is symmetric, so E[z^3] = 0.
    """

    variance: float
    fourth_moment: float
    sixth_moment: float


@dataclass(frozen=True)
class NoiseSpec:
    """One member of a location-scale noise family.

    The variable is location + scale * B where B is the family's base
    member: standard normal, standard Laplace, uniform on
    [-sqrt(3), sqrt(3)], a generalized normal with density proportional to
    exp(-|x|^shape_beta), or, for discrete_symmetric, the three-point law
    on THREE_POINT_SUPPORT with THREE_POINT_PROBABILITIES.

    Every field goes through the converter its config spelling uses
    (family a known name, location, scale and shape_beta numbers, booleans
    refused), so a spec built in Python is refused where config text is.
    """

    family: str
    location: float = 0.0
    scale: float = 1.0
    shape_beta: Optional[float] = None

    def __post_init__(self):
        for name, convert in _FIELDS.items():
            object.__setattr__(self, name, _convert(name, convert, getattr(self, name),
                                                    DistributionError))
        if self.scale <= 0:
            raise DistributionError(f"scale must be positive, got {self.scale}")
        if self.family == "generalized_normal":
            if self.shape_beta is None or self.shape_beta <= 0:
                raise DistributionError("generalized_normal requires a shape_beta > 0")
            # E[B^6], the largest moment used, overflows for shape_beta below
            # about 0.0383; lgamma itself overflows below about 2.7e-305
            try:
                finite = _gennorm_log_moment(self.shape_beta, 6) < _LOG_FLOAT_MAX
            except OverflowError:
                finite = False
            if not finite:
                raise DistributionError(
                    f"bad value for 'shape_beta': {self.shape_beta!r} is too small, "
                    "its sixth moment is past float range")
        elif self.shape_beta is not None:
            raise DistributionError(f"shape_beta is only meaningful for generalized_normal")

    # ---- constructors ----

    @classmethod
    def gaussian(cls, location: float = 0.0, scale: float = 1.0) -> "NoiseSpec":
        return cls("gaussian", location, scale)

    @classmethod
    def laplace(cls, location: float = 0.0, scale: float = 1.0) -> "NoiseSpec":
        return cls("laplace", location, scale)

    @classmethod
    def uniform(cls, location: float = 0.0, scale: float = 1.0) -> "NoiseSpec":
        """Uniform on [location - sqrt(3)*scale, location + sqrt(3)*scale]."""
        return cls("uniform", location, scale)

    @classmethod
    def generalized_normal(cls, shape_beta: float, location: float = 0.0,
                           scale: float = 1.0) -> "NoiseSpec":
        return cls("generalized_normal", location, scale, shape_beta=shape_beta)

    @classmethod
    def three_point(cls, location: float = 0.0, scale: float = 1.0) -> "NoiseSpec":
        """Symmetric three-point distribution on {-sqrt(2), 0, sqrt(2)}."""
        return cls("discrete_symmetric", location, scale)

    # ---- base-member moments ----

    def _base_raw_moment(self, k: int) -> float:
        """E[B^k] for even k; every base member is symmetric about 0, so
        its odd moments vanish and its raw moments are central."""
        if self.family == "gaussian":
            return float(math.prod(range(1, k, 2)))  # (k-1)!!
        if self.family == "laplace":
            return float(math.factorial(k))
        if self.family == "uniform":
            # base is uniform on [-sqrt(3), sqrt(3)]
            return 3.0 ** (k // 2) / (k + 1)
        if self.family == "generalized_normal":
            return math.exp(_gennorm_log_moment(self.shape_beta, k))
        # three-point
        return float(sum(p * s**k for s, p in zip(THREE_POINT_SUPPORT, THREE_POINT_PROBABILITIES)))

    def mean(self) -> float:
        return self.location

    def variance(self) -> float:
        return self.scale**2 * self._base_raw_moment(2)

    def moments(self) -> MomentReport:
        """Analytic moment report from the base member's central moments."""
        var0 = self._base_raw_moment(2)
        if var0 <= 0:
            raise DistributionError("degenerate distribution: zero variance")
        return MomentReport(
            variance=self.variance(),
            fourth_moment=self._base_raw_moment(4) / var0**2,
            sixth_moment=self._base_raw_moment(6) / var0**3,
        )

    # ---- sampling ----

    def sample(self, size, rng) -> np.ndarray:
        """Draw samples of the given size (int or shape tuple).

        rng may be a Generator, SeedSequence, or int seed. Draw order per
        family is fixed, so samples are bitwise reproducible for a given
        generator state.
        """
        rng = np.random.default_rng(rng)
        if isinstance(size, (int, np.integer)):
            if size < 1:
                raise DistributionError("size must be at least 1")
        else:
            size = tuple(int(v) for v in size)
            if any(v < 1 for v in size):
                raise DistributionError("size entries must be at least 1")
        if self.family == "gaussian":
            return rng.normal(self.location, self.scale, size)
        if self.family == "laplace":
            return rng.laplace(self.location, self.scale, size)
        if self.family == "uniform":
            half = math.sqrt(3.0) * self.scale
            return rng.uniform(self.location - half, self.location + half, size)
        if self.family == "generalized_normal":
            # |B|^beta is Gamma(1/beta, 1); attach a fair sign, negative
            # where u < 0.5. Transformed in place: two arrays of the given
            # size, each value bitwise that of
            # location + scale * where(u < 0.5, -1, 1) * g ** (1 / beta)
            b = self.shape_beta
            x = rng.standard_gamma(1.0 / b, size)
            u = rng.random(size)
            x **= 1.0 / b  # keeps numpy's scalar-power fast paths, as g ** (1 / b) does
            x *= self.scale
            u -= 0.5
            np.copysign(x, u, out=x)
            x += self.location
            return x
        idx = rng.choice(len(THREE_POINT_SUPPORT), size=size,
                         p=np.asarray(THREE_POINT_PROBABILITIES))
        return self.location + self.scale * np.asarray(THREE_POINT_SUPPORT)[idx]

    # ---- transforms and densities ----

    def standardized(self) -> "NoiseSpec":
        """Same family member rescaled to zero mean and unit variance."""
        m = self.mean()
        v = self.variance()
        # ulp-tolerant fixed point so standardized() is idempotent
        if abs(m) <= 1e-15 and abs(v - 1.0) <= 4e-16:
            return self
        s = math.sqrt(v)
        return replace(self, location=(self.location - m) / s, scale=self.scale / s)

    def log_density(self, x) -> np.ndarray:
        """Pointwise log density. Discrete families have none."""
        if self.family == "discrete_symmetric":
            raise DistributionError("discrete family has no density")
        u = (np.asarray(x, dtype=float) - self.location) / self.scale
        if self.family == "gaussian":
            return -0.5 * u * u - 0.5 * math.log(2.0 * math.pi) - math.log(self.scale)
        if self.family == "laplace":
            return -np.abs(u) - math.log(2.0 * self.scale)
        if self.family == "uniform":
            half = math.sqrt(3.0)
            inside = np.abs(u) <= half
            out = np.where(inside, -math.log(2.0 * half * self.scale), -np.inf)
            return out if out.ndim else float(out)
        b = self.shape_beta
        const = math.log(b) - math.log(2.0 * self.scale) - math.lgamma(1.0 / b)
        return const - np.abs(u) ** b


def ica_condition_value(spec: NoiseSpec) -> float:
    """Excess kurtosis E[z^4] - 3 of the standardized variable.

    For the cubic contrast t(z) = z^3 it is also E[z t(z)] - E[t'(z)],
    the higher-moment score's condition. Zero means both fourth-order
    source separation and the orthogonal higher-moment score degenerate."""
    return spec.moments().fourth_moment - 3.0
