"""Discretization grids: periodized tangential tori and graded normal grids.

Tangential data lives on a torus of length ``L`` per axis with ``N`` modes,
specified directly by Fourier coefficients: ``f(x) = sum_k fhat_k e^{i xi_k x}``
with ``xi_k = 2 pi k / L`` in FFT ordering.  Periodization error is exactly
zero for band-limited data, which is how all harness inputs are built.  The
data are never sampled in space: every tangential norm is taken from the
coefficients by Plancherel (:func:`halfpoisson.spaces.plancherel_norms`).

The normal half-line uses a geometric grid ``x_i = x_min * ratio^i`` so that
both power weights ``x^r`` near zero and exponential tails are resolved.
Integrals against ``x^r dx`` are computed by composite Simpson quadrature in
the log variable plus an analytic power-law head correction on ``[0, x_min]``
(the integrand is treated as constant there); the quadrature is exposed as a
plain weight vector so that discretized integral operators can reuse it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["TangentialGrid", "HalfLineGrid", "UniformHalfGrid"]


def _simpson_coeffs(n_points: int) -> np.ndarray:
    """Composite Simpson coefficients on a uniform grid (unit spacing).

    For an odd interval count the last interval falls back to trapezoid.
    """
    if n_points < 2:
        raise ValueError("need at least 2 quadrature nodes")
    c = np.zeros(n_points)
    n_int = n_points - 1
    pairs = n_int // 2
    for p in range(pairs):
        i = 2 * p
        c[i] += 1.0 / 3.0
        c[i + 1] += 4.0 / 3.0
        c[i + 2] += 1.0 / 3.0
    if n_int % 2 == 1:
        c[-2] += 0.5
        c[-1] += 0.5
    return c


@dataclass(frozen=True)
class TangentialGrid:
    """Torus discretization of the tangential variables (n-1 axes)."""

    n_axes: int
    N: int
    L: float

    def __post_init__(self):
        if self.n_axes < 0:
            raise ValueError("n_axes must be >= 0")
        if self.n_axes > 0:
            if self.N < 2 or self.N & (self.N - 1):
                raise ValueError("N must be a power of two >= 2")
            if self.L <= 0:
                raise ValueError("L must be positive")

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Frequencies along one axis, FFT ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(self.N, d=self.L / self.N)

    @cached_property
    def xi_modes(self) -> np.ndarray:
        """All mode frequencies flattened, shape (N^(n_axes), n_axes)."""
        if self.n_axes == 0:
            return np.zeros((1, 0))
        mesh = np.meshgrid(*([self.xi_axis] * self.n_axes), indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi'|^2 per mode, shape (n_modes,), in the order of ``xi_modes``."""
        return (self.xi_modes ** 2).sum(1)

    @property
    def n_modes(self) -> int:
        return self.N ** self.n_axes

    def mode_index(self, xi_target: float) -> int:
        """Index along one axis of the mode closest to xi_target."""
        return int(np.argmin(np.abs(self.xi_axis - xi_target)))


@dataclass(frozen=True)
class HalfLineGrid:
    """Geometric grid on (0, infinity) with weighted quadrature."""

    x_min: float
    ratio: float
    n_points: int

    def __post_init__(self):
        if self.x_min <= 0:
            raise ValueError("x_min must be positive")
        if self.ratio <= 1:
            raise ValueError("ratio must exceed 1")
        if self.n_points < 3:
            raise ValueError("need at least 3 nodes")

    @staticmethod
    def for_decay(decay_rate: float) -> "HalfLineGrid":
        """Grid from x_min = 1e-6 at ratio 1.1 to x_max = 40 / decay_rate,
        where e^{-decay_rate x} has fallen to e^{-40}."""
        if decay_rate <= 0:
            raise ValueError("decay_rate must be positive")
        x_min, ratio = 1e-6, 1.1
        x_max = 40.0 / decay_rate
        if x_max <= x_min:
            x_max = 10 * x_min
        n = int(math.ceil(math.log(x_max / x_min) / math.log(ratio))) + 1
        return HalfLineGrid(x_min=x_min, ratio=ratio, n_points=max(n, 3))

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min * self.ratio ** np.arange(self.n_points)

    def quad_weights(self, r: float = 0.0) -> np.ndarray:
        """Weights w_i with  sum_i w_i g(x_i) ~ int_0^x_max g(x) x^r dx.

        Composite Simpson in t = log x (Jacobian x^{1+r}) plus the analytic
        head integral of x^r over [0, x_min] with g frozen at g(x_min);
        requires r > -1.
        """
        if r <= -1:
            raise ValueError("weight exponent r must exceed -1")
        h = math.log(self.ratio)
        w = _simpson_coeffs(self.n_points) * h * self.x ** (1.0 + r)
        w[0] += self.x_min ** (1.0 + r) / (1.0 + r)
        return w

    def refined(self, factor: int = 2) -> "HalfLineGrid":
        """Same span, ratio^(1/factor) spacing."""
        return HalfLineGrid(
            x_min=self.x_min,
            ratio=self.ratio ** (1.0 / factor),
            n_points=(self.n_points - 1) * factor + 1,
        )


@dataclass(frozen=True)
class UniformHalfGrid:
    """Uniform grid on [0, X): x_i = i*h, used by the resolvent path.

    Doubling to [-X, X) gives a torus of length 2X on which normal FFTs are
    well defined; the negative side holds the reflected extension.
    """

    X: float
    N: int

    def __post_init__(self):
        if self.X <= 0:
            raise ValueError("X must be positive")
        if self.N < 4 or self.N & (self.N - 1):
            raise ValueError("N must be a power of two >= 4")

    @property
    def h(self) -> float:
        return self.X / self.N

    @cached_property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.N)

    @cached_property
    def xi_normal(self) -> np.ndarray:
        """Normal frequencies of the doubled torus, FFT ordering."""
        return 2.0 * math.pi * np.fft.fftfreq(2 * self.N, d=self.h)
