"""Discretization grids: periodic tori and graded normal grids.

Every periodic axis, tangential or temporal, is a torus of length ``L`` with
``N`` nodes, and its frequencies ``xi_k = 2 pi k / L`` in FFT ordering come
from one place, :attr:`TangentialGrid.xi_axis`.  Tangential data are
specified directly by Fourier coefficients:
``f(x) = sum_k fhat_k e^{i xi_k x}``.  Periodization error is exactly zero
for band-limited data, which is how all harness inputs are built.  The data
are never sampled in space: every tangential norm is taken from the
coefficients by Plancherel (:func:`halfpoisson.spaces.plancherel_norms`).
The time torus of the parabolic solvers is a one-axis grid whose
frequencies are the tau of lambda = sigma + i tau.

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
    end = n_points - 1 - (n_points - 1) % 2     # last node of the Simpson pairs
    c[0:end:2] += 1.0 / 3.0
    c[1:end:2] += 4.0 / 3.0
    c[2:end + 1:2] += 1.0 / 3.0
    if end < n_points - 1:
        c[-2:] += 0.5
    return c


@dataclass(frozen=True)
class TangentialGrid:
    """Torus discretization of periodic variables: the n-1 tangential axes,
    or with ``n_axes=1`` the time torus of period ``L`` with ``N`` nodes."""

    n_axes: int
    N: int
    L: float

    def __post_init__(self):
        if self.n_axes < 1:
            raise ValueError(f"'n_axes' must be >= 1, got {self.n_axes}")
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
        """Index along one axis of the frequency xi_k closest to xi_target; into
        ``xi_modes`` (flattened in "ij" order) it is the mode (0, ..., 0, xi_k)."""
        return int(np.argmin(np.abs(self.xi_axis - xi_target)))


@dataclass(frozen=True)
class HalfLineGrid:
    """Geometric grid on (0, infinity) with weighted quadrature."""

    x_min: float
    ratio: float
    n_points: int

    def __post_init__(self):
        if not self.x_min > 0:
            raise ValueError(f"'x_min' must be positive, got {self.x_min}")
        if not 1 < self.ratio < math.inf:
            raise ValueError(f"'ratio' must lie in (1, inf), got {self.ratio}")
        if self.n_points < 3:
            raise ValueError(f"'n_points' must be >= 3, got {self.n_points}")

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
        if not r > -1:
            raise ValueError(f"'r' must exceed -1, got {r}")
        h = math.log(self.ratio)
        w = _simpson_coeffs(self.n_points) * h * self.x ** (1.0 + r)
        w[0] += self.x_min ** (1.0 + r) / (1.0 + r)
        return w

    def log_weights(self, r: float = 0.0) -> np.ndarray:
        """gamma^(r) with ``quad_weights(r)`` = x^{1+r} gamma^(r): the Simpson
        coefficients times log(ratio), plus 1/(1+r) at x_min for the head.
        They do not depend on x, which makes integral operators whose kernel
        is homogeneous of degree -1 Toeplitz on the grid."""
        if not r > -1:
            raise ValueError(f"'r' must exceed -1, got {r}")
        gamma = _simpson_coeffs(self.n_points) * math.log(self.ratio)
        gamma[0] += 1.0 / (1.0 + r)
        return gamma

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
        if not self.X > 0:
            raise ValueError(f"'X' must be positive, got {self.X}")
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
        """Normal frequencies of the doubled torus, FFT ordering: the one-axis
        torus of length 2X with 2N nodes."""
        return TangentialGrid(n_axes=1, N=2 * self.N, L=2.0 * self.X).xi_axis
