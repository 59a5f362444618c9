"""Monte-Carlo Rademacher averages: lower-bound witnesses for R-bounds.

An operator family (T_l) is R-bounded when

    E || sum_l eps_l T_l x_l ||  <=  C  E || sum_l eps_l x_l ||

uniformly over finite subfamilies and inputs, with independent random signs
eps_l.  Sampling the two averages gives a certified *lower* bound for the
best constant C; growth of the sampled ratio along increasing family sizes N
therefore demonstrates failure of R-boundedness.

The demonstration implemented here: the scaled solution-operator family

    |lambda_l|^{(1+r)/(2p)} Poi(lambda_l),      lambda_l = (sigma 2^l)^2,

for the Dirichlet Laplacian, acting on a fixed band-limited boundary datum,
measured in L_p(R_+, x^r dx; L_2 tangential).  For p in [1, 2) each dyadic
parameter concentrates the output on its own normal-depth shell and the
ratio grows like N^{1/p - 1/2}; at p = 2 it plateaus.

Second-moment (p = 2) averages are used internally regardless of the target
exponent; the expectation norms are exponent-independent up to constants, and
the second moment has the best variance.  Each call draws all its signs from
one Philox stream seeded by the trial, so a fixed seed reproduces
bit-identically whatever the block size.  The norms take a block of signed
sums, shape (draws,) + one member's shape, and return one norm per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import HalfLineGrid, TangentialGrid
from .model import dirichlet_laplacian
from .poisson import kernel_batch

__all__ = [
    "RademacherTrial",
    "RatioEstimate",
    "rademacher_ratio",
    "dirichlet_nonrbound_experiment",
]


@dataclass(frozen=True)
class RademacherTrial:
    """Images T_l x_l and inputs x_l, stacked with the family index leading."""

    images: np.ndarray
    vectors: np.ndarray
    seed: int = 0
    trials: int = 512

    def __post_init__(self):
        for name in ("images", "vectors"):
            try:
                object.__setattr__(self, name, np.asarray(getattr(self, name)))
            except ValueError:
                raise ValueError(f"{name} must stack equally shaped arrays") from None
        if len(self.images) != len(self.vectors):
            raise ValueError("images and vectors must have equal length")
        if not len(self.images):
            raise ValueError("family must be nonempty")
        if self.trials < 1:
            raise ValueError(f"'trials' must be >= 1, got {self.trials}")

    @property
    def N(self) -> int:
        return len(self.images)


@dataclass(frozen=True)
class RatioEstimate:
    estimate: float
    stderr: float


# sign draws per matrix product: bounds the block of signed sums in memory
# (128 draws of a 64-member family of (3, 560) complex images, the datum's
# three modes: 3.4 MB)
_DRAW_BLOCK = 128


def _signed_sums(signs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_l signs[d, l] stack[l] for each draw d, by one real matrix product.

    Complex entries enter as interleaved (real, imag) pairs, and
    ``view(dtype)`` restores them.
    """
    dtype = np.complex128 if np.iscomplexobj(stack) else np.float64
    rows = np.ascontiguousarray(stack, dtype=dtype).view(np.float64)
    sums = signs @ rows.reshape(len(stack), -1)
    return sums.view(dtype).reshape((len(signs),) + stack.shape[1:])


# batches of sign draws behind the standard error of the ratio
_BATCHES = 16


def rademacher_ratio(trial: RademacherTrial, norm_out: Callable,
                     norm_in: Callable) -> RatioEstimate:
    """Sampled E||sum eps T_l x_l|| / E||sum eps x_l|| with standard error.

    Second moments over the sign draws; the standard error comes from
    batch-mean variance of the ratio, over the batches of draws whose inputs
    do not all cancel, and is nan when fewer than two such batches remain.
    The signed sums of a block of at most ``_DRAW_BLOCK`` draws come from one
    matrix product with the block's signs; ``norm_out`` and ``norm_in`` get
    the block, draw axis leading, and return one norm per draw.  Raises
    ValueError when every draw cancels the inputs.
    """
    if not np.any(trial.vectors):
        raise ValueError("all input vectors vanish; ratio undefined")
    rng = np.random.Generator(np.random.Philox(trial.seed))
    eps = rng.integers(0, 2, size=(trial.trials, trial.N)) * 2 - 1

    nums = np.empty(trial.trials)
    dens = np.empty(trial.trials)
    for start in range(0, trial.trials, _DRAW_BLOCK):
        signs = eps[start:start + _DRAW_BLOCK].astype(np.float64)
        block = slice(start, start + len(signs))
        nums[block] = norm_out(_signed_sums(signs, trial.images))
        dens[block] = norm_in(_signed_sums(signs, trial.vectors))

    num = math.sqrt(float(np.mean(nums ** 2)))
    den = math.sqrt(float(np.mean(dens ** 2)))
    if den == 0:
        raise ValueError("every sign draw cancels the input vectors; ratio undefined")
    estimate = num / den

    # a batch whose every draw cancels the inputs has no ratio
    nb = max(1, min(_BATCHES, trial.trials))
    ratios = np.array([
        math.sqrt(float(np.mean(a ** 2))) / math.sqrt(d2)
        for a, b in zip(np.array_split(nums, nb), np.array_split(dens, nb))
        if (d2 := float(np.mean(b ** 2))) > 0
    ])
    if len(ratios) < 2:
        return RatioEstimate(estimate=estimate, stderr=math.nan)
    return RatioEstimate(estimate=estimate,
                         stderr=float(ratios.std(ddof=1) / math.sqrt(len(ratios))))


def _band_limited_datum(tgrid: TangentialGrid) -> np.ndarray:
    """Fixed real datum supported in the closed unit frequency ball."""
    return np.where(tgrid.xi_sq <= 1.0, 1.0, 0.0).astype(complex)


def dirichlet_nonrbound_experiment(
    p: float, sigma: float = 1.0, N_list: Sequence[int] = (4, 8, 16, 32, 64),
    r: float = 0.0, trials: int = 512, seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Rademacher ratios and their standard errors for the scaled dyadic
    family, one entry per family size in ``N_list``.

    Requires p in [1, 2] (p = 2 is the plateau control run) and family sizes
    N >= 1.  The Dirichlet Laplacian at n = 2 on 8 tangential modes; the
    normal grid must resolve depths down to 1/sqrt(lambda_max), so it starts
    at 1e-21 to cover N up to 64 at sigma = 1.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError("experiment is specified for p in [1, 2]")
    if not N_list or min(N_list) < 1:
        raise ValueError(f"N_list must be a nonempty list of family sizes >= 1, "
                         f"got {list(N_list)}")
    problem = dirichlet_laplacian(n=2)
    tgrid = TangentialGrid(n_axes=problem.n - 1, N=8, L=2.0 * math.pi)
    xgrid = HalfLineGrid(x_min=1e-21, ratio=1.1, n_points=560)
    g = _band_limited_datum(tgrid)
    w_norm = xgrid.quad_weights(r)
    Lvol = tgrid.L ** tgrid.n_axes

    def norm_out(sums: np.ndarray) -> np.ndarray:
        # L_p(x^r dx) of the tangential L_2 norm profile, per draw
        prof = np.sqrt(np.sum(np.abs(sums) ** 2, axis=1) * Lvol)
        return (prof ** p @ w_norm) ** (1.0 / p)

    def norm_in(sums: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(sums) ** 2, axis=1) * Lvol)

    # one kernel batch for the rows (lambda_l, mode), l = 1..max(N_list),
    # on the modes where the datum lives: off them every image is exactly
    # zero, and leaving those modes out of the mode sums in the norms adds
    # only +0.0 terms, so the norms keep their bits
    support = np.flatnonzero(g)
    g = g[support]
    lam = (sigma * 2.0 ** np.arange(1, max(N_list) + 1)) ** 2
    images = kernel_batch(problem, lam, tgrid.xi_modes[support]).eval(xgrid.x, g)
    images *= (np.abs(lam) ** ((1.0 + r) / (2.0 * p)))[:, None, None]

    ratios, stderrs = np.empty(len(N_list)), np.empty(len(N_list))
    for i, N in enumerate(N_list):
        trial = RademacherTrial(images=images[:N], vectors=np.tile(g, (N, 1)),
                                seed=seed, trials=trials)
        est = rademacher_ratio(trial, norm_out, norm_in)
        ratios[i], stderrs[i] = est.estimate, est.stderr
    return ratios, stderrs
