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
the second moment has the best variance.  Randomness comes from a
counter-based Philox generator with per-call substreams, so fixed seeds
reproduce bit-identically regardless of trial batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import HalfLineGrid, TangentialGrid
from .model import ModelProblem, dirichlet_laplacian
from .poisson import kernel_batch

__all__ = [
    "RademacherTrial",
    "RatioEstimate",
    "rademacher_ratio",
    "dirichlet_nonrbound_experiment",
    "GrowthRow",
]


@dataclass(frozen=True)
class RademacherTrial:
    operators: Sequence[Callable]
    vectors: Sequence[np.ndarray]
    seed: int = 0
    trials: int = 512

    def __post_init__(self):
        if len(self.operators) != len(self.vectors):
            raise ValueError("operators and vectors must have equal length")
        if not self.operators:
            raise ValueError("family must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def N(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class RatioEstimate:
    estimate: float
    stderr: float
    numerator: float
    denominator: float


def rademacher_ratio(trial: RademacherTrial, norm_out: Callable,
                     norm_in: Callable, batches: int = 16) -> RatioEstimate:
    """Sampled E||sum eps T_l x_l|| / E||sum eps x_l|| with standard error.

    Second moments over the sign draws; the standard error comes from
    batch-mean variance of the ratio.  Linearity lets the operator images be
    precomputed once.
    """
    if all(not np.any(x) for x in trial.vectors):
        raise ValueError("all input vectors vanish; ratio undefined")
    images = [op(x) for op, x in zip(trial.operators, trial.vectors)]
    rng = np.random.Generator(np.random.Philox(trial.seed))
    eps = rng.integers(0, 2, size=(trial.trials, trial.N)) * 2 - 1

    nums = np.empty(trial.trials)
    dens = np.empty(trial.trials)
    for i in range(trial.trials):
        s_out = sum(e * im for e, im in zip(eps[i], images))
        s_in = sum(e * x for e, x in zip(eps[i], trial.vectors))
        nums[i] = norm_out(s_out)
        dens[i] = norm_in(s_in)

    num = math.sqrt(float(np.mean(nums ** 2)))
    den = math.sqrt(float(np.mean(dens ** 2)))
    estimate = num / den

    nb = max(1, min(batches, trial.trials))
    split_n = np.array_split(nums, nb)
    split_d = np.array_split(dens, nb)
    ratios = np.array([
        math.sqrt(float(np.mean(a ** 2))) / max(math.sqrt(float(np.mean(b ** 2))), 1e-300)
        for a, b in zip(split_n, split_d)
    ])
    stderr = float(ratios.std(ddof=1) / math.sqrt(nb)) if nb > 1 else 0.0
    return RatioEstimate(estimate=estimate, stderr=stderr,
                         numerator=num, denominator=den)


@dataclass(frozen=True)
class GrowthRow:
    p: float
    r: float
    N: int
    ratio: float
    stderr: float


def _band_limited_datum(tgrid: TangentialGrid) -> np.ndarray:
    """Fixed real datum supported in the closed unit frequency ball."""
    xi_sq = np.atleast_1d(tgrid.xi_sq).reshape(-1)
    return np.where(xi_sq <= 1.0, 1.0, 0.0).astype(complex)


def dirichlet_nonrbound_experiment(
    p: float, sigma: float = 1.0, N_list: Sequence[int] = (4, 8, 16, 32, 64),
    tgrid: TangentialGrid | None = None, xgrid: HalfLineGrid | None = None,
    r: float = 0.0, trials: int = 512, seed: int = 0,
    problem: ModelProblem | None = None,
) -> list[GrowthRow]:
    """Growth table of the Rademacher ratio for the scaled dyadic family.

    Requires p in [1, 2] (p = 2 is the plateau control run).  The normal
    grid must resolve depths down to 1/sqrt(lambda_max); the default starts
    at 1e-21 to cover N up to 64 at sigma = 1.
    """
    if not (1.0 <= p <= 2.0):
        raise ValueError("experiment is specified for p in [1, 2]")
    if problem is None:
        problem = dirichlet_laplacian(n=2)
    if tgrid is None:
        tgrid = TangentialGrid(n_axes=problem.n - 1, N=8, L=2.0 * math.pi)
    if xgrid is None:
        xgrid = HalfLineGrid(x_min=1e-21, ratio=1.1, n_points=560)
    g = _band_limited_datum(tgrid)
    w_norm = xgrid.quad_weights(r)
    Lvol = tgrid.L ** tgrid.n_axes

    def norm_out(field_vals: np.ndarray) -> float:
        # L_p(x^r dx) of the tangential L_2 norm profile
        prof = np.sqrt(np.sum(np.abs(field_vals) ** 2, axis=0) * Lvol)
        return float((w_norm @ prof ** p) ** (1.0 / p))

    def norm_in(vec: np.ndarray) -> float:
        return float(math.sqrt(np.sum(np.abs(vec) ** 2) * Lvol))

    rows = []
    max_N = max(N_list)
    lam = {l: (sigma * 2.0 ** l) ** 2 for l in range(1, max_N + 1)}
    scale = {l: abs(lam[l]) ** ((1.0 + r) / (2.0 * p)) for l in lam}
    images = {}
    for l in range(1, max_N + 1):
        batch = kernel_batch(problem, lam[l], tgrid.xi_modes)
        images[l] = scale[l] * batch.eval(xgrid.x, 0)[0] * g[:, None]

    for N in N_list:
        ops = [(lambda x, _l=l: images[_l]) for l in range(1, N + 1)]
        trial = RademacherTrial(operators=ops, vectors=[g] * N,
                                seed=seed, trials=trials)
        est = rademacher_ratio(trial, norm_out, norm_in)
        rows.append(GrowthRow(p=p, r=r, N=N, ratio=est.estimate,
                              stderr=est.stderr))
    return rows
