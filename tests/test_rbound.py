import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfpoisson import rbound as rb
from halfpoisson.grids import HalfLineGrid, TangentialGrid
from halfpoisson.model import dirichlet_laplacian
from halfpoisson.poisson import kernel_batch


def _l2(v):
    return float(np.linalg.norm(v))


def _l2_rows(block):
    """Blockwise norm: one Euclidean norm per draw (leading axis)."""
    return np.linalg.norm(block.reshape(len(block), -1), axis=1)


def _per_draw_ratio(trial, norm_out, norm_in):
    """Reference: one Python-level signed sum and one scalar norm per draw."""
    rng = np.random.Generator(np.random.Philox(trial.seed))
    eps = rng.integers(0, 2, size=(trial.trials, trial.N)) * 2 - 1
    nums = np.empty(trial.trials)
    dens = np.empty(trial.trials)
    for i in range(trial.trials):
        nums[i] = norm_out(sum(e * im for e, im in zip(eps[i], trial.images)))
        dens[i] = norm_in(sum(e * x for e, x in zip(eps[i], trial.vectors)))
    num = math.sqrt(float(np.mean(nums ** 2)))
    den = math.sqrt(float(np.mean(dens ** 2)))
    nb = max(1, min(16, trial.trials))
    # batches whose inputs cancel in every draw have no ratio
    ratios = np.array([
        math.sqrt(float(np.mean(a ** 2))) / math.sqrt(float(np.mean(b ** 2)))
        for a, b in zip(np.array_split(nums, nb), np.array_split(dens, nb))
        if np.any(b)
    ])
    stderr = (float(ratios.std(ddof=1) / math.sqrt(len(ratios)))
              if len(ratios) > 1 else math.nan)
    return rb.RatioEstimate(estimate=num / den, stderr=stderr)


class TestRademacherRatio:
    def test_single_operator_deterministic(self):
        """N = 1: the signs cancel and the ratio is exactly ||Tx|| / ||x||."""
        x = np.array([3.0, 4.0])
        trial = rb.RademacherTrial(images=[2.0 * x], vectors=[x], trials=8)
        est = rb.rademacher_ratio(trial, _l2_rows, _l2_rows)
        assert est.estimate == pytest.approx(2.0, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_family_exact_ratio(self):
        """Operators scaling disjoint coordinates: both sides are
        sign-independent, ratio = sqrt(sum a_l^2 / N)."""
        N = 4
        a = np.array([1.0, 2.0, 3.0, 4.0])
        vecs = np.eye(N)
        trial = rb.RademacherTrial(images=a[:, None] * vecs, vectors=vecs,
                                   trials=16)
        est = rb.rademacher_ratio(trial, _l2_rows, _l2_rows)
        expected = math.sqrt(float(np.sum(a ** 2)) / N)
        assert est.estimate == pytest.approx(expected, rel=1e-12)

    def test_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6)
        images = [np.roll(x, l) for l in range(3)]
        t1 = rb.RademacherTrial(images=images, vectors=[x] * 3, seed=5, trials=64)
        t2 = rb.RademacherTrial(images=images, vectors=[x] * 3, seed=5, trials=64)
        a = rb.rademacher_ratio(t1, _l2_rows, _l2_rows)
        b = rb.rademacher_ratio(t2, _l2_rows, _l2_rows)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_seed_changes_sample(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        images = [np.roll(x, l) + 0.1 * l * x for l in range(3)]
        a = rb.rademacher_ratio(
            rb.RademacherTrial(images=images, vectors=[x] * 3, seed=1, trials=64),
            _l2_rows, _l2_rows)
        b = rb.rademacher_ratio(
            rb.RademacherTrial(images=images, vectors=[x] * 3, seed=2, trials=64),
            _l2_rows, _l2_rows)
        assert a.estimate != b.estimate

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rb.RademacherTrial(images=np.zeros((0, 3)), vectors=np.zeros((0, 3)))

    def test_zero_vectors_rejected(self):
        trial = rb.RademacherTrial(images=[np.ones(3)], vectors=[np.zeros(3)])
        with pytest.raises(ValueError):
            rb.rademacher_ratio(trial, _l2_rows, _l2_rows)

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 12), trials=st.sampled_from([1, 127, 128, 129, 300]),
           complex_images=st.booleans(), data_seed=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 1000))
    def test_matches_per_draw_reference(self, N, trials, complex_images,
                                        data_seed, seed):
        rng = np.random.default_rng(data_seed)
        images = rng.standard_normal((N, 3, 5))
        if complex_images:
            images = images + 1j * rng.standard_normal((N, 3, 5))
        vecs = rng.standard_normal((N, 4))
        seen = []

        def norm_out(block):
            seen.append(block.shape)
            return _l2_rows(block)

        trial = rb.RademacherTrial(images=images, vectors=vecs, seed=seed,
                                   trials=trials)
        got = rb.rademacher_ratio(trial, norm_out, _l2_rows)
        want = _per_draw_ratio(trial, _l2, _l2)
        # blocks of at most _DRAW_BLOCK draws covering every draw once,
        # the image shape trailing
        assert [s[1:] for s in seen] == [(3, 5)] * len(seen)
        assert all(1 <= s[0] <= rb._DRAW_BLOCK for s in seen)
        assert sum(s[0] for s in seen) == trials
        assert got.estimate == pytest.approx(want.estimate, rel=1e-12)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9, abs=1e-15,
                                           nan_ok=True)

    @settings(max_examples=25, deadline=None)
    @given(trials=st.sampled_from([2, 3, 5, 16, 40]), seed=st.integers(0, 1000))
    def test_cancelling_batches_left_out(self, trials, seed):
        """Two equal inputs cancel in every draw with opposite signs.  The
        batches where all draws cancel are left out of the spread, so the
        standard error is finite, or nan with fewer than two batches left."""
        x = np.array([1.0, -2.0, 0.5])
        trial = rb.RademacherTrial(images=[x, 3.0 * x], vectors=[x, x],
                                   seed=seed, trials=trials)
        eps = np.random.Generator(np.random.Philox(seed)).integers(
            0, 2, size=(trials, 2))
        if np.all(eps[:, 0] != eps[:, 1]):
            with pytest.raises(ValueError, match="cancels"):
                rb.rademacher_ratio(trial, _l2_rows, _l2_rows)
            return
        with np.errstate(all="raise"):
            got = rb.rademacher_ratio(trial, _l2_rows, _l2_rows)
        want = _per_draw_ratio(trial, _l2, _l2)
        assert got.estimate == pytest.approx(want.estimate, rel=1e-12)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9, abs=1e-15,
                                           nan_ok=True)
        assert not math.isinf(got.stderr)

    def test_one_batch_has_no_stderr(self):
        """A single batch gives no spread: the standard error is nan, so a
        relative-stderr gate compares false instead of passing on 0."""
        x = np.array([3.0, 4.0])
        trial = rb.RademacherTrial(images=[x, 2.0 * x], vectors=[x, -x],
                                   seed=3, trials=1)
        est = rb.rademacher_ratio(trial, _l2_rows, _l2_rows)
        assert math.isnan(est.stderr)
        assert not est.stderr / est.estimate <= 0.03

    def test_all_draws_cancelling_rejected(self):
        """Seed 3 draws the signs (1, -1): the equal inputs cancel."""
        x = np.array([3.0, 4.0])
        trial = rb.RademacherTrial(images=[x, 2.0 * x], vectors=[x, x],
                                   seed=3, trials=1)
        with pytest.raises(ValueError, match="cancels"):
            rb.rademacher_ratio(trial, _l2_rows, _l2_rows)

    def test_ragged_images_rejected(self):
        x = np.ones(3)
        with pytest.raises(ValueError, match="images"):
            rb.RademacherTrial(images=[x, x[None, :]], vectors=[x, x])

    def test_ragged_vectors_rejected(self):
        with pytest.raises(ValueError, match="vectors"):
            rb.RademacherTrial(images=np.ones((2, 3)),
                               vectors=[np.ones(1), np.ones(3)])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="images and vectors"):
            rb.RademacherTrial(images=np.ones((1, 3)), vectors=np.ones((0, 3)))


class TestGrowthExperiment:
    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rb.dirichlet_nonrbound_experiment(p=3.0)

    @pytest.mark.parametrize("sigma", [0, -1.0])
    def test_sigma_must_be_positive(self, sigma):
        """sigma = 0 puts every lambda_l at 0; rejected before any kernel."""
        with pytest.raises(ValueError, match=f"'sigma' must be positive, got {sigma}"):
            rb.dirichlet_nonrbound_experiment(p=1.2, sigma=sigma)

    def test_growth_below_two(self):
        ratios, stderrs = rb.dirichlet_nonrbound_experiment(p=1.2, trials=256,
                                                            N_list=(4, 16, 64))
        assert ratios.shape == stderrs.shape == (3,)
        assert ratios[-1] / ratios[0] > 1.4
        # monotone growth along the family sizes
        assert ratios[0] < ratios[1] < ratios[2]

    def test_plateau_at_p_two(self):
        ratios, _ = rb.dirichlet_nonrbound_experiment(p=2.0, trials=256,
                                                      N_list=(4, 16, 64))
        assert ratios.max() / ratios.min() < 1.3

    def test_rows_deterministic(self):
        a = rb.dirichlet_nonrbound_experiment(p=1.5, trials=64, N_list=(4, 8),
                                              seed=9)
        b = rb.dirichlet_nonrbound_experiment(p=1.5, trials=64, N_list=(4, 8),
                                              seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_even_family_with_few_trials_has_finite_stderr(self):
        """N = 4 and 8 with 8 trials give batches whose every draw cancels
        the equal inputs; they are left out, with no overflow or warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, stderrs = rb.dirichlet_nonrbound_experiment(p=1.2, trials=8,
                                                           N_list=(4, 16, 8))
        assert np.all(np.isfinite(stderrs) & (stderrs > 0))

    def test_one_kernel_batch_for_the_family(self, monkeypatch):
        """All (lambda_l, mode) rows come from one kernel_batch call."""
        calls = []
        real = rb.kernel_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(rb, "kernel_batch", counted)
        rb.dirichlet_nonrbound_experiment(p=1.2, trials=8, N_list=(3, 7, 5))
        assert len(calls) == 1

    @pytest.mark.parametrize("p, want", [
        (1.2, [(0.8990899362664634, 0.045370028714749294),
               (0.9408480284593608, 0.06041831239340694)]),
        (2.0, [(0.7054219958633313, 0.025344120033058477),
               (0.6805583143563053, 0.031863264020488065)]),
    ])
    def test_rows_pinned(self, p, want):
        """Rows recorded with one sign sum and one norm per draw."""
        ratios, stderrs = rb.dirichlet_nonrbound_experiment(p=p, trials=64,
                                                            N_list=(4, 8), seed=9)
        assert np.column_stack([ratios, stderrs]) == pytest.approx(np.array(want),
                                                                  rel=1e-12)

    def test_rows_match_the_full_mode_family(self):
        """Holding the family on the datum's modes changes no bit: the
        reference runs the family on all 8 modes through rademacher_ratio."""
        p, r, N_list, trials, seed = 1.2, 0.3, (3, 8), 256, 4
        tgrid = TangentialGrid(n_axes=1, N=8, L=2.0 * math.pi)
        xgrid = HalfLineGrid(x_min=1e-21, ratio=1.1, n_points=560)
        g = rb._band_limited_datum(tgrid)
        assert 0 < np.count_nonzero(g) < tgrid.n_modes
        w = xgrid.quad_weights(r)

        def norm_in(sums):
            return np.sqrt(np.sum(np.abs(sums) ** 2, axis=1) * tgrid.L)

        def norm_out(sums):
            return (norm_in(sums) ** p @ w) ** (1.0 / p)

        lam = (2.0 ** np.arange(1, max(N_list) + 1)) ** 2
        batch = kernel_batch(dirichlet_laplacian(n=2), lam, tgrid.xi_modes)
        images = batch.eval(xgrid.x, g[None, None])
        assert images.shape == (len(lam), tgrid.n_modes, xgrid.n_points)
        images *= (lam ** ((1.0 + r) / (2.0 * p)))[:, None, None]
        want = [rb.rademacher_ratio(rb.RademacherTrial(
                    images=images[:N], vectors=np.tile(g, (N, 1)), seed=seed,
                    trials=trials), norm_out, norm_in) for N in N_list]
        ratios, stderrs = rb.dirichlet_nonrbound_experiment(
            p=p, r=r, N_list=N_list, trials=trials, seed=seed)
        assert list(zip(ratios.tolist(), stderrs.tolist())) == \
            [(est.estimate, est.stderr) for est in want]
