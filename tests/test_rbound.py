import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfpoisson import rbound as rb


def _l2(v):
    return float(np.linalg.norm(v))


def _per_draw_ratio(trial, norm_out, norm_in):
    """Reference: one Python-level signed sum per draw."""
    images = [op(x) for op, x in zip(trial.operators, trial.vectors)]
    rng = np.random.Generator(np.random.Philox(trial.seed))
    eps = rng.integers(0, 2, size=(trial.trials, trial.N)) * 2 - 1
    nums = np.empty(trial.trials)
    dens = np.empty(trial.trials)
    for i in range(trial.trials):
        nums[i] = norm_out(sum(e * im for e, im in zip(eps[i], images)))
        dens[i] = norm_in(sum(e * x for e, x in zip(eps[i], trial.vectors)))
    num = math.sqrt(float(np.mean(nums ** 2)))
    den = math.sqrt(float(np.mean(dens ** 2)))
    nb = max(1, min(16, trial.trials))
    ratios = np.array([
        math.sqrt(float(np.mean(a ** 2))) / math.sqrt(float(np.mean(b ** 2)))
        for a, b in zip(np.array_split(nums, nb), np.array_split(dens, nb))
    ])
    stderr = float(ratios.std(ddof=1) / math.sqrt(nb)) if nb > 1 else 0.0
    return rb.RatioEstimate(estimate=num / den, stderr=stderr,
                            numerator=num, denominator=den)


class TestRademacherRatio:
    def test_single_operator_deterministic(self):
        """N = 1: the signs cancel and the ratio is exactly ||Tx|| / ||x||."""
        x = np.array([3.0, 4.0])
        trial = rb.RademacherTrial(operators=[lambda v: 2.0 * v], vectors=[x],
                                   trials=8)
        est = rb.rademacher_ratio(trial, _l2, _l2)
        assert est.estimate == pytest.approx(2.0, rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_family_exact_ratio(self):
        """Operators scaling disjoint coordinates: both sides are
        sign-independent, ratio = sqrt(sum a_l^2 / N)."""
        N = 4
        a = np.array([1.0, 2.0, 3.0, 4.0])
        ops, vecs = [], []
        for l in range(N):
            e = np.zeros(N)
            e[l] = 1.0
            vecs.append(e)
            ops.append(lambda v, _l=l: a[_l] * v)
        trial = rb.RademacherTrial(operators=ops, vectors=vecs, trials=16)
        est = rb.rademacher_ratio(trial, _l2, _l2)
        expected = math.sqrt(float(np.sum(a ** 2)) / N)
        assert est.estimate == pytest.approx(expected, rel=1e-12)

    def test_reproducible_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(6)
        ops = [lambda v, _l=l: np.roll(v, _l) for l in range(3)]
        t1 = rb.RademacherTrial(operators=ops, vectors=[x] * 3, seed=5, trials=64)
        t2 = rb.RademacherTrial(operators=ops, vectors=[x] * 3, seed=5, trials=64)
        a = rb.rademacher_ratio(t1, _l2, _l2)
        b = rb.rademacher_ratio(t2, _l2, _l2)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr

    def test_seed_changes_sample(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        ops = [lambda v, _l=l: np.roll(v, _l) + 0.1 * _l * v for l in range(3)]
        a = rb.rademacher_ratio(
            rb.RademacherTrial(operators=ops, vectors=[x] * 3, seed=1, trials=64),
            _l2, _l2)
        b = rb.rademacher_ratio(
            rb.RademacherTrial(operators=ops, vectors=[x] * 3, seed=2, trials=64),
            _l2, _l2)
        assert a.estimate != b.estimate

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            rb.RademacherTrial(operators=[], vectors=[])

    def test_zero_vectors_rejected(self):
        trial = rb.RademacherTrial(operators=[lambda v: v],
                                   vectors=[np.zeros(3)])
        with pytest.raises(ValueError):
            rb.rademacher_ratio(trial, _l2, _l2)

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
        vecs = list(rng.standard_normal((N, 4)))
        ops = [lambda v, _im=im: _im for im in images]
        seen = []

        def norm_out(s):
            seen.append(s.shape)
            return _l2(s)

        trial = rb.RademacherTrial(operators=ops, vectors=vecs, seed=seed,
                                   trials=trials)
        got = rb.rademacher_ratio(trial, norm_out, _l2)
        want = _per_draw_ratio(trial, _l2, _l2)
        # one image-shaped sample per draw
        assert seen == [(3, 5)] * trials
        for field in ("estimate", "numerator", "denominator"):
            assert getattr(got, field) == pytest.approx(getattr(want, field),
                                                        rel=1e-12)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-9, abs=1e-15)

    def test_ragged_images_rejected(self):
        x = np.ones(3)
        trial = rb.RademacherTrial(
            operators=[lambda v: v, lambda v: v[None, :]], vectors=[x, x])
        with pytest.raises(ValueError, match="operator images"):
            rb.rademacher_ratio(trial, _l2, _l2)

    def test_ragged_vectors_rejected(self):
        trial = rb.RademacherTrial(
            operators=[lambda v: np.ones(3)] * 2,
            vectors=[np.ones(1), np.ones(3)])
        with pytest.raises(ValueError, match="input vectors"):
            rb.rademacher_ratio(trial, _l2, _l2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            rb.RademacherTrial(operators=[lambda v: v], vectors=[])


class TestGrowthExperiment:
    def test_p_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            rb.dirichlet_nonrbound_experiment(p=3.0)

    def test_growth_below_two(self):
        rows = rb.dirichlet_nonrbound_experiment(p=1.2, trials=256,
                                                 N_list=(4, 16, 64))
        assert [row.N for row in rows] == [4, 16, 64]
        ratios = [row.ratio for row in rows]
        assert ratios[-1] / ratios[0] > 1.4
        # monotone growth along the family sizes
        assert ratios[0] < ratios[1] < ratios[2]

    def test_plateau_at_p_two(self):
        rows = rb.dirichlet_nonrbound_experiment(p=2.0, trials=256,
                                                 N_list=(4, 16, 64))
        ratios = [row.ratio for row in rows]
        assert max(ratios) / min(ratios) < 1.3

    def test_rows_deterministic(self):
        a = rb.dirichlet_nonrbound_experiment(p=1.5, trials=64, N_list=(4, 8),
                                              seed=9)
        b = rb.dirichlet_nonrbound_experiment(p=1.5, trials=64, N_list=(4, 8),
                                              seed=9)
        assert [(r.ratio, r.stderr) for r in a] == [(r.ratio, r.stderr) for r in b]
