import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from halfpoisson import model as mdl


@pytest.fixture(params=["dirichlet_laplacian", "neumann_laplacian",
                        "clamped_bilaplacian"])
def bundled(request):
    return mdl.BUNDLED[request.param]()


class TestValidation:
    def test_inhomogeneous_interior_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            mdl.ModelProblem(
                n=2, m=1,
                interior_coeffs={(1, 0): 1.0},
                boundary_ops=[mdl.BoundaryOperator(0, {(0, 0): 1.0})],
                phi_prime=math.pi - 0.01, phi=0.75 * math.pi)

    def test_missing_pure_normal_coefficient_rejected(self):
        with pytest.raises(ValueError, match="normal"):
            mdl.ModelProblem(
                n=2, m=1,
                interior_coeffs={(2, 0): -1.0},
                boundary_ops=[mdl.BoundaryOperator(0, {(0, 0): 1.0})],
                phi_prime=math.pi - 0.01, phi=0.75 * math.pi)

    def test_wrong_boundary_count_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            mdl.ModelProblem(
                n=2, m=1,
                interior_coeffs={(2, 0): -1.0, (0, 2): -1.0},
                boundary_ops=[],
                phi_prime=math.pi - 0.01, phi=0.75 * math.pi)

    def test_zero_boundary_operator_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            mdl.ModelProblem(
                n=2, m=1,
                interior_coeffs={(2, 0): -1.0, (0, 2): -1.0},
                boundary_ops=[mdl.BoundaryOperator(0, {(0, 0): 0.0})],
                phi_prime=math.pi - 0.01, phi=0.75 * math.pi)

    def test_bad_angles_rejected(self):
        with pytest.raises(ValueError, match="phi"):
            mdl.ModelProblem(
                n=2, m=1,
                interior_coeffs={(2, 0): -1.0, (0, 2): -1.0},
                boundary_ops=[mdl.BoundaryOperator(0, {(0, 0): 1.0})],
                phi_prime=0.5, phi=0.75)

    def test_boundary_order_bound(self):
        with pytest.raises(ValueError, match="order"):
            mdl.ModelProblem(
                n=2, m=1,
                interior_coeffs={(2, 0): -1.0, (0, 2): -1.0},
                boundary_ops=[mdl.BoundaryOperator(2, {(0, 2): 1.0})],
                phi_prime=math.pi - 0.01, phi=0.75 * math.pi)


class TestSymbols:
    def test_laplacian_symbol(self):
        p = mdl.dirichlet_laplacian()
        assert p.interior_symbol([3.0], 4.0) == pytest.approx(-25.0)

    def test_bilaplacian_symbol(self):
        p = mdl.clamped_bilaplacian()
        assert p.interior_symbol([3.0], 4.0) == pytest.approx(-625.0)

    def test_boundary_symbols(self):
        p = mdl.clamped_bilaplacian()
        assert p.boundary_symbols[0]([3.0], 4.0) == pytest.approx(1.0)
        assert p.boundary_symbols[1]([3.0], 4.0) == pytest.approx(4.0)

    @given(c=st.floats(0.1, 10.0), x=st.floats(-3, 3), y=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_symbol_homogeneity(self, c, x, y):
        p = mdl.clamped_bilaplacian()
        xi = np.array([x, y])
        lhs = p.interior_symbol(c * xi[:1], c * xi[1])
        rhs = c ** p.order * p.interior_symbol(xi[:1], xi[1])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_normal_symbol_coeffs_laplacian(self):
        p = mdl.dirichlet_laplacian()
        c = p.interior_symbol.table(np.array([2.0]))
        # A(xi', tau) = -(xi'^2 + tau^2)
        assert np.allclose(c, [-4.0, 0.0, -1.0])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_evaluator_matches_per_monomial_sum(self, data):
        """Normal-order table and full symbol of random homogeneous operators
        against plain per-monomial sums."""
        n = data.draw(st.integers(1, 3), label="n")
        order = data.draw(st.integers(0, 4), label="order")
        indices = [a for a in itertools.product(range(order + 1), repeat=n)
                   if sum(a) == order]
        chosen = data.draw(st.lists(st.sampled_from(indices), min_size=1,
                                    unique=True), label="monomials")
        part = st.floats(-10.0, 10.0)
        monomials = {alpha: complex(data.draw(part), data.draw(part))
                     for alpha in chosen}
        coord = st.floats(-5.0, 5.0)
        N = data.draw(st.integers(1, 4), label="N")
        xi_batch = np.array([[data.draw(coord) for _ in range(n - 1)]
                             for _ in range(N)]).reshape(N, n - 1)
        xi_n = np.array([data.draw(coord) for _ in range(3)])
        assume(any(monomials.values()))
        sym = mdl.Symbol.compile(order, monomials)
        table = sym.table(xi_batch)
        full = sym(xi_batch, xi_n)
        assert table.shape == (N, order + 1) and full.shape == (N, 3)
        for q, xi_prime in enumerate(xi_batch):
            # the reference: one term per monomial, summed in dict order
            ref_table = np.zeros(order + 1, dtype=complex)
            size_table = np.zeros(order + 1)
            ref_full = np.zeros(3, dtype=complex)
            size_full = np.zeros(3)
            for alpha, a in monomials.items():
                *tang, l = alpha
                term = a * math.prod(x ** e for x, e in zip(xi_prime, tang))
                ref_table[l] += term
                size_table[l] += abs(term)
                ref_full += term * xi_n ** l
                size_full += abs(term) * np.abs(xi_n) ** l
            assert np.all(np.abs(table[q] - ref_table) <= 1e-12 * size_table)
            assert np.all(np.abs(sym.table(xi_prime) - ref_table) <= 1e-12 * size_table)
            assert np.all(np.abs(full[q] - ref_full) <= 1e-12 * size_full)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            mdl.Symbol.compile(1, {(0, 1): 0.0, (1, 0): 0j})

    def test_k_max(self):
        # the lowest normal order of each B_j, which sets the Seeley order
        lowest = lambda p: [sym.orders[0] for sym in p.boundary_symbols]
        assert lowest(mdl.dirichlet_laplacian()) == [0]
        assert lowest(mdl.neumann_laplacian()) == [1]
        assert lowest(mdl.clamped_bilaplacian()) == [0, 1]


class TestChecks:
    def test_ellipticity_passes_bundled(self, bundled):
        assert mdl.check_ellipticity(bundled).passed

    def test_ellipticity_fails_wrong_sign(self):
        # +Laplacian: symbol |xi|^2 lies on the positive axis, inside any sector
        p = mdl.ModelProblem(
            n=2, m=1,
            interior_coeffs={(2, 0): 1.0, (0, 2): 1.0},
            boundary_ops=[mdl.BoundaryOperator(0, {(0, 0): 1.0})],
            phi_prime=math.pi / 2, phi=math.pi / 4)
        rep = mdl.check_ellipticity(p)
        assert not rep.passed
        assert rep.worst_margin < 0

    def test_lopatinskii_passes_bundled(self, bundled):
        sample = mdl.SectorSample.default(bundled.phi, n_moduli=6, n_rays=3)
        rep = mdl.check_lopatinskii_shapiro(bundled, sample)
        assert rep.passed
        assert rep.min_singular_value > 1e-8

    def test_lopatinskii_fails_duplicate_conditions(self):
        # bi-Laplacian with the trace condition imposed twice: the boundary
        # map has identical rows, so the minimal singular value vanishes
        base = mdl.clamped_bilaplacian()
        trace = base.boundary_ops[0]
        p = mdl.ModelProblem(
            n=2, m=2, interior_coeffs=base.interior_coeffs,
            boundary_ops=[trace, trace],
            phi_prime=base.phi_prime, phi=base.phi)
        sample = mdl.SectorSample.default(p.phi, n_moduli=3, n_rays=3)
        rep = mdl.check_lopatinskii_shapiro(p, sample)
        assert not rep.passed


class TestSectorSample:
    def test_points_layout(self):
        s = mdl.SectorSample.default(0.75 * math.pi, n_rays=3, n_moduli=4)
        pts = s.points()
        assert pts.shape == (12,)
        assert np.allclose(sorted(set(np.round(np.abs(pts), 6))),
                           np.round(np.logspace(0, 6, 4), 6))

    def test_modulus_floor_enforced(self):
        with pytest.raises(ValueError, match="moduli"):
            mdl.SectorSample(rays=(0.0,), moduli=(0.0,))

    def test_fields_are_rays_and_moduli(self):
        s = mdl.SectorSample.default(0.5 * math.pi, sigma_floor=10.0, n_rays=3,
                                     n_moduli=4, mod_max=1e4)
        assert [f.name for f in dataclasses.fields(s)] == ["rays", "moduli"]
        assert s.moduli[0] == 10.0 and len(s.rays) == 3


class TestJson:
    def test_round_trip(self, bundled):
        text = mdl.problem_to_json(bundled)
        q = mdl.loads_problem(text, name=bundled.name)
        assert q.n == bundled.n and q.m == bundled.m
        assert dict(q.interior_coeffs) == dict(bundled.interior_coeffs)
        for a, b in zip(q.boundary_ops, bundled.boundary_ops):
            assert a.order == b.order
            assert dict(a.coeffs) == dict(b.coeffs)
        assert q.phi == bundled.phi and q.phi_prime == bundled.phi_prime

    def test_malformed_json_raises_value_error(self):
        with pytest.raises(ValueError, match="malformed"):
            mdl.loads_problem("{not json")

    def test_missing_field_raises_value_error(self):
        with pytest.raises(ValueError):
            mdl.loads_problem(json.dumps({"n": 2}))
