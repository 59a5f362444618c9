"""Problem data for constant-coefficient elliptic systems on the half-space.

A problem consists of a homogeneous interior operator of order ``2m``,

    A(D) = sum_{|alpha| = 2m} a_alpha D^alpha,      D = -i * d/dx,

together with ``m`` boundary operators ``B_j(D)`` of orders ``m_j < 2m`` acting
on the boundary ``x_n = 0`` of the half-space ``x_n > 0``.  The parameter
``lambda`` ranges over a sector of opening angle ``phi`` around the positive
real axis, and well-posedness requires

* parameter-ellipticity: ``A(xi)`` stays outside the closed sector of angle
  ``phi_prime`` for every real frequency ``xi != 0``;
* the Lopatinskii-Shapiro condition: at each tangential frequency the boundary
  operators restrict to an isomorphism on the stable subspace of the normal
  ODE (checked numerically on a frequency sample, see
  :func:`check_lopatinskii_shapiro`).

Multi-indices are plain integer tuples of length ``n``.  In JSON problem files
they serialize as comma-joined strings, e.g. ``"0,2"``.

Every operator is evaluated through one compiled form, :class:`Symbol`, built
once per problem (``ModelProblem.interior_symbol`` and
``ModelProblem.boundary_symbols``).  Its normal-order table

    c[..., l] = sum_{alpha_n = l} a_alpha xi'^{alpha'}

serves one tangential frequency or a batch of them; each caller contracts the
table with its own normal variable (a root ``tau``, a normal frequency
``xi_n`` or normal-derivative data ``D_n^l u``) over the normal orders the
operator has, in increasing order.  ``ModelProblem.boundary_traces`` applies
all m boundary operators to one set of normal-derivative traces.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from . import companion

__all__ = [
    "Symbol",
    "BoundaryOperator",
    "ModelProblem",
    "SectorSample",
    "EllipticityReport",
    "LopatinskiiReport",
    "check_ellipticity",
    "check_lopatinskii_shapiro",
    "load_problem",
    "loads_problem",
    "problem_to_json",
    "dirichlet_laplacian",
    "neumann_laplacian",
    "clamped_bilaplacian",
    "BUNDLED",
]

MultiIndex = tuple[int, ...]


def _validate_multi_index(key: MultiIndex, n: int, order: int, what: str) -> None:
    if len(key) != n:
        raise ValueError(f"{what}: multi-index {key} has length {len(key)}, expected {n}")
    if any(k < 0 for k in key):
        raise ValueError(f"{what}: multi-index {key} has negative entries")
    if sum(key) != order:
        raise ValueError(
            f"{what}: multi-index {key} has order {sum(key)}, expected {order} (homogeneous)"
        )


def _tangential(xi_prime, n: int) -> np.ndarray:
    """One tangential frequency (n-1,) or a batch (N, n-1), as floats."""
    xi = np.atleast_1d(np.asarray(xi_prime, dtype=float))
    if xi.shape[-1] != n - 1:
        raise ValueError(f"xi_prime must have length n-1 = {n - 1}")
    return xi


@dataclass(frozen=True)
class Symbol:
    """A homogeneous operator compiled for evaluation.

    ``terms`` holds one ``(a_alpha, ((axis, alpha_axis), ...), alpha_n)`` per
    monomial, with only the nonzero tangential exponents.  Zero coefficients
    are dropped and the monomials are sorted by normal order, so every sum
    runs over the normal orders the operator has, in increasing order.
    """

    n: int
    order: int
    terms: tuple[tuple[complex, tuple[tuple[int, int], ...], int], ...]
    orders: tuple[int, ...]     # distinct normal orders, increasing

    @staticmethod
    def compile(order: int, coeffs: Mapping[MultiIndex, complex]) -> "Symbol":
        """Compile ``{multi-index: coefficient}`` of an operator of that order."""
        keys = sorted((k for k, c in coeffs.items() if c != 0), key=lambda k: (k[-1], k))
        if not keys:
            raise ValueError("operator is identically zero")
        terms = tuple((complex(coeffs[k]),
                       tuple((ax, e) for ax, e in enumerate(k[:-1]) if e), k[-1])
                      for k in keys)
        return Symbol(n=len(keys[0]), order=order, terms=terms,
                      orders=tuple(sorted({k[-1] for k in keys})))

    def _add_table(self, xi: np.ndarray, out: np.ndarray) -> None:
        # scalar integer powers: np.power with an exponent array may take a
        # vector path that rounds x**2 differently from x*x
        for a, factors, l in self.terms:
            tang = 1.0
            for ax, e in factors:
                tang = tang * xi[..., ax] ** e
            out[..., l] += a * tang

    def table(self, xi_prime) -> np.ndarray:
        """Normal-order table ``c[..., l] = sum_{alpha_n = l} a_alpha xi'^alpha'``.

        ``xi_prime`` is one tangential frequency (n-1,) or a batch (N, n-1);
        the table has ``order + 1`` entries per frequency.
        """
        xi = _tangential(xi_prime, self.n)
        c = np.zeros(xi.shape[:-1] + (self.order + 1,), dtype=complex)
        self._add_table(xi, c)
        return c

    def contract(self, table: np.ndarray, normal: Callable[[int], np.ndarray]):
        """``sum_l table[..., l] * normal(l)`` over the normal orders present.

        ``normal(l)`` is the l-th normal factor (``tau^l``, ``xi_n^l`` or
        ``D_n^l u``); axes inserted before the last axis of ``table``
        broadcast it against that factor.
        """
        return sum(table[..., l] * normal(l) for l in self.orders)

    def __call__(self, xi_prime, xi_n) -> np.ndarray:
        """The full symbol at (xi', xi_n), shape xi_prime.shape[:-1] + xi_n.shape."""
        xi_n = np.asarray(xi_n)
        c = self.table(xi_prime)
        c = c.reshape(c.shape[:-1] + (1,) * xi_n.ndim + c.shape[-1:])
        return self.contract(c, lambda l: xi_n ** l)


@dataclass(frozen=True)
class BoundaryOperator:
    """One boundary operator ``B_j(D) = sum_{|beta| = m_j} b_beta D^beta``."""

    order: int
    coeffs: Mapping[MultiIndex, complex]


@dataclass(frozen=True)
class ModelProblem:
    """Immutable problem data ``(A, B_1, ..., B_m)`` plus sector angles."""

    n: int
    m: int
    interior_coeffs: Mapping[MultiIndex, complex]
    boundary_ops: Sequence[BoundaryOperator]
    phi_prime: float
    phi: float
    name: str = "problem"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"'n' must be >= 2, got {self.n}")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        order = 2 * self.m
        if not self.interior_coeffs:
            raise ValueError("interior operator has no coefficients")
        for key in self.interior_coeffs:
            _validate_multi_index(key, self.n, order, "interior")
        pure_normal = (0,) * (self.n - 1) + (order,)
        if self.interior_coeffs.get(pure_normal, 0) == 0:
            raise ValueError(
                "pure-normal coefficient a_(0,...,0,2m) vanishes; the normal ODE "
                "degenerates and the half-space problem is ill posed"
            )
        if len(self.boundary_ops) != self.m:
            raise ValueError(
                f"need exactly m = {self.m} boundary operators, got {len(self.boundary_ops)}"
            )
        for j, bop in enumerate(self.boundary_ops):
            if not (0 <= bop.order < order):
                raise ValueError(f"boundary operator {j}: order {bop.order} not in [0, 2m)")
            if not any(c != 0 for c in bop.coeffs.values()):
                raise ValueError(f"boundary operator {j} is identically zero")
            for key in bop.coeffs:
                _validate_multi_index(key, self.n, bop.order, f"boundary[{j}]")
        if not (0 < self.phi_prime <= math.pi):
            raise ValueError("phi_prime must lie in (0, pi]")
        if not (0 < self.phi < self.phi_prime):
            raise ValueError("phi must lie in (0, phi_prime)")

    @property
    def order(self) -> int:
        return 2 * self.m

    @cached_property
    def interior_symbol(self) -> Symbol:
        """A(xi', tau), compiled once per problem."""
        return Symbol.compile(self.order, self.interior_coeffs)

    @cached_property
    def boundary_symbols(self) -> tuple[Symbol, ...]:
        """B_j(xi', tau) for j = 1..m, compiled once per problem."""
        return tuple(Symbol.compile(b.order, b.coeffs) for b in self.boundary_ops)

    def boundary_table(self, xi_prime) -> np.ndarray:
        """Normal-order tables of all B_j, zero-padded to width 2m: (..., m, 2m)."""
        xi = _tangential(xi_prime, self.n)
        out = np.zeros(xi.shape[:-1] + (self.m, self.order), dtype=complex)
        for j, sym in enumerate(self.boundary_symbols):
            sym._add_table(xi, out[..., j, :])
        return out

    def boundary_traces(self, xi_prime, normal: Callable[[int], np.ndarray]) -> np.ndarray:
        """tr B_j for every j: shape (m,) + the broadcast of
        ``xi_prime.shape[:-1]`` with the shape of ``normal(l)``.

        ``normal(l)`` gives D_n^l u at x_n = 0; it is called once for each
        normal order that any B_j has.
        """
        table = self.boundary_table(xi_prime)
        syms = self.boundary_symbols
        dn = {l: normal(l) for l in sorted({l for sym in syms for l in sym.orders})}
        return np.array([sym.contract(table[..., j, :], dn.__getitem__)
                         for j, sym in enumerate(syms)])


@dataclass(frozen=True)
class SectorSample:
    """Sample of the parameter sector: rays (arguments) x log-spaced moduli."""

    rays: tuple[float, ...]
    moduli: tuple[float, ...]

    def __post_init__(self):
        if not all(mod > 0 for mod in self.moduli):
            raise ValueError(f"moduli must be positive, got {self.moduli}")

    @staticmethod
    def default(phi: float, *, n_rays: int, n_moduli: int,
                sigma_floor: float = 1.0, mod_max: float = 1e6) -> "SectorSample":
        """Rays spanning [-phi, phi], moduli log-spaced from sigma_floor to mod_max."""
        for key, value in (("n_rays", n_rays), ("n_moduli", n_moduli)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        # checked here, before their logarithms are taken; equal ends would
        # give one modulus n_moduli times, a range of no decades
        if not 0 < sigma_floor < mod_max:
            raise ValueError(f"need 0 < sigma_floor < mod_max, got sigma_floor="
                             f"{sigma_floor}, mod_max={mod_max}")
        rays = tuple(np.linspace(-phi, phi, n_rays))
        moduli = tuple(np.logspace(math.log10(sigma_floor), math.log10(mod_max), n_moduli))
        return SectorSample(rays=rays, moduli=moduli)

    def points(self):
        """All sampled lambda values, as a flat complex array."""
        out = [mod * cmath.exp(1j * theta) for theta in self.rays for mod in self.moduli]
        return np.array(out, dtype=complex)


@dataclass(frozen=True)
class EllipticityReport:
    passed: bool
    worst_margin: float
    worst_direction: tuple[float, ...] | None


@dataclass(frozen=True)
class LopatinskiiReport:
    passed: bool
    min_singular_value: float
    worst_point: tuple | None    # (xi', lambda) of the smallest value
    condition_number: float


def unit_directions(n: int, count: int) -> np.ndarray:
    """Deterministic sample of unit vectors on the sphere in R^n."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    rng = np.random.default_rng(7)
    v = rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def check_ellipticity(problem: ModelProblem) -> EllipticityReport:
    """Sample-based parameter-ellipticity check on the unit sphere.

    Passes iff ``A(xi)`` keeps a positive angular margin to the sector of
    half-angle ``phi_prime`` for each of 64 sampled unit directions
    (homogeneity reduces the check to the sphere).
    """
    d = unit_directions(problem.n, 64)
    sym = problem.interior_symbol
    A = sym.contract(sym.table(d[:, :-1]), lambda l: d[:, -1] ** l)
    # angular distance of A from the closed sector |arg| <= phi_prime
    margin = np.abs(np.angle(A)) - problem.phi_prime
    q = int(np.argmin(margin))
    return EllipticityReport(passed=bool(margin[q] > 0), worst_margin=float(margin[q]),
                             worst_direction=tuple(d[q]))


# the tangential frequencies of the LS sample: these moduli along unit
# directions (both directions when n = 2)
_LS_DIRECTIONS = 8
_LS_MODULI = (0.0, 0.5, 1.0, 4.0, 32.0)


def check_lopatinskii_shapiro(problem: ModelProblem,
                              sample: SectorSample) -> LopatinskiiReport:
    """Verify unique decaying solvability of the boundary ODE on a sample.

    The grid ``sample.points()`` x (``_LS_MODULI`` along each direction) is
    one batch through :func:`halfpoisson.companion.build_companion` and
    :func:`halfpoisson.companion.boundary_map_conditioning`: the boundary
    map restricted to the stable subspace must be invertible.  The report
    carries the worst (smallest) singular value of that map with each row
    divided by its boundary row, and its (xi', lambda); a point with other
    than m stable roots scores 0.  It passes above the kernel's LS threshold.
    """
    dirs = unit_directions(problem.n - 1, _LS_DIRECTIONS)
    tangential = np.vstack([np.outer(_LS_MODULI, d) for d in dirs])
    points = sample.points()
    char, rows, rho = companion._frequency_rows(problem, points, tangential)
    taus, _, counts = companion.build_companion(char, rho)
    svals = companion.boundary_map_conditioning(taus / rho[:, None], rows)[0]
    svals[counts != problem.m] = 0.0
    worst = int(np.argmin(svals[:, -1]))
    min_sv = float(svals[worst, -1])
    i, k = divmod(worst, len(tangential))
    return LopatinskiiReport(
        passed=min_sv > companion._LS_TOL,
        min_singular_value=min_sv,
        worst_point=(tuple(tangential[k]), complex(points[i])),
        condition_number=float(svals[worst, 0] / min_sv) if min_sv > 0 else math.inf,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def _key_to_str(key: MultiIndex) -> str:
    return ",".join(str(k) for k in key)


def _str_to_key(s: str) -> MultiIndex:
    return tuple(int(part) for part in s.split(","))


def problem_to_json(problem: ModelProblem) -> str:
    doc = {
        "n": problem.n,
        "m": problem.m,
        "interior": {
            _key_to_str(k): [complex(v).real, complex(v).imag]
            for k, v in sorted(problem.interior_coeffs.items())
        },
        "boundary": [
            {
                "order": b.order,
                "coeffs": {
                    _key_to_str(k): [complex(v).real, complex(v).imag]
                    for k, v in sorted(b.coeffs.items())
                },
            }
            for b in problem.boundary_ops
        ],
        "phi_prime": problem.phi_prime,
        "phi": problem.phi,
    }
    return json.dumps(doc, indent=2)


def loads_problem(text: str, name: str = "problem") -> ModelProblem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed problem JSON: {exc}") from exc
    try:
        interior = {
            _str_to_key(k): complex(v[0], v[1]) for k, v in doc["interior"].items()
        }
        boundary = [
            BoundaryOperator(
                order=int(entry["order"]),
                coeffs={
                    _str_to_key(k): complex(v[0], v[1])
                    for k, v in entry["coeffs"].items()
                },
            )
            for entry in doc["boundary"]
        ]
        return ModelProblem(
            n=int(doc["n"]),
            m=int(doc["m"]),
            interior_coeffs=interior,
            boundary_ops=boundary,
            phi_prime=float(doc["phi_prime"]),
            phi=float(doc["phi"]),
            name=name,
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"problem JSON missing or malformed field: {exc}") from exc


def load_problem(path) -> ModelProblem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os

    return loads_problem(text, name=os.path.splitext(os.path.basename(str(path)))[0])


# ---------------------------------------------------------------------------
# Bundled problems
# ---------------------------------------------------------------------------

def _laplacian_interior(n: int) -> dict[MultiIndex, complex]:
    # Laplacian = -sum_j D_j^2, so A(xi) = -|xi|^2
    coeffs = {}
    for j in range(n):
        key = tuple(2 if i == j else 0 for i in range(n))
        coeffs[key] = -1.0 + 0j
    return coeffs


def dirichlet_laplacian(n: int = 2) -> ModelProblem:
    """Laplacian with the trace boundary condition, A(xi) = -|xi|^2."""
    trace = BoundaryOperator(order=0, coeffs={(0,) * n: 1.0 + 0j})
    return ModelProblem(
        n=n, m=1,
        interior_coeffs=_laplacian_interior(n),
        boundary_ops=[trace],
        phi_prime=math.pi - 0.01,
        phi=0.75 * math.pi,
        name="dirichlet_laplacian",
    )


def neumann_laplacian(n: int = 2) -> ModelProblem:
    """Laplacian with the normal-derivative boundary condition B = D_n."""
    dn = BoundaryOperator(order=1, coeffs={(0,) * (n - 1) + (1,): 1.0 + 0j})
    return ModelProblem(
        n=n, m=1,
        interior_coeffs=_laplacian_interior(n),
        boundary_ops=[dn],
        phi_prime=math.pi - 0.01,
        phi=0.75 * math.pi,
        name="neumann_laplacian",
    )


def clamped_bilaplacian(n: int = 2) -> ModelProblem:
    """Bi-Laplacian A(xi) = -|xi|^4 with clamped conditions (trace, D_n)."""
    # expand -(sum xi_j^2)^2 into monomials
    coeffs: dict[MultiIndex, complex] = {}
    for i in range(n):
        for j in range(n):
            key = [0] * n
            key[i] += 2
            key[j] += 2
            key = tuple(key)
            coeffs[key] = coeffs.get(key, 0) - 1.0
    trace = BoundaryOperator(order=0, coeffs={(0,) * n: 1.0 + 0j})
    dn = BoundaryOperator(order=1, coeffs={(0,) * (n - 1) + (1,): 1.0 + 0j})
    return ModelProblem(
        n=n, m=2,
        interior_coeffs=coeffs,
        boundary_ops=[trace, dn],
        phi_prime=math.pi - 0.01,
        phi=0.75 * math.pi,
        name="clamped_bilaplacian",
    )


BUNDLED = {
    "dirichlet_laplacian": dirichlet_laplacian,
    "neumann_laplacian": neumann_laplacian,
    "clamped_bilaplacian": clamped_bilaplacian,
}

