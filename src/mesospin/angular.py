"""Angular-momentum coupling and sphere utilities.

Clebsch-Gordan coefficients are evaluated by the Racah closed-form sum
with exact integer arithmetic (factorials up to the full argument range)
and converted to floating point only at the end, which stays accurate at
the large ranks (ell up to 2J = 16) of the tensor operators T_ell^q.
Their q = 0 diagonals make up the Wigner kernel of `tomography.wigner`;
the sphere quadrature integrates the resulting maps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "clebsch_gordan",
    "tensor_operator",
    "clenshaw_curtis_weights",
    "sphere_quadrature",
    "sphere_integral",
]


def _half_int(x, name):
    two_x = int(round(2 * x))
    if abs(2 * x - two_x) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return two_x


@lru_cache(maxsize=None)
def _cg_exact(two_j1, two_m1, two_j2, two_m2, two_j, two_m):
    if two_m1 + two_m2 != two_m:
        return 0, Fraction(0)
    if not (abs(two_j1 - two_j2) <= two_j <= two_j1 + two_j2):
        return 0, Fraction(0)
    if (two_j1 + two_j2 + two_j) % 2:
        return 0, Fraction(0)
    if abs(two_m1) > two_j1 or abs(two_m2) > two_j2 or abs(two_m) > two_j:
        return 0, Fraction(0)
    if (two_j1 + two_m1) % 2 or (two_j2 + two_m2) % 2 or (two_j + two_m) % 2:
        return 0, Fraction(0)

    def f(two_x):
        if two_x % 2:
            raise ValueError("non-integer factorial argument")
        n = two_x // 2
        if n < 0:
            raise ValueError("negative factorial argument")
        return math.factorial(n)

    prefactor = Fraction(
        (two_j + 1)
        * f(two_j1 + two_j2 - two_j)
        * f(two_j1 - two_j2 + two_j)
        * f(-two_j1 + two_j2 + two_j),
        f(two_j1 + two_j2 + two_j + 2),
    ) * Fraction(
        f(two_j + two_m)
        * f(two_j - two_m)
        * f(two_j1 - two_m1)
        * f(two_j1 + two_m1)
        * f(two_j2 - two_m2)
        * f(two_j2 + two_m2)
    )
    k_min = max(0, (two_j2 - two_j - two_m1) // 2, (two_j1 + two_m2 - two_j) // 2)
    k_max = min(
        (two_j1 + two_j2 - two_j) // 2,
        (two_j1 - two_m1) // 2,
        (two_j2 + two_m2) // 2,
    )
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        term = Fraction((-1) ** k) / (
            math.factorial(k)
            * f(two_j1 + two_j2 - two_j - 2 * k)
            * f(two_j1 - two_m1 - 2 * k)
            * f(two_j2 + two_m2 - 2 * k)
            * f(two_j - two_j2 + two_m1 + 2 * k)
            * f(two_j - two_j1 - two_m2 + 2 * k)
        )
        total += term
    sign = 1 if total > 0 else (-1 if total < 0 else 0)
    return sign, total * total * prefactor


def clebsch_gordan(j1, m1, j2, m2, j, m):
    """Coefficient <j1 m1; j2 m2 | j m> in the Condon-Shortley convention.

    Exact rational arithmetic internally; the returned float is correct
    to one rounding.
    """
    sign, square = _cg_exact(
        _half_int(j1, "j1"),
        _half_int(m1, "m1"),
        _half_int(j2, "j2"),
        _half_int(m2, "m2"),
        _half_int(j, "j"),
        _half_int(m, "m"),
    )
    return sign * math.sqrt(float(square))


@lru_cache(maxsize=None)
def _tensor_operator(two_j, ell, q):
    j = two_j / 2.0
    d = two_j + 1
    t = np.zeros((d, d), dtype=complex)
    scale = math.sqrt((2 * ell + 1) / (d))
    for col, m in enumerate(np.arange(d) - j):
        row = col + q
        if 0 <= row < d:
            t[row, col] = scale * clebsch_gordan(j, m, ell, q, j, m + q)
    t.setflags(write=False)
    return t


def tensor_operator(j, ell, q):
    """Orthonormal irreducible tensor operator T_ell^q for spin j.

    (T_ell^q)_{m', m} = sqrt((2 ell + 1)/(2j+1)) <j m; ell q | j m'>,
    satisfying Tr(T_a^dag T_b) = delta_ab and
    T_{ell,-q} = (-1)^q T_{ell,q}^dag.
    """
    two_j = _half_int(j, "j")
    if not 0 <= ell <= two_j:
        raise ValueError(f"rank ell must lie in [0, 2j], got {ell}")
    if abs(q) > ell:
        raise ValueError(f"component |q| must not exceed ell, got {q}")
    return _tensor_operator(two_j, int(ell), int(q))


def clenshaw_curtis_weights(n):
    """Weights for the n+1 nodes x_k = cos(k pi / n) on [-1, 1].

    Exact for polynomials of degree <= n (n even); used for the polar
    integral because a uniform theta grid over [0, pi] is exactly this
    node set in cos(theta).
    """
    if n < 2:
        raise ValueError("need at least 3 nodes")
    k = np.arange(n + 1)
    w = np.zeros(n + 1)
    jmax = n // 2
    for kk in k:
        acc = 0.0
        for jj in range(1, jmax + 1):
            b = 1.0 if 2 * jj == n else 2.0
            acc += b / (4 * jj**2 - 1) * math.cos(2 * jj * kk * math.pi / n)
        w[kk] = (2.0 / n) * (1.0 - acc)
    w[0] /= 2.0
    w[-1] /= 2.0
    return w


def _theta_weights(thetas):
    n = len(thetas) - 1
    if not np.allclose(thetas, np.linspace(0.0, math.pi, n + 1), atol=1e-12):
        raise ValueError("polar angles must be a uniform grid over [0, pi]")
    return clenshaw_curtis_weights(n)


def _phi_weights(phis):
    n = len(phis)
    if n == 0 or not np.allclose(np.diff(phis), 2 * math.pi / n, atol=1e-12):
        raise ValueError("azimuths must be a non-empty uniform grid of step 2 pi / n")
    return np.full(n, 2 * math.pi / n)


def sphere_quadrature(thetas, phis):
    """Outer-product quadrature weights for an integral over the sphere.

    The polar angles must be a uniform grid spanning [0, pi], weighted by
    Clenshaw-Curtis weights in cos(theta), which integrate band-limited
    fields exactly; the azimuths a uniform grid without a duplicated
    endpoint, weighted equally by 2 pi / n.  Any other grid raises
    ValueError.
    """
    return np.outer(_theta_weights(thetas), _phi_weights(phis))


def sphere_integral(values, thetas, phis):
    """Integral over the sphere of a field sampled on a theta x phi grid."""
    values = np.asarray(values)
    if values.shape != (len(thetas), len(phis)):
        raise ValueError("field shape must be (n_theta, n_phi)")
    return float(np.sum(values * sphere_quadrature(thetas, phis)))
