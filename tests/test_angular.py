"""Coupling coefficients, tensor operators, and sphere quadrature.

The spherical harmonics checked here are the reference of `tests/multipole.py`.
"""

import math

import numpy as np
import pytest
from sympy import N as sym_eval
from sympy import Rational, Ynm, symbols
from sympy.physics.quantum.cg import CG

from mesospin import (
    clebsch_gordan,
    clenshaw_curtis_weights,
    make_operators,
    sphere_integral,
    sphere_quadrature,
    tensor_operator,
)
from multipole import spherical_harmonic


def _sympy_cg(j1, m1, j2, m2, j, m):
    args = [Rational(int(round(2 * x)), 2) for x in (j1, m1, j2, m2, j, m)]
    return float(sym_eval(CG(*args).doit(), 25))


def test_clebsch_gordan_matches_symbolic_reference():
    cases = []
    for j1, j2 in ((0.5, 0.5), (1.0, 0.5), (1.0, 1.0), (2.0, 1.5), (8.0, 2.0)):
        js = np.arange(abs(j1 - j2), j1 + j2 + 0.5)
        for j in js:
            for m1 in np.arange(-j1, j1 + 0.5):
                for m2 in np.arange(-j2, j2 + 0.5):
                    m = m1 + m2
                    if abs(m) <= j:
                        cases.append((j1, m1, j2, m2, j, m))
    assert len(cases) > 200
    for case in cases:
        assert clebsch_gordan(*case) == pytest.approx(_sympy_cg(*case), abs=1e-13), case


def test_clebsch_gordan_high_rank_values():
    # rank 16 coupling of the spin-8 tensor operators
    for q in (0, 3, 16):
        for m in np.arange(-8.0, 8.5):
            if abs(m + q) <= 8:
                got = clebsch_gordan(8, m, 16, q, 8, m + q)
                assert got == pytest.approx(_sympy_cg(8, m, 16, q, 8, m + q), abs=1e-13)


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(1, 1, 1, 1, 2, 1) == 0.0
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 1, 0) == pytest.approx(
        math.sqrt(0.5), abs=1e-15
    )
    with pytest.raises(ValueError):
        clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)


def test_tensor_operators_are_orthonormal():
    ops = [(0, 0), (1, 0), (1, 1), (2, -2), (7, 3), (16, 0), (16, 16)]
    mats = {lq: tensor_operator(8, *lq) for lq in ops}
    for a in ops:
        for b in ops:
            want = 1.0 if a == b else 0.0
            got = np.trace(mats[a].conj().T @ mats[b])
            assert abs(got - want) < 1e-12, (a, b)


def test_tensor_operator_adjoint_relation():
    for ell, q in ((1, 1), (2, 1), (5, -4), (16, 7)):
        t = tensor_operator(8, ell, q)
        back = (-1) ** q * tensor_operator(8, ell, -q).conj().T
        assert np.allclose(t, back, atol=1e-13)


def test_rank_zero_and_rank_one_tensors():
    assert np.allclose(tensor_operator(8, 0, 0), np.eye(17) / math.sqrt(17), atol=1e-14)
    j = 8.0
    jz = make_operators(j).jz
    c = math.sqrt(3.0 / (j * (j + 1) * (2 * j + 1)))
    assert np.allclose(tensor_operator(8, 1, 0), c * jz, atol=1e-13)


def test_tensor_operator_validation():
    with pytest.raises(ValueError):
        tensor_operator(8, 17, 0)
    with pytest.raises(ValueError):
        tensor_operator(8, 2, 3)


def test_spherical_harmonics_low_rank_closed_forms():
    theta, phi = 0.7, 1.3
    assert spherical_harmonic(0, 0, theta, phi) == pytest.approx(
        1 / math.sqrt(4 * math.pi), abs=1e-14
    )
    assert spherical_harmonic(1, 0, theta, phi) == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(theta), abs=1e-14
    )
    want = -math.sqrt(3 / (8 * math.pi)) * math.sin(theta) * np.exp(1j * phi)
    assert spherical_harmonic(1, 1, theta, phi) == pytest.approx(want, abs=1e-14)
    for ell, q in ((1, 1), (2, 2), (5, 3)):
        plus = spherical_harmonic(ell, q, theta, phi)
        minus = spherical_harmonic(ell, -q, theta, phi)
        assert minus == pytest.approx((-1) ** q * np.conj(plus), abs=1e-13)


def test_spherical_harmonics_match_symbolic_reference():
    theta, phi = symbols("theta phi")
    for ell in range(17):
        for q in range(ell + 1):
            closed_form = Ynm(ell, q, theta, phi).expand(func=True)
            for t, p in ((0.7, 1.3), (2.9, -0.4)):
                want = complex(closed_form.evalf(30, subs={theta: t, phi: p}))
                got = spherical_harmonic(ell, q, t, p)
                assert got == pytest.approx(want, abs=1e-13), (ell, q, t)


def test_clenshaw_curtis_integrates_polynomials_exactly():
    n = 8
    x = np.cos(np.arange(n + 1) * math.pi / n)
    w = clenshaw_curtis_weights(n)
    for degree in range(n + 1):
        exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
        assert np.sum(w * x**degree) == pytest.approx(exact, abs=1e-13), degree
    with pytest.raises(ValueError):
        clenshaw_curtis_weights(1)


def test_sphere_integral_exact_for_band_limited_fields():
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.arange(360) * 2 * math.pi / 360
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    assert sphere_integral(np.ones_like(tt), thetas, phis) == pytest.approx(
        4 * math.pi, abs=1e-10
    )
    assert sphere_integral(np.cos(tt) ** 2, thetas, phis) == pytest.approx(
        4 * math.pi / 3, abs=1e-10
    )
    y = spherical_harmonic(8, 3, tt, pp)
    assert sphere_integral(np.abs(y) ** 2, thetas, phis) == pytest.approx(1.0, abs=1e-10)


def test_sphere_integral_rejects_wrong_shapes_and_grids():
    thetas = np.linspace(0.0, math.pi, 181)
    phis = np.arange(360) * 2 * math.pi / 360
    with pytest.raises(ValueError):
        sphere_integral(np.ones((5, 5)), thetas, phis)
    # the quadrature holds for uniform grids only
    skew_t = np.sqrt(np.linspace(0.0, 1.0, 401)) * math.pi
    skew_p = np.linspace(0.0, 2 * math.pi, 720)
    for grid_t, grid_p in ((skew_t, phis), (thetas, skew_p)):
        with pytest.raises(ValueError):
            sphere_integral(np.ones((len(grid_t), len(grid_p))), grid_t, grid_p)
    # an empty azimuth grid has no step 2 pi / n
    with pytest.raises(ValueError, match="non-empty"):
        sphere_integral(np.ones((181, 0)), thetas, [])


def test_quadrature_weights_shape():
    thetas = np.linspace(0.0, math.pi, 19)
    phis = np.arange(12) * 2 * math.pi / 12
    w = sphere_quadrature(thetas, phis)
    assert w.shape == (19, 12)
    assert np.sum(w) == pytest.approx(4 * math.pi, abs=1e-10)