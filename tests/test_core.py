"""Spin operator algebra, basis states, and rotations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesospin import (
    Direction,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    basis_state,
    dimension,
    expectation,
    expi_hermitian,
    fidelity,
    m_values,
    make_operators,
    projector,
    spin_of,
    spin_variance,
)

spins = st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0, 8.0])
angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False, allow_infinity=False)


def test_dimension_and_m_values():
    assert dimension(8) == 17
    assert dimension(0.5) == 2
    np.testing.assert_array_equal(m_values(1.5), [-1.5, -0.5, 0.5, 1.5])


@given(spins)
def test_commutator_algebra(j):
    ops = make_operators(j)
    comm = ops.jx @ ops.jy - ops.jy @ ops.jx
    np.testing.assert_allclose(comm, 1j * ops.jz, atol=1e-12)


@given(spins)
def test_casimir(j):
    ops = make_operators(j)
    j2 = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    np.testing.assert_allclose(j2, j * (j + 1) * np.eye(dimension(j)),
                               atol=1e-12)


def test_ladder_matrix_elements():
    ops = make_operators(8)
    jplus = ops.jx + 1j * ops.jy
    m = m_values(8)
    for i in range(16):
        expected = math.sqrt(8 * 9 - m[i] * (m[i] + 1))
        assert jplus[i + 1, i] == pytest.approx(expected, abs=1e-12)


def test_basis_state_z_is_unit_vector():
    v = basis_state(8, -8)
    assert v[0] == 1.0 and np.count_nonzero(v) == 1


def test_basis_state_x_amplitudes_alternate_binomial():
    # |m=-J> along +x has z amplitudes (-1)^m c_m with c_m the square
    # root of the symmetric binomial weight
    v = basis_state(8, -8, X_AXIS)
    m = m_values(8)
    c = np.sqrt([math.comb(16, int(mm + 8)) for mm in m]) / 2.0**8
    np.testing.assert_allclose(v.real, (-1.0) ** m * c, atol=1e-12)
    np.testing.assert_allclose(v.imag, 0.0, atol=1e-12)


def test_basis_state_is_axis_eigenstate():
    axis = Direction(1.1, -0.7)
    ops = make_operators(3)
    n_dot_j = sum(c * op for c, op in zip(axis.vector, (ops.jx, ops.jy, ops.jz)))
    for m in m_values(3):
        v = basis_state(3, m, axis)
        np.testing.assert_allclose(n_dot_j @ v, m * v, atol=1e-12)


def test_basis_state_invalid_m():
    with pytest.raises(ValueError):
        basis_state(8, 0.5)
    with pytest.raises(ValueError):
        basis_state(8, 9)


def test_direction_round_trip():
    np.testing.assert_allclose(Z_AXIS.vector, [0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(X_AXIS.vector, [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(Y_AXIS.vector, [0, 1, 0], atol=1e-15)


@given(spins, angles)
@settings(max_examples=40, deadline=None)
def test_expi_hermitian_is_unitary(j, angle):
    ops = make_operators(j)
    u = expi_hermitian(ops.jy, angle)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(dimension(j)),
                               atol=1e-10)


def test_expectation_and_variance():
    ops = make_operators(8)
    v = basis_state(8, 3)
    assert expectation(ops.jz, v) == pytest.approx(3.0, abs=1e-12)
    assert spin_variance(ops.jz, v) == pytest.approx(0.0, abs=1e-12)
    x = basis_state(8, 8, X_AXIS)
    assert expectation(ops.jx, x) == pytest.approx(8.0, abs=1e-12)
    # transverse variance of a coherent state is j/2
    assert spin_variance(ops.jz, x) == pytest.approx(4.0, abs=1e-12)
    rho = np.outer(x, x.conj())
    assert expectation(ops.jx, rho) == pytest.approx(8.0, abs=1e-12)
    assert spin_variance(ops.jz, rho) == pytest.approx(4.0, abs=1e-12)


def test_fidelity_cases():
    a = basis_state(8, -8)
    b = basis_state(8, 8)
    assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    mix = 0.25 * projector(a) + 0.75 * projector(b)
    assert fidelity(b, mix) == pytest.approx(0.75, abs=1e-12)
    assert fidelity(mix, b) == pytest.approx(0.75, abs=1e-12)


def test_spin_of_infers_from_shape():
    assert spin_of(basis_state(8, 0)) == 8.0
    assert spin_of(np.eye(4)) == 1.5
