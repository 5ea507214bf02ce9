import math

import numpy as np
import pytest

from qdes.linalg import (
    Projector,
    is_unitary,
    norm,
    projected_norm_sq,
    tensor,
    unitary_power,
)

from helpers import naive_kron, random_state, random_unitary


def rotation(theta):
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )


def test_docstring_examples():
    import doctest

    import qdes.linalg

    failed, _ = doctest.testmod(qdes.linalg)
    assert failed == 0


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_rotation_pair_on_basis_state(self):
        # Hand oracle: the 4x4 product applied to e0 (x) e0 must factor into
        # the two rotated 2-vectors.
        t1, t2 = 0.3, 1.1
        e0 = np.array([1.0, 0.0], dtype=complex)
        lhs = tensor(rotation(t1), rotation(t2)) @ tensor(e0, e0)
        rhs = tensor(rotation(t1) @ e0, rotation(t2) @ e0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)

    def test_matches_naive_block_oracle(self):
        rng = np.random.default_rng(7)
        for rows_a in range(1, 4):
            for cols_a in range(1, 4):
                for rows_b in range(1, 4):
                    for cols_b in range(1, 4):
                        a = rng.normal(size=(rows_a, cols_a)) + 1j * rng.normal(size=(rows_a, cols_a))
                        b = rng.normal(size=(rows_b, cols_b)) + 1j * rng.normal(size=(rows_b, cols_b))
                        got = tensor(a, b)
                        assert got.shape == (rows_a * rows_b, cols_a * cols_b)
                        np.testing.assert_allclose(got, naive_kron(a, b), rtol=1e-14, atol=0)

    def test_block_dimensions_up_to_six(self):
        for rows_a in range(1, 7):
            for rows_b in range(1, 7):
                a = np.ones((rows_a, 7 - rows_a))
                b = np.ones((rows_b, 7 - rows_b))
                t = tensor(a, b)
                assert t.shape == (rows_a * rows_b, (7 - rows_a) * (7 - rows_b))

    def test_bitwise_equal_to_kron(self):
        rng = np.random.default_rng(13)
        shapes = [((1, 1), (1, 1)), ((1, 1), (3, 2)), ((2, 3), (1, 1)), ((2, 3), (4, 2)), ((4, 4), (4, 4))]
        for sa, sb in shapes:
            for complex_entries in (False, True):
                a, b = rng.normal(size=sa), rng.normal(size=sb)
                if complex_entries:
                    a, b = a + 1j * rng.normal(size=sa), b + 1j * rng.normal(size=sb)
                assert np.array_equal(tensor(a, b), np.kron(a, b))
        for la, lb in ((1, 1), (1, 4), (3, 1), (3, 5)):
            a, b = random_state(rng, la), rng.normal(size=lb)
            assert np.array_equal(tensor(a, b), np.kron(a, b))

    def test_stacks_combine_pairwise(self):
        rng = np.random.default_rng(17)
        us = np.array([random_unitary(rng, 3) for _ in range(4)])
        stacked = tensor(us, np.conj(us))
        assert stacked.shape == (4, 9, 9)
        assert all(np.array_equal(stacked[i], np.kron(u, np.conj(u))) for i, u in enumerate(us))

    def test_mixed_product_law(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = tensor(a, b) @ tensor(c, d)
            rhs = tensor(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(5))

    def test_rotation_by_closed_form(self):
        # M M† for a rotation is I exactly up to rounding: verify the
        # closed form first, then the predicate.
        m = rotation(math.pi / 4)
        prod = m @ np.conj(m).T
        assert np.max(np.abs(prod - np.eye(2))) < 1e-15
        assert is_unitary(m)

    def test_scaling_matrix_fails(self):
        assert not is_unitary(np.diag([1.0, 2.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            is_unitary(np.ones((2, 3)))

    def test_unitaries_preserve_norm(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            for _ in range(10):
                u = random_unitary(rng, n)
                assert is_unitary(u, 1e-9)
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                assert abs(norm(u @ v) - norm(v)) <= 1e-8

    def test_unitary_power_inverts(self):
        rng = np.random.default_rng(9)
        u = random_unitary(rng, 3)
        np.testing.assert_allclose(unitary_power(u, 3) @ unitary_power(u, -3), np.eye(3), atol=1e-12)


class TestProjector:
    def test_apply_is_idempotent_exactly(self):
        rng = np.random.default_rng(1)
        p = Projector(frozenset({0, 2}), 4)
        v = random_state(rng, 4)
        once = p.apply(v)
        np.testing.assert_array_equal(p.apply(once), once)

    def test_matrix_is_projection_and_hermitian(self):
        p = Projector(frozenset({1, 3}), 5)
        m = p.as_matrix()
        np.testing.assert_array_equal(m @ m, m)
        np.testing.assert_array_equal(m, np.conj(m).T)

    def test_complement_partitions(self):
        p = Projector(frozenset({0}), 3)
        assert p.complement().subset == frozenset({1, 2})
        np.testing.assert_array_equal(p.as_matrix() + p.complement().as_matrix(), np.eye(3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Projector(frozenset({3}), 3)


class TestProjectedNormSq:
    def test_full_set_on_unit_vector(self):
        v = random_state(np.random.default_rng(2), 6)
        assert abs(projected_norm_sq(Projector.full(6), v) - 1.0) <= 1e-12

    def test_empty_set(self):
        assert projected_norm_sq(Projector.empty(4), np.ones(4)) == 0.0

    def test_half_mass(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(projected_norm_sq(Projector(frozenset({0}), 2), v) - 0.5) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            projected_norm_sq(Projector.full(3), np.ones(4))

    def test_bounded_by_total_mass(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            p = Projector(frozenset(int(i) for i in rng.choice(5, size=2, replace=False)), 5)
            val = projected_norm_sq(p, v)
            assert 0.0 <= val <= norm(v) ** 2 + 1e-12
