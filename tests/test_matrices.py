
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscf.errors import NotInU21, PointAtInfinity
from heiscf.gaussian import GaussInt
from heiscf.matrices import (
    IDENTITY,
    J,
    column,
    digit_matrix,
    mat_apply,
    mat_apply_triple,
    mat_mul,
    mul_digit_matrix,
    translate,
    translation_matrix,
    u21_check,
    u21_inverse,
)
from heiscf.siegel import (
    IntegerPoint,
    ProjIntPoint,
    SiegelPoint,
    group_mul,
    triple_to_planar,
)


def integer_points(ab=st.integers(-5, 5), c=st.integers(-9, 9)):
    """Strategy for integer model points (parity-matched u, free Im v)."""

    def build(a, b, c):
        if (a + b) % 2 != 0:
            b += 1
        return IntegerPoint(GaussInt(a, b), GaussInt((a * a + b * b) // 2, c))

    return st.builds(build, ab, ab, c)


gauss_ints = st.builds(GaussInt, st.integers(-50, 50), st.integers(-50, 50))


class TestConstructions:
    def test_J_in_group(self):
        assert u21_check(J)

    def test_J_squared_identity(self):
        assert mat_mul(J, J) == IDENTITY

    @given(integer_points())
    def test_translation_in_group(self, g):
        assert u21_check(translation_matrix(g))

    @given(integer_points())
    def test_digit_in_group(self, g):
        assert u21_check(digit_matrix(g))
        assert digit_matrix(g) == mat_mul(J, translation_matrix(g))

    def test_u21_check_rejects(self):
        m = IDENTITY
        bad = tuple(
            tuple(GaussInt(2, 0) if i == j == 0 else m[i][j] for j in range(3))
            for i in range(3)
        )
        assert not u21_check(bad)


class TestInverse:
    @given(integer_points(), integer_points())
    @settings(max_examples=40)
    def test_inverse_of_product(self, g1, g2):
        m = mat_mul(digit_matrix(g1), digit_matrix(g2))
        assert mul_digit_matrix(digit_matrix(g1), g2) == m  # the closed form
        assert mat_mul(m, u21_inverse(m)) == IDENTITY
        assert mat_mul(u21_inverse(m), m) == IDENTITY

    def test_inverse_requires_membership(self):
        m = IDENTITY
        bad = tuple(
            tuple(GaussInt(2, 0) if i == j == 0 else m[i][j] for j in range(3))
            for i in range(3)
        )
        with pytest.raises(NotInU21):
            u21_inverse(bad)


def dagger(m):
    """The conjugate transpose m^dag."""
    return tuple(tuple(m[j][i].conj() for j in range(3)) for i in range(3))


def j_dagger_j(m):
    """J m^dag J as two general products."""
    return mat_mul(mat_mul(J, dagger(m)), J)


def perturbed(m, i, j, e):
    """m with e added to entry (i, j)."""
    rows = [list(row) for row in m]
    rows[i][j] = rows[i][j] + e
    return tuple(tuple(row) for row in rows)


small_gauss_ints = st.builds(GaussInt, st.integers(-1, 1), st.integers(-1, 1))
members = st.builds(
    lambda g1, g2: mat_mul(digit_matrix(g1), translation_matrix(g2)),
    integer_points(), integer_points(),
)
# arbitrary small matrices, members of U(2,1) and members with one entry moved
matrices = st.one_of(
    st.lists(st.lists(small_gauss_ints, min_size=3, max_size=3), min_size=3, max_size=3)
    .map(lambda rows: tuple(tuple(row) for row in rows)),
    members,
    st.builds(perturbed, members, st.integers(0, 2), st.integers(0, 2), small_gauss_ints),
)


def mul_digit_matrix_reference(m, gamma):
    """m * A_gamma in closed form through GaussInt products."""
    u, v = gamma.u, gamma.v
    uc = u.conj()
    return tuple((u * c1 - v * c0 - c2, c1 - uc * c0, -c0) for c0, c1, c2 in m)


big_ints = st.integers(-(2**512), 2**512)
big_gauss_ints = st.builds(GaussInt, big_ints, big_ints)
big_matrices = st.lists(
    st.lists(st.one_of(big_gauss_ints, small_gauss_ints), min_size=3, max_size=3),
    min_size=3, max_size=3,
).map(lambda rows: tuple(tuple(row) for row in rows))


class TestMulDigitMatrix:
    @given(st.one_of(big_matrices, matrices),
           st.one_of(integer_points(big_ints, big_ints), integer_points()))
    @settings(max_examples=200)
    def test_matches_reference(self, m, g):
        assert mul_digit_matrix(m, g) == mul_digit_matrix_reference(m, g)
        assert mul_digit_matrix(m, g) == mat_mul(m, digit_matrix(g))


class TestColumn:
    @given(matrices)
    @settings(max_examples=40)
    def test_columns_transpose_the_rows(self, m):
        assert tuple(column(m, j) for j in range(3)) == tuple(zip(*m))
        assert all(len(row) == 3 and type(row) is tuple for row in m)


class TestAdjoint:
    @given(matrices)
    @settings(max_examples=200)
    def test_u21_check_matches_products(self, m):
        assert u21_check(m) == (mat_mul(j_dagger_j(m), m) == IDENTITY)

    @given(members)
    @settings(max_examples=40)
    def test_inverse_is_j_dagger_j(self, m):
        assert u21_inverse(m) == j_dagger_j(m)


class TestAction:
    @given(integer_points(), integer_points())
    @settings(max_examples=40)
    def test_translation_acts_as_group_mul(self, g, x):
        """T_g applied to a planar point equals g * point."""
        h = x.to_siegel()
        moved = mat_apply(translation_matrix(g), h)
        assert moved == group_mul(g.to_siegel(), h)

    @given(integer_points(), st.lists(gauss_ints, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_translate_is_the_matrix_action(self, g, t):
        """The closed form equals T_g applied to any triple."""
        assert translate(g, t) == mat_apply_triple(translation_matrix(g), t)

    @given(integer_points(), integer_points(), integer_points())
    @settings(max_examples=30)
    def test_action_is_homomorphism(self, g1, g2, x):
        h = x.to_siegel()
        m1, m2 = translation_matrix(g1), translation_matrix(g2)
        once = mat_apply(mat_mul(m1, m2), h)
        twice = mat_apply(m1, mat_apply(m2, h))
        assert once == twice

    def test_point_at_infinity(self):
        # J sends the origin (1:0:0 column q-part lands on 0)
        with pytest.raises(PointAtInfinity):
            mat_apply(J, SiegelPoint.origin())

    @given(integer_points())
    @settings(max_examples=40)
    def test_triple_vs_planar_action(self, g):
        m = digit_matrix(g)
        trip = (GaussInt(1, 0), GaussInt(1, 1), GaussInt(1, 1))
        out = mat_apply_triple(m, trip)
        q, r, p = out
        if q.is_zero():
            # image lies on the plane at infinity; the reduced action
            # must refuse it too
            with pytest.raises(PointAtInfinity):
                mat_apply(m, ProjIntPoint.reduced(*trip))
            return
        pt = triple_to_planar(mat_apply(m, ProjIntPoint.reduced(*trip)))
        # raw action agrees with reduced action projectively
        from heiscf.gaussian import GaussRat

        assert GaussRat.make(r, q) == pt.u and GaussRat.make(p, q) == pt.v
