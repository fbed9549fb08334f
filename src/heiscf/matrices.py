"""The matrix model of Heisenberg Moebius maps.

Matrices in U(2,1; Z[i]) act on the projective Siegel model.  The
inversion matrix J realizes the Koranyi inversion, lower-triangular
translation matrices realize left multiplication (translate applies one
to a triple in closed form), and products of digit matrices accumulate
the continuants whose columns are the convergents.  A matrix is the
tuple of its three rows, each a tuple of exact Gaussian integers;
column(m, j) reads a column.
"""

from __future__ import annotations

from .errors import NotInU21, PointAtInfinity
from .gaussian import GaussInt
from .siegel import IntegerPoint, ProjIntPoint, SiegelPoint

__all__ = [
    "IDENTITY",
    "J",
    "translation_matrix",
    "translate",
    "digit_matrix",
    "mul_digit_matrix",
    "mat_mul",
    "mat_apply",
    "mat_apply_triple",
    "column",
    "u21_check",
    "u21_inverse",
]

_ZERO = GaussInt(0, 0)
_ONE = GaussInt(1, 0)

IDENTITY = ((_ONE, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ONE))
J = ((_ZERO, _ZERO, -_ONE), (_ZERO, _ONE, _ZERO), (-_ONE, _ZERO, _ZERO))


def column(m: tuple, j: int) -> tuple[GaussInt, GaussInt, GaussInt]:
    """Column j of the matrix m."""
    return m[0][j], m[1][j], m[2][j]


def translation_matrix(gamma: IntegerPoint) -> tuple:
    """Lower-triangular matrix realizing left multiplication by gamma."""
    u, v = gamma.u, gamma.v
    return (_ONE, _ZERO, _ZERO), (u, _ONE, _ZERO), (v, u.conj(), _ONE)


def translate(gamma: IntegerPoint, t: tuple) -> tuple[GaussInt, GaussInt, GaussInt]:
    """T_gamma t = (q, u q + r, v q + conj(u) r + p) for a triple t = (q, r, p)."""
    q, r, p = t
    u = gamma.u
    return (q, u * q + r, gamma.v * q + u.conj() * r + p)


def digit_matrix(gamma: IntegerPoint) -> tuple:
    """A_gamma = J * T_gamma: the rows of T_gamma reversed, the outer two negated."""
    u, v = gamma.u, gamma.v
    return (-v, -u.conj(), -_ONE), (u, _ONE, _ZERO), (-_ONE, _ZERO, _ZERO)


def mul_digit_matrix(m: tuple, gamma: IntegerPoint) -> tuple:
    """m * A_gamma in closed form: with (u, v) = gamma, the columns c0, c1, c2
    of m become u c1 - v c0 - c2, c1 - conj(u) c0 and -c0, formed on the int
    parts with one GaussInt built per entry."""
    (ua, ub), (va, vb) = (gamma.u.re, gamma.u.im), (gamma.v.re, gamma.v.im)
    return tuple(
        (GaussInt(ua * c1.re - ub * c1.im - va * c0.re + vb * c0.im - c2.re,
                  ua * c1.im + ub * c1.re - va * c0.im - vb * c0.re - c2.im),
         GaussInt(c1.re - ua * c0.re - ub * c0.im, c1.im - ua * c0.im + ub * c0.re),
         GaussInt(-c0.re, -c0.im))
        for c0, c1, c2 in m)


def mat_mul(m1: tuple, m2: tuple) -> tuple:
    cols = [column(m2, j) for j in range(3)]
    return tuple(
        tuple(row[0] * c[0] + row[1] * c[1] + row[2] * c[2] for c in cols) for row in m1
    )


def mat_apply_triple(
    m: tuple, triple: tuple[GaussInt, GaussInt, GaussInt]
) -> tuple[GaussInt, GaussInt, GaussInt]:
    """Apply m to a raw integer triple (no reduction)."""
    q, r, p = triple
    return tuple(a * q + b * r + c * p for a, b, c in m)


def mat_apply(m: tuple, h):
    """Projective action on a point; kind of output matches kind of input.

    ProjIntPoint -> ProjIntPoint (reduced); SiegelPoint -> SiegelPoint.
    """
    if isinstance(h, ProjIntPoint):
        return ProjIntPoint.reduced(*mat_apply_triple(m, h))
    if isinstance(h, SiegelPoint):
        with h.work():
            out = [h.lift(a) + h.lift(b) * h.u + h.lift(c) * h.v for a, b, c in m]
            if not out[0]:
                raise PointAtInfinity("matrix image at infinity")
            return SiegelPoint(out[1] / out[0], out[2] / out[0], h.ctx)
    raise TypeError(f"cannot apply matrix to {type(h).__name__}")


def _adjoint(m: tuple) -> tuple:
    """J m^dag J in closed form: entry (i, j) is (-1)^(i+j) conj(m[2-j][2-i])."""
    return tuple(
        tuple(
            GaussInt(e.re, -e.im) if (i + j) % 2 == 0 else GaussInt(-e.re, e.im)
            for j, e in enumerate(reversed(column(m, 2 - i)))
        )
        for i in range(3)
    )


def u21_check(m: tuple) -> bool:
    """Membership in U(2,1; Z[i]): J m^dag J m = identity."""
    return mat_mul(_adjoint(m), m) == IDENTITY


def u21_inverse(m: tuple) -> tuple:
    """Inverse via m^(-1) = J m^dag J; requires membership."""
    if not u21_check(m):
        raise NotInU21("matrix is not in U(2,1; Z[i])")
    return _adjoint(m)
