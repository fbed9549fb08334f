"""Verifiers for the exact continuant identities.

Each verifier evaluates one identity at h_0 = (u_0, v_0) using the
unreduced continuant entries, decides it, and reports the residual.  On
the exact backend an identity holds iff it holds in integers: each verdict
cross-multiplies unreduced integers.  On the big-float backend
it passes iff the largest |diff| keeps to the context's tolerance rule at
k = 1, s = the largest term magnitude (PrecisionContext.tol_sign).
The floats a report shows are computed when they are read; on big floats
residual and scale are mpmath's abs() at the report's precision.
verify_expansion runs the whole suite on one expansion, as `heiscf
verify` does.
"""

from __future__ import annotations

from mpmath import mpc
from mpmath.libmp import fzero, round_nearest, to_float

from ..cf import CFExpansion
from ..errors import HeisCFError
from ..gaussian import _rat
from ..siegel import (
    _distance_form,
    _hypot,
    _max_sq,
    abs_sq,
    abs_sq_exact,
    triple_to_planar,
)

__all__ = [
    "IdentityReport",
    "verify_prq",
    "verify_tildeprq",
    "verify_fracq",
    "verify_distance_formula",
    "verify_expansion",
]


class IdentityReport:
    """One identity at one index: its verdict and the floats it shows.

    passed is decided when the report is made.  lhs, rhs, residual and
    scale are computed when they are read, from the raw values the report
    keeps (an exact report builds them at the first read), by the
    expressions the verifiers have always used, so each float is the same.
    An exact passing report's residual is 0.0 with no float work.  On big
    floats residual and scale are the largest |x| as abs() rounds it at the
    report's bits, whatever the precision at the read.
    """

    def __init__(self, identity: str, n: int, passed: bool, values, bits=None):
        self.identity, self.n, self.passed = identity, n, passed
        self._values, self._bits = values, bits

    def _raw(self) -> tuple:
        """(lhs, rhs, diffs, magnitudes) as the verifier states them; an
        exact report keeps the function that builds them until now."""
        if callable(self._values):
            self._values = self._values()
        return self._values

    def _top(self, values) -> float:
        """The largest |x| as a float; on big floats as abs() rounds it at
        the report's bits, taken of the x with the largest exact square."""
        if self._bits is None:
            return float(max(map(abs, values)))
        x = max(values, key=abs_sq_exact)  # an mpf as x + 0i: _hypot gives mpf_abs(x)
        re, im = x._mpc_ if isinstance(x, mpc) else (x._mpf_, fzero)
        return to_float(_hypot(re, im, self._bits), rnd=round_nearest)

    lhs = property(lambda self: complex(self._raw()[0]))
    rhs = property(lambda self: complex(self._raw()[1]))

    @property
    def residual(self) -> float:
        if self.passed and self._bits is None:
            return 0.0
        return self._top(self._raw()[2])

    @property
    def scale(self) -> float:
        return max(1.0, self._top(self._raw()[3]))

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "scale": self.scale,
            "pass": self.passed,
        }


def _report(e: CFExpansion, identity: str, n: int, values, passed=None) -> IdentityReport:
    """values() gives (lhs, rhs, diffs, magnitudes) as the report shows
    them; call inside the values' work().  Exact backend: passed is the
    verdict, and values() runs when a float is first read.  Big floats:
    values() runs now, and the report passes iff tol_sign(max|diff|^2, 1,
    magnitudes) <= 0, which squares the magnitudes only when it must."""
    if e.ctx is None:
        return IdentityReport(identity, n, passed, values)
    raw = values()
    passed = e.ctx.tol_sign(_max_sq(raw[2]), 1, raw[3]) <= 0
    return IdentityReport(identity, n, passed, raw, e.ctx.bits)


def _equality(e: CFExpansion, identity: str, n: int, lhs, rhs, terms) -> IdentityReport:
    """The report on lhs = rhs, whose magnitudes are lhs, rhs and the
    terms() of lhs; call inside the values' work().  Exact: each side is
    unreduced ints (a, b, d), d > 0, cross-multiplied; reduced at a read."""
    def values():
        x, y = (lhs, rhs) if e.ctx else (_rat(*lhs), _rat(*rhs))
        return x, y, (x - y,), (x, y, *terms())

    return _report(e, identity, n, values, e.ctx is None and lhs[0] * rhs[2] == rhs[0] * lhs[2]
                   and lhs[1] * rhs[2] == rhs[1] * lhs[2])


def _times(x, y) -> tuple[int, int, int]:
    """x * y for GaussRats as ints (a, b, d), not reduced."""
    return x.a * y.a - x.b * y.b, x.a * y.b + x.b * y.a, x.d * y.d


def verify_prq(e: CFExpansion, n: int) -> IdentityReport:
    """conj(p_n) - conj(r_n) u + conj(q_n) v = (-1)^n prod_{i<=n} v_i at h_0."""
    with e.point.work():
        e.first_column(n)  # range-checks n: forms[-1] is an index too
        _, lhs, terms = e.forms[n][0]
        prod = e.v_prefix[n + 1]
        rhs = -prod if n % 2 else prod  # a sign flip: exact on both backends
        return _equality(e, "prq", n, lhs, rhs if e.ctx else (rhs.a, rhs.b, rhs.d), terms)


def verify_tildeprq(e: CFExpansion, n: int) -> IdentityReport:
    """Middle-column variant: rhs = (-1)^(n-1) u_n prod_{i<n} v_i."""
    with e.point.work():
        e.second_column(n)  # range-checks n
        _, lhs, terms = e.forms[n][1]
        u, vp = e.iterates[n].u, e.v_prefix[n] if n % 2 else -e.v_prefix[n]  # (-1)^(n+1)
        return _equality(e, "tildeprq", n, lhs, u * vp if e.ctx else _times(u, vp), terms)


def verify_fracq(e: CFExpansion, n: int) -> IdentityReport:
    """(q_n + q~_n u_n - q_{n-1} v_n) * prod_{i<n} v_i = (-1)^n.

    Stated with a division in the source identity; multiplied through so
    the exact backend never divides.  Undefined once the orbit terminates
    before index n.
    """
    if n < 1:
        raise ValueError("identity requires n >= 1")
    if not e.v_prefix[n]:  # exact, and mpmath never rounds a nonzero product to 0
        raise HeisCFError(f"identity undefined (v_i = 0 for some i < {n})")
    with e.point.work():
        s, vp, one = e.s_values[n - 1], e.v_prefix[n], e.v_prefix[0]
        rhs = -one if n % 2 else one
        lhs, rhs = (s * vp, rhs) if e.ctx else (_times(s, vp), (rhs.a, rhs.b, rhs.d))
        return _equality(e, "fracq", n, lhs, rhs, lambda: e.s_terms[n - 1])


def _distance_sq_parts(h1, h2) -> tuple[int, int]:
    """|_distance_form(h1, h2)|^2 of exact points as unreduced (numerator, denominator)."""
    (u1, v1), (u2, v2) = (h1.u, h1.v), (h2.u, h2.v)
    du, dv = u1.d * u2.d, v1.d * v2.d
    x = (v1.a * v2.d + v2.a * v1.d) * du - (u1.a * u2.a + u1.b * u2.b) * dv
    y = (v2.b * v1.d - v1.b * v2.d) * du - (u1.a * u2.b - u1.b * u2.a) * dv
    return x * x + y * y, (du * dv) ** 2


def verify_distance_formula(e: CFExpansion, n: int) -> IdentityReport:
    """Both closed forms of d(convergent_n, h_0) against the direct distance.

    Form 1: |prod_{i<=n} v_i / q_n|^(1/2).  Form 2 (needs n+1 <= depth):
    |conj(q_n) s|^(-1/2) with s = q_{n+1} + q~_{n+1} u_{n+1} - q_n v_{n+1}.
    Both are compared as fourth powers; the report shows the distances.
    On the exact backend d^4 = |w|^2, form 1 = |vp|^2 / |q_n|^2 and form 2
    = 1 / (|q_n|^2 |s|^2) are cross-multiplied into integer equalities, |w|^2
    unreduced; w and q_n are built as GaussRats only when a float is read.
    """
    col, h0 = e.first_column(n), e.iterates[0]
    with h0.work():
        # the planar route, not the linear form: verify_prq already checks that;
        # a column of a U(2,1; Z[i]) matrix needs no reducing
        conv = triple_to_planar(col, e.ctx)
        vp = e.v_prefix[n + 1]
        s = e.s_values[n] if n + 1 <= e.depth else None

        def values():
            qn = e.forms[n][0][0]
            d4 = abs_sq(_distance_form(conv, h0))
            forms = [abs_sq(vp / qn)]
            if s:
                forms.append(abs_sq(e.v_prefix[0] / (qn.conjugate() * s)))
            return (
                float(d4) ** 0.25, float(forms[0]) ** 0.25,
                [d4 - f for f in forms], (d4, *forms),
            )

        passed = None
        if e.ctx is None:
            (nw, dw), q2 = _distance_sq_parts(conv, h0), col[0].norm()
            passed = nw * vp.d * vp.d * q2 == (vp.a * vp.a + vp.b * vp.b) * dw
            if passed and s:
                passed = nw * (s.a * s.a + s.b * s.b) * q2 == dw * s.d * s.d
        return _report(e, "distance", n, values, passed)


def verify_expansion(e: CFExpansion) -> list[IdentityReport]:
    """Every report of the identity suite for one expansion, in order.

    At each index prq, tildeprq and distance, then fracq from n = 1; the
    last index only once the orbit terminated.  That is 4d + 3 reports at
    a terminated depth d and 4d - 1 otherwise.
    """
    top = e.depth if e.terminated else e.depth - 1
    reports = []
    with e.point.work():  # one precision switch for the suite
        for n in range(top + 1):
            reports += [verify_prq(e, n), verify_tildeprq(e, n), verify_distance_formula(e, n)]
            if n >= 1:
                reports.append(verify_fracq(e, n))
    return reports
