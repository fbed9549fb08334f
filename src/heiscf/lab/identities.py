"""Verifiers for the exact continuant identities.

Each verifier evaluates one identity at h_0 = (u_0, v_0) using the
unreduced continuant entries, and reports the residual.  On the exact
backend residuals are exactly zero; on the big-float backend they pass
iff residual <= 2^(-bits/2) * scale, with scale the largest term
magnitude (at least 1).  verify_expansion runs the whole suite on one
expansion, as `heiscf verify` does.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpc

from ..cf import CFExpansion
from ..errors import HeisCFError
from ..gaussian import GaussInt
from ..siegel import (
    abs_sq,
    abs_sq_exact,
    distance_pow4,
    linear_form_terms,
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


@dataclass
class IdentityReport:
    identity: str
    n: int
    lhs: complex
    rhs: complex
    residual: float
    scale: float
    passed: bool

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


def _scale(values: tuple):
    """max(1, |x| for x in values); call inside the values' work().

    The values share one type.  mpmath's abs() rises with the exact |x|^2,
    so mpcs are ranked on that and take one root, of the largest.
    """
    if isinstance(values[0], mpc):
        top = abs(max(values, key=abs_sq_exact))
    else:
        top = max(map(abs, values))
    return top if top > 1 else 1.0


def _report(e: CFExpansion, identity: str, n: int, lhs, rhs, diffs, magnitudes) -> IdentityReport:
    """The largest |diff| against the largest magnitude (at least 1); call
    inside the values' work().  Exact backend: pass iff every diff is 0.  Big
    floats: pass iff residual <= check_scale * scale.  lhs and rhs are only
    reported."""
    residual = max(map(abs, diffs))
    scale = _scale(magnitudes)
    passed = not any(diffs) if e.ctx is None else residual <= e.ctx.check_scale * scale
    return IdentityReport(
        identity=identity,
        n=n,
        lhs=complex(lhs),
        rhs=complex(rhs),
        residual=float(residual),
        scale=float(scale),
        passed=bool(passed),
    )


def verify_prq(e: CFExpansion, n: int) -> IdentityReport:
    """conj(p_n) - conj(r_n) u + conj(q_n) v = (-1)^n prod_{i<=n} v_i at h_0."""
    with e.point.work():
        t1, t2, t3 = linear_form_terms(e.first_column(n), e.iterates[0])
        lhs, prod = t1 - t2 + t3, e.v_prefix[n + 1]
        rhs = -prod if n % 2 else prod  # a sign flip: exact on both backends
        return _report(e, "prq", n, lhs, rhs, (lhs - rhs,), (lhs, rhs, t1, t2, t3))


def verify_tildeprq(e: CFExpansion, n: int) -> IdentityReport:
    """Middle-column variant: rhs = (-1)^(n-1) u_n prod_{i<n} v_i."""
    with e.point.work():
        t1, t2, t3 = linear_form_terms(e.second_column(n), e.iterates[0])
        lhs = t1 - t2 + t3
        rhs = e.point.lift(GaussInt((-1) ** (n + 1))) * e.iterates[n].u * e.v_prefix[n]
        return _report(e, "tildeprq", n, lhs, rhs, (lhs - rhs,), (lhs, rhs, t1, t2, t3))


def _fracq_terms(e: CFExpansion, k: int) -> tuple:
    """q_k, q~_k u_k and q_{k-1} v_k in the point's backend, the terms of
    q_k + q~_k u_k - q_{k-1} v_k; call inside e.point.work()."""
    lift, hk = e.point.lift, e.iterates[k]
    return (
        lift(e.first_column(k)[0]),
        lift(e.second_column(k)[0]) * hk.u,
        lift(e.first_column(k - 1)[0]) * hk.v,
    )


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
        t1, t2, t3 = _fracq_terms(e, n)
        lhs, rhs = (t1 + t2 - t3) * e.v_prefix[n], e.point.lift(GaussInt((-1) ** n))
        return _report(e, "fracq", n, lhs, rhs, (lhs - rhs,), (lhs, rhs, t1, t2, t3))


def verify_distance_formula(e: CFExpansion, n: int) -> IdentityReport:
    """Both closed forms of d(convergent_n, h_0) against the direct distance.

    Form 1: |prod_{i<=n} v_i / q_n|^(1/2).  Form 2 (needs n+1 <= depth):
    |conj(q_n) (q_{n+1} + q~_{n+1} u_{n+1} - q_n v_{n+1})|^(-1/2).  Both
    are compared as fourth powers; the report shows the distances.
    """
    col = e.first_column(n)
    # the planar route, not the linear form: verify_prq already checks that;
    # a column of a U(2,1; Z[i]) matrix needs no reducing
    conv = triple_to_planar(col, e.ctx)
    h0, lift = e.iterates[0], e.point.lift
    with h0.work():
        d4 = distance_pow4(conv, h0)
        qn = lift(col[0])
        forms = [abs_sq(e.v_prefix[n + 1] / qn)]
        if n + 1 <= e.depth:
            t1, t2, t3 = _fracq_terms(e, n + 1)
            denom = qn.conjugate() * (t1 + t2 - t3)
            if denom:
                forms.append(abs_sq(lift(GaussInt(1)) / denom))
        return _report(
            e, "distance", n, float(d4) ** 0.25, float(forms[0]) ** 0.25,
            [d4 - f for f in forms], (d4, *forms),
        )


def verify_expansion(e: CFExpansion) -> list[IdentityReport]:
    """Every report of the identity suite for one expansion, in order.

    At each index prq, tildeprq and distance, then fracq from n = 1; the
    last index only once the orbit terminated.  That is 4d + 3 reports at
    a terminated depth d and 4d - 1 otherwise.
    """
    top = e.depth if e.terminated else e.depth - 1
    reports = []
    for n in range(top + 1):
        reports += [verify_prq(e, n), verify_tildeprq(e, n), verify_distance_formula(e, n)]
        if n >= 1:
            reports.append(verify_fracq(e, n))
    return reports
