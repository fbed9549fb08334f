"""Verifiers for the exact continuant identities.

Each verifier evaluates one identity at h_0 = (u_0, v_0) using the
unreduced continuant entries, and reports the residual.  On the exact
backend residuals are exactly zero; on the big-float backend they pass
iff residual <= 2^(-bits/2) * scale, with scale the largest term
magnitude (at least 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mpc, mpf

from ..cf import CFExpansion
from ..errors import HeisCFError
from ..gaussian import GaussInt, GaussRat
from ..siegel import ProjIntPoint, distance, distance_pow4, proj_to_planar

__all__ = [
    "IdentityReport",
    "verify_prq",
    "verify_tildeprq",
    "verify_fracq",
    "verify_distance_formula",
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


class _ExactArith:
    exact = True

    def from_gi(self, g: GaussInt) -> GaussRat:
        return GaussRat.from_int(g)

    def conj(self, x: GaussRat) -> GaussRat:
        return x.conj()

    def mag(self, x: GaussRat) -> float:
        return float(x.abs_sq()) ** 0.5

    def one(self) -> GaussRat:
        return GaussRat.from_int(GaussInt(1, 0))

    def neg_one(self) -> GaussRat:
        return GaussRat.from_int(GaussInt(-1, 0))

    def report(self, identity: str, n: int, lhs, rhs, extra_terms=()) -> IdentityReport:
        diff = lhs - rhs
        scale = max(
            [1.0, self.mag(lhs), self.mag(rhs)] + [self.mag(t) for t in extra_terms]
        )
        exact_zero = diff.is_zero()
        return IdentityReport(
            identity=identity,
            n=n,
            lhs=complex(lhs),
            rhs=complex(rhs),
            residual=0.0 if exact_zero else self.mag(diff),
            scale=scale,
            passed=exact_zero,
        )


class _BigArith:
    exact = False

    def __init__(self, ctx):
        self.ctx = ctx

    def from_gi(self, g: GaussInt) -> mpc:
        return mpc(g.re, g.im)

    def conj(self, x: mpc) -> mpc:
        return x.conjugate()

    def mag(self, x: mpc) -> mpf:
        return abs(x)

    def one(self) -> mpc:
        return mpc(1)

    def neg_one(self) -> mpc:
        return mpc(-1)

    def report(self, identity: str, n: int, lhs, rhs, extra_terms=()) -> IdentityReport:
        with self.ctx.work():
            diff = abs(lhs - rhs)
            scale = max(
                [mpf(1), abs(lhs), abs(rhs)] + [abs(t) for t in extra_terms]
            )
            passed = diff <= self.ctx.check_scale * scale
        return IdentityReport(
            identity=identity,
            n=n,
            lhs=complex(lhs),
            rhs=complex(rhs),
            residual=float(diff),
            scale=float(scale),
            passed=bool(passed),
        )


def _arith(e: CFExpansion):
    return _ExactArith() if e.ctx is None else _BigArith(e.ctx)


def _coords(e: CFExpansion, i: int):
    h = e.iterates[i]
    return h.u, h.v


def _run(e, fn):
    if e.ctx is None:
        return fn()
    with e.ctx.work():
        return fn()


def verify_prq(e: CFExpansion, n: int) -> IdentityReport:
    """conj(p_n) - conj(r_n) u + conj(q_n) v = (-1)^n prod_{i<=n} v_i at h_0."""
    ar = _arith(e)

    def go():
        q, r, p = (ar.from_gi(g) for g in e.first_column(n))
        u0, v0 = _coords(e, 0)
        t1, t2, t3 = ar.conj(p), ar.conj(r) * u0, ar.conj(q) * v0
        lhs = t1 - t2 + t3
        rhs = ar.one() if n % 2 == 0 else ar.neg_one()
        for i in range(n + 1):
            rhs = rhs * e.iterates[i].v
        return ar.report("prq", n, lhs, rhs, (t1, t2, t3))

    return _run(e, go)


def verify_tildeprq(e: CFExpansion, n: int) -> IdentityReport:
    """Middle-column variant: rhs = (-1)^(n-1) u_n prod_{i<n} v_i."""
    ar = _arith(e)

    def go():
        q, r, p = (ar.from_gi(g) for g in e.second_column(n))
        u0, v0 = _coords(e, 0)
        t1, t2, t3 = ar.conj(p), ar.conj(r) * u0, ar.conj(q) * v0
        lhs = t1 - t2 + t3
        rhs = ar.neg_one() if n % 2 == 0 else ar.one()
        rhs = rhs * e.iterates[n].u
        for i in range(n):
            rhs = rhs * e.iterates[i].v
        return ar.report("tildeprq", n, lhs, rhs, (t1, t2, t3))

    return _run(e, go)


def verify_fracq(e: CFExpansion, n: int) -> IdentityReport:
    """(q_n + q~_n u_n - q_{n-1} v_n) * prod_{i<n} v_i = (-1)^n.

    Stated with a division in the source identity; multiplied through so
    the exact backend never divides.  Undefined once the orbit terminates
    before index n.
    """
    if n < 1:
        raise ValueError("identity requires n >= 1")
    for i in range(n):
        h = e.iterates[i]
        if (h.exact and h.v.is_zero()) or (not h.exact and h.v == 0):
            raise HeisCFError(f"identity undefined (v_{i} = 0)")
    ar = _arith(e)

    def go():
        qn = ar.from_gi(e.first_column(n)[0])
        fqn = ar.from_gi(e.second_column(n)[0])
        qprev = ar.from_gi(-e.third_column(n)[0])
        un, vn = _coords(e, n)
        t1, t2, t3 = qn, fqn * un, qprev * vn
        lhs = t1 + t2 - t3
        for i in range(n):
            lhs = lhs * e.iterates[i].v
        rhs = ar.one() if n % 2 == 0 else ar.neg_one()
        return ar.report("fracq", n, lhs, rhs, (t1, t2, t3))

    return _run(e, go)


def verify_distance_formula(e: CFExpansion, n: int) -> IdentityReport:
    """Both closed forms of d(convergent_n, h_0) against the direct distance.

    Form 1: |prod_{i<=n} v_i / q_n|^(1/2).  Form 2 (needs n+1 <= depth):
    |conj(q_n) (q_{n+1} + q~_{n+1} u_{n+1} - q_n v_{n+1})|^(-1/2).
    """
    ar = _arith(e)
    q, r, p = e.first_column(n)
    conv = proj_to_planar(ProjIntPoint.reduced(q, r, p))

    if e.ctx is None:
        h0 = e.iterates[0]
        d4_direct = distance_pow4(conv, h0)
        prod = GaussRat.from_int(GaussInt(1, 0))
        for i in range(n + 1):
            prod = prod * e.iterates[i].v
        qn = GaussRat.from_int(q)
        d4_form1 = (prod / qn).abs_sq()
        resid = d4_direct - d4_form1
        passed = resid == 0
        if passed and n + 1 <= e.depth:
            d4_form2 = _form2_exact(e, n)
            if d4_form2 is not None:
                passed = d4_form2 == d4_direct
                resid = d4_direct - d4_form2
        return IdentityReport(
            identity="distance",
            n=n,
            lhs=complex(float(d4_direct) ** 0.25, 0.0),
            rhs=complex(float(d4_form1) ** 0.25, 0.0),
            residual=0.0 if passed else abs(float(resid)),
            scale=max(1.0, float(d4_direct) ** 0.25),
            passed=bool(passed),
        )

    with e.ctx.work():
        # compare fourth powers: the linear form underlying the direct
        # distance is what carries the certified precision, not its root
        h0 = e.iterates[0]
        d_direct = distance(conv.to_bigfloat(e.ctx), h0)
        d4_direct = d_direct ** 4
        prod = mpc(1)
        for i in range(n + 1):
            prod = prod * e.iterates[i].v
        qn = ar.from_gi(q)
        d4_form1 = abs(prod / qn) ** 2
        residual = abs(d4_direct - d4_form1)
        forms = [d4_direct, d4_form1]
        if n + 1 <= e.depth:
            qn1 = ar.from_gi(e.first_column(n + 1)[0])
            fqn1 = ar.from_gi(e.second_column(n + 1)[0])
            un1, vn1 = _coords(e, n + 1)
            denom = qn.conjugate() * (qn1 + fqn1 * un1 - qn * vn1)
            if denom != 0:
                d4_form2 = abs(1 / denom) ** 2
                forms.append(d4_form2)
                residual = max(residual, abs(d4_direct - d4_form2))
        scale = max(mpf(1), *[abs(f) for f in forms])
        passed = residual <= e.ctx.check_scale * scale
        return IdentityReport(
            identity="distance",
            n=n,
            lhs=complex(float(d4_direct) ** 0.25, 0.0),
            rhs=complex(float(d4_form1) ** 0.25, 0.0),
            residual=float(residual),
            scale=float(scale),
            passed=bool(passed),
        )


def _form2_exact(e: CFExpansion, n: int):
    qn = GaussRat.from_int(e.first_column(n)[0])
    qn1 = GaussRat.from_int(e.first_column(n + 1)[0])
    fqn1 = GaussRat.from_int(e.second_column(n + 1)[0])
    un1, vn1 = _coords(e, n + 1)
    denom = qn.conj() * (qn1 + fqn1 * un1 - qn * vn1)
    if denom.is_zero():
        return None
    return denom.inverse().abs_sq()
