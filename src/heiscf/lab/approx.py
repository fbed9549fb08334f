"""Approximation quality of convergents and best-approximation searches.

Measures the comparability ratios behind the distance and relative-size
bounds, runs exhaustive searches for closer rational points, and checks
the best-approximant inequality candidate by candidate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from mpmath.libmp import mpf_shift, round_nearest, to_float

from ..cf import CFExpansion
from ..domain import RAD_KD, rk_constant
from ..gaussian import GaussInt, _dividing, _factor, _fold_unit, _prime_tests, _trip_key
from ..siegel import (ProjIntPoint, SiegelPoint, _int_linear_form, _sqrt, abs_sq,
                      triple_distance_pow4)

__all__ = [
    "ApproxRecord",
    "Prop71Report",
    "RAD_KD",
    "RK_KD",
    "approx_quality",
    "best_approx_search",
    "candidate_triples",
    "convergent_distance",
    "prop71_check",
]

RK_KD = rk_constant(RAD_KD, 1e-6)
# Any candidate beating a convergent at distance < 1 lies within 2 of h.
DIST_BOUND = 2.0


@dataclass
class ApproxRecord:
    """Per-index measurement of the comparability bounds."""

    n: int
    q_abs: float
    d_n: float
    ratio_thm14: Optional[float]
    c_n: float
    relsize_n: float
    succ_n: Optional[float]
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _abs_gi(g: GaussInt) -> tuple[float, int]:
    """(a, k) with |g| = a * 2**k: k = 0 for |g|^2 < 2**500, else a < 2**251,
    so that a float holds both a and 1/a^4.  The int division rounds
    |g|^2 / 4**k once, as float() rounds |g|^2, so the split is exact
    wherever |g|^2 is a float."""
    n = g.norm()
    k = max(0, n.bit_length() - 500) // 2
    return math.sqrt(n / (1 << 2 * k)), k


def _ldexp(x: float, k: int) -> float:
    """x * 2**k as a float: inf past the float range, where math.ldexp raises."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _prod_exp(xs) -> tuple[float, int]:
    """(m, k) with prod(xs) = m * 2**k, rounded at each factor as math.prod
    rounds, but with no overflow or underflow on the way."""
    m, k = 1.0, 0
    for x in xs:
        m, j = math.frexp(m * x)
        k += j
    return m, k


def convergent_distance(e: CFExpansion, n: int, k: int = 0) -> float:
    """d(nth convergent, h_0) * 2**k, as a float.

    Exact backend: (d^4 * 16**k) rounded once, by int / int on the unreduced
    quotient of _int_linear_form, then its float fourth root.  Big floats: two
    mpf square roots of d^4 (from the expansion's linear form) at the point's
    bits, then one rounding; 2**k is exact in both.
    """
    h0, col = e.iterates[0], e.first_column(n)
    if h0.exact:
        a, b, Q = _int_linear_form(col, h0)
        return (((a * a + b * b) << 4 * k) / (col[0].norm() * Q * Q)) ** 0.25
    with h0.work():
        d4 = abs_sq(e.forms[n][0][1]) / col[0].norm()
    root = _sqrt(mpf_shift(d4._mpf_, 4 * k), e.ctx.bits)
    return to_float(_sqrt(root, e.ctx.bits), rnd=round_nearest)


def approx_quality(e: CFExpansion, n: int) -> ApproxRecord:
    """Fill an ApproxRecord for index n and flag hard-bound violations.

    Hard bounds: d_n / |v_{n+1}/q_n^2|^(1/2) and |q_n| |v_0 ... v_{n-1}|
    within [1/R, R]; |q_{n-1}| / |v_n q_n| within [1/R^2, R^2];
    d_n |q_n| <= rad * R.

    Each bounded quantity is O(1), but |q_n|, d_n and the product of the
    |v_i| leave the float range at depth.  They are carried as a float and
    a binary exponent, the float of |q_n| scaled by 2**-k and d_n by 2**k,
    so each ratio is the same float as unscaled wherever that is in range.
    The record's q_abs and d_n are plain floats: inf and 0.0 beyond it.
    """
    if n + 1 > e.depth:
        raise IndexError("approx_quality requires n + 1 <= depth")
    q_abs, k = _abs_gi(e.first_column(n)[0])
    d_n = convergent_distance(e, n, k)
    v_next_abs = e.v_abs[n + 1]

    ratio = None
    if v_next_abs > 0.0:
        ratio = d_n / math.sqrt(v_next_abs / (q_abs * q_abs))

    prod, kp = _prod_exp(e.v_abs[:n])
    relsize = _ldexp(q_abs * prod, k + kp)

    succ = None
    if n >= 1:
        qprev_abs, kprev = _abs_gi(e.first_column(n - 1)[0])
        vn_abs = e.v_abs[n]
        if vn_abs > 0.0:
            succ = _ldexp(qprev_abs / (vn_abs * q_abs), kprev - k)

    c_n = d_n * q_abs

    record = ApproxRecord(
        n=n,
        q_abs=_ldexp(q_abs, k),
        d_n=math.ldexp(d_n, -k),
        ratio_thm14=ratio,
        c_n=c_n,
        relsize_n=relsize,
        succ_n=succ,
    )
    if ratio is not None and not (1.0 / RK_KD <= ratio <= RK_KD):
        record.violations.append(f"thm14 ratio {ratio} outside [1/R, R]")
    if not (1.0 / RK_KD <= relsize <= RK_KD):
        record.violations.append(f"relsize {relsize} outside [1/R, R]")
    if succ is not None and not (1.0 / RK_KD**2 <= succ <= RK_KD**2):
        record.violations.append(f"successive ratio {succ} outside [1/R^2, R^2]")
    if c_n > RAD_KD * RK_KD:
        record.violations.append(f"c_n {c_n} exceeds rad * R")
    return record


# ---------------------------------------------------------------------------
# Candidate enumeration near a point

# A shell whose P disk, |Q| rho at its largest |Q|, is at most this wide is
# enumerated on its reduced lattice; a wider one is walked q by q.  Timed
# per shell, the lattice was 1.4-4x faster from 0.08 to 0.32 at N0 >= 64
# and 1.2x slower at 0.64; below N0 = 16 either takes under 0.2 ms.
LATTICE_TAU = 0.25
# The identity basis: the columns of Q, of R and of P.
_UNIT_COLS = ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0))


def _widened(dist_q: float) -> tuple[float, float]:
    """The R disk's radius per unit |Q| and the bound on d^4 at dist_q, widened past rounding."""
    db2 = dist_q * dist_q
    return math.sqrt(2.0) * dist_q + 1e-9, db2 * db2 * 1.000001 + 1e-9


def _cell_test(qa, qb, dist_q, uh, vh):
    """(cells, the R disk's center and radius, the bound on d^4) of Q = qa + i qb at
    radius dist_q.  cells(ra, rb, p0, dp, ts) yields the triples (Q, R, P), P = p0 +
    t dp for t in ts, that pass the R disk, |P|^2 and d^4 tests in floats and are in
    lowest terms by the census's rule: no Gaussian prime of Q divides R and P.  Only
    one over a prime of gcd(|Q|^2, |R|^2) can, for its norm divides every norm."""
    qn, q, qc = qa * qa + qb * qb, GaussInt(qa, qb), complex(qa, qb)
    u_slack, d4_max = _widened(dist_q)
    center, rad = qc * uh, math.sqrt(qn) * u_slack
    v_r_max = dist_q * dist_q + (abs(uh) + u_slack) * abs(uh) + abs(vh)
    p_norm_max = int(qn * (v_r_max * v_r_max) + 1)

    def cells(ra, rb, p0, dp=(0, 0), ts=(0,)):  # by default P = p0 alone
        if abs(complex(ra, rb) - center) > rad:
            return
        g = math.gcd(qn, ra * ra + rb * rb)
        shared = g > 1 and _dividing(_prime_tests(q, _factor(g)), ra, rb)
        ucu, r = (complex(ra, rb) / qc).conjugate() * uh, GaussInt(ra, rb)
        for t in ts:
            pc, pd = p0[0] + dp[0] * t, p0[1] + dp[1] * t
            if pc * pc + pd * pd > p_norm_max:
                continue
            # float prefilter: plausibly within dist_q of h (exact check later)
            if abs((complex(pc, pd) / qc).conjugate() - ucu + vh) ** 2 > d4_max:
                continue
            if not shared or not _dividing(shared, pc, pd):
                yield q, r, GaussInt(pc, pd)

    return cells, center, rad, d4_max


def candidate_triples(h: SiegelPoint, B: float, dist_fn=None):
    """Lowest-terms triples (Q, R, P), |Q| <= B and Q canonical, near h, each once.

    Near means gauge distance <= DIST_BOUND.  A dist_fn(q_norm)
    further tightens the search radius per denominator norm; q values
    whose radius comes back <= 0 are skipped outright.  dist_fn must be
    non-increasing in q_norm: each shell N0 <= |Q|^2 < 4 N0 is searched
    at radius min(DIST_BOUND, dist_fn(N0)), and a larger value read
    inside the shell raises ValueError.  The other three associates of Q
    would only repeat these triples: a unit multiplies every complex
    product and quotient below exactly, bit for bit.

    A shell is walked cell by cell, or its lattice reduced and enumerated
    (see the README); either route hands its cells to _cell_test.  The
    triples come in no particular order.
    """
    uh, vh = complex(h.u), complex(h.v)
    qmax2 = int(B * B + 1e-9)
    n0, cols = 1, None
    # In floats the lattice's scaled forms are off by about 2^-50 ((1 + |u|)^2
    # + |v|) over the bounds sqrt(2) bound and rho: fuzz below both keeps
    # that under 2^-20, far inside the 1e-4 by which the ball is widened.
    fuzz = ((1.0 + abs(uh)) * (1.0 + abs(uh)) + abs(vh)) * 2.0**-30

    def radius(qn):  # against the bound of the shell being searched
        if dist_fn is None:
            return DIST_BOUND
        dist_q = min(DIST_BOUND, dist_fn(qn))
        if dist_q > bound:
            raise ValueError(f"dist_fn must be non-increasing: {dist_q} at {qn} exceeds"
                             f" its shell's {bound}")
        return dist_q

    while n0 <= qmax2:
        hi = min(4 * n0 - 1, qmax2)
        bound = DIST_BOUND if dist_fn is None else min(DIST_BOUND, dist_fn(n0))
        if bound <= 0.0:
            break
        rho = math.sqrt(_widened(bound)[1])
        if math.sqrt(hi) * rho > LATTICE_TAU or fuzz >= min(math.sqrt(2.0) * bound, rho):
            yield from _walk(uh, vh, n0, hi, radius)
        else:
            cols = yield from _lattice_shell(uh, vh, n0, hi, bound, radius, cols)
        n0 *= 4


def _walk(uh, vh, n0, hi, radius):
    """The triples of the shell n0 <= |Q|^2 <= hi, cell by cell: each q of
    the annulus, the r disk row by row on one parity, the p segment from
    its foot."""
    uh_c, vh_c = uh.conjugate(), vh.conjugate()
    for qa in range(1, math.isqrt(hi) + 1):
        gap = n0 - qa * qa
        for qb in range(math.isqrt(gap - 1) + 1 if gap > 0 else 0, math.isqrt(hi - qa * qa) + 1):
            qn = qa * qa + qb * qb
            if (dist_q := radius(qn)) <= 0.0:
                continue
            cells, center, rad, d4_max = _cell_test(qa, qb, dist_q, uh, vh)
            cx, cy, qv = center.real, center.imag, complex(qa, qb) * vh_c
            # P = (s x - b t, s y + a t) on a c + b d = s, with a x + b y = 1
            g = math.gcd(qa, qb)
            a, b = qa // g, qb // g
            x = pow(a, -1, b) if b else 1
            y = (1 - a * x) // b if b else 0
            k, step2 = b * x - a * y, a * a + b * b
            t_half = (math.sqrt(qn) * math.sqrt(d4_max) * 1.000001 + 1e-6) / math.sqrt(step2)
            for ra in range(math.ceil(cx - rad - 1e-6), math.floor(cx + rad + 1e-6) + 1):
                dx = ra - cx
                w = math.sqrt(max(rad * rad - dx * dx, 0.0) + 1e-9 * rad * rad) + 1e-6
                lo = math.ceil(cy - w)
                for rb in range(lo + (lo - ra) % 2, math.floor(cy + w) + 1, 2):
                    s, rem = divmod((ra * ra + rb * rb) >> 1, g)
                    if rem:
                        continue
                    pz = complex(ra, rb) * uh_c - qv
                    t_mid = (s * k - b * pz.real + a * pz.imag) / step2
                    ts = range(math.ceil(t_mid - t_half), math.floor(t_mid + t_half) + 1)
                    yield from cells(ra, rb, (s * x, s * y), (-b, a), ts)


def _lattice_shell(uh, vh, n0, hi, bound, radius, cols):
    """Yield the shell's triples found on its lattice; return the reduced basis.

    (Q, R, P) maps to the scaled forms (Q, Q u - R, P - R conj(u) + Q conj(v))
    / sqrt(hi) / (1, u_slack, rho) at bound (_widened); each is at most 1 for a
    cell that passes the float tests, so the cells lie in the ball of
    squared radius 3, which is enumerated widened past rounding.  cols, the
    previous shell's reduced basis, warm-starts the reduction.
    """
    s = math.sqrt(hi)
    u_slack, d4_max = _widened(bound)
    w1, w2, w3 = 1.0 / s, 1.0 / (s * u_slack), 1.0 / (s * math.sqrt(d4_max))
    uh_c, vh_c = uh.conjugate(), vh.conjugate()

    def vec(col):
        qa, qb, ra, rb, pc, pd = col
        q, r = complex(qa, qb), complex(ra, rb)
        return (q * w1, (q * uh - r) * w2, (complex(pc, pd) - r * uh_c + q * vh_c) * w3)

    c1, c2, c3 = cols = _reduce(cols or _UNIT_COLS, vec)
    (n1, n2, n3), mu = _gram_schmidt([vec(c) for c in cols])
    m21, m31, m32 = mu[1][0], mu[2][0], mu[2][1]
    ball = 3.0 * (1.0 + 1e-4) ** 2
    for a3, b3, e3 in _disk(0j, ball / n3, True):
        rest3 = ball - n3 * e3
        t3, y3 = _axpy((0,) * 6, a3, b3, c3), complex(a3, b3)
        for a2, b2, e2 in _disk(-m32 * y3, rest3 / n2, not y3):
            t2, y2 = _axpy(t3, a2, b2, c2), complex(a2, b2)
            mid, r2 = -(m21 * y2 + m31 * y3), (rest3 - n2 * e2) / n1
            for a1, b1 in _on_surface(t2, c1, mid, r2, not (y2 or y3)):
                qa, qb, ra, rb, pc, pd = _fold(_axpy(t2, a1, b1, c1))
                qn = qa * qa + qb * qb
                if not n0 <= qn <= hi or ra * ra + rb * rb != 2 * (qa * pc + qb * pd):
                    continue
                if (dist_q := radius(qn)) > 0.0:
                    yield from _cell_test(qa, qb, dist_q, uh, vh)[0](ra, rb, (pc, pd))
    return cols


def _axpy(col, a, b, other):
    """col + (a + bi) other, for columns of three Gaussian integers as six ints."""
    x0, y0, x1, y1, x2, y2 = other
    return (col[0] + a * x0 - b * y0, col[1] + a * y0 + b * x0,
            col[2] + a * x1 - b * y1, col[3] + a * y1 + b * x1,
            col[4] + a * x2 - b * y2, col[5] + a * y2 + b * x2)


def _fold(col):
    """The unit multiple of a column whose Q is canonical (re > 0, im >= 0)."""
    qa, qb, ra, rb, pc, pd = col
    if qa > 0 and qb >= 0:
        return col
    if qa <= 0 and qb > 0:
        return (qb, -qa, rb, -ra, pd, -pc)
    if qa < 0 and qb <= 0:
        return (-qa, -qb, -ra, -rb, -pc, -pd)
    return (-qb, qa, -rb, ra, -pd, pc)


def _rows(c, r2, canon):
    """(a, lo, hi) per row of the Gaussian integers a + bi, lo <= b <= hi,
    within sqrt(r2) of c; with canon, only 0 and those with a > 0, b >= 0
    (one of each set of associates)."""
    cx, cy, r = c.real, c.imag, math.sqrt(r2)
    for a in range(max(math.ceil(cx - r), 0) if canon else math.ceil(cx - r),
                   math.floor(cx + r) + 1):
        dx2 = (a - cx) ** 2
        if dx2 <= r2:
            w = math.sqrt(r2 - dx2)
            lo, hi = math.ceil(cy - w), math.floor(cy + w)
            yield (a, max(lo, 0), hi if a else min(hi, 0)) if canon else (a, lo, hi)


def _disk(c, r2, canon):
    """(a, b, |a + bi - c|^2) for the points of _rows(c, r2, canon)."""
    for a, lo, hi in _rows(c, r2, canon):
        for b in range(lo, hi + 1):
            yield a, b, (a - c.real) ** 2 + (b - c.imag) ** 2


def _on_surface(t, c, center, r2, canon):
    """The (a, b) of _disk(center, r2, canon) for which t + (a + bi) c
    satisfies |R|^2 = 2 Re(conj(Q) P), found row by row.

    Along y = a + bi that surface is kappa |y|^2 + 2 Re(y L) + s0 = 0 with
    integer kappa, L and s0, so each row a is an integer quadratic in b.
    """
    q0a, q0b, r0a, r0b, p0a, p0b = t
    qa, qb, ra, rb, pa, pb = c
    kappa = ra * ra + rb * rb - 2 * (qa * pa + qb * pb)
    s0 = r0a * r0a + r0b * r0b - 2 * (q0a * p0a + q0b * p0b)
    # L = conj(R0) Rc - conj(Q0) Pc - Qc conj(P0)
    lr = r0a * ra + r0b * rb - q0a * pa - q0b * pb - qa * p0a - qb * p0b
    li = r0a * rb - r0b * ra - q0a * pb + q0b * pa - qb * p0a + qa * p0b
    for a, lo, hi in _rows(center, r2, canon):
        # kappa b^2 - 2 li b + cst = 0
        cst = (kappa * a + 2 * lr) * a + s0
        if kappa:
            disc = li * li - kappa * cst
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            bs = {(li + root) // kappa, (li - root) // kappa}
            bs = [b for b in bs if (kappa * b - 2 * li) * b + cst == 0]
        elif li:
            bs = [cst // (2 * li)] if cst % (2 * li) == 0 else []
        else:
            bs = range(lo, hi + 1) if cst == 0 else []
        for b in bs:
            if lo <= b <= hi:
                yield a, b


def _gram_schmidt(b):
    """|b*_k|^2 and mu[k][j] = <b_k, b*_j> / |b*_j|^2 (j < k) of vectors in C^3."""
    star, norms, mu = [], [], []
    for v in b:
        row = []
        for s, n in zip(star, norms):
            m = (v[0] * s[0].conjugate() + v[1] * s[1].conjugate() + v[2] * s[2].conjugate()) / n
            row.append(m)
            v = (v[0] - m * s[0], v[1] - m * s[1], v[2] - m * s[2])
        star.append(v)
        norms.append(abs(v[0]) ** 2 + abs(v[1]) ** 2 + abs(v[2]) ** 2)
        mu.append(row)
    return norms, mu


def _reduce(cols, vec):
    """LLL over Z[i] (Lovász constant 0.75) of the basis vec(col): the
    reduced columns.  Each vector is recomputed from its exact column, and
    Gram-Schmidt after each swap."""
    cols = list(cols)
    b = [vec(c) for c in cols]
    norms, mu = _gram_schmidt(b)
    k = 1
    while k < 3:
        row = mu[k]
        for j in range(k - 1, -1, -1):
            ma, mb = round(row[j].real), round(row[j].imag)
            if ma or mb:
                cols[k] = _axpy(cols[k], -ma, -mb, cols[j])
                b[k] = vec(cols[k])
                m = complex(ma, mb)
                row = [x - m * y for x, y in zip(row, mu[j] + [1.0])] + row[j + 1:]
        mu[k] = row
        if norms[k] < (0.75 - abs(row[k - 1]) ** 2) * norms[k - 1]:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            b[k - 1], b[k] = b[k], b[k - 1]
            norms, mu = _gram_schmidt(b)
            k = max(k - 1, 1)
        else:
            k += 1
    return cols


def best_approx_search(h: SiegelPoint, B: float) -> tuple[ProjIntPoint, float]:
    """The lowest-terms rational point with |Q| <= B closest to h.

    Exhaustive over the candidates within DIST_BOUND of h; ties break by
    triple ordering.  The search decides in floats, which resolve its cells
    only while |u|^2 + |v| < 2^50: a larger h is refused, as is a B that
    is not finite.
    """
    if not 1 <= B < math.inf:
        raise ValueError("B must be finite and at least 1")
    try:
        u_abs, v_abs = abs(complex(h.u)), abs(complex(h.v))
    except OverflowError:
        u_abs = v_abs = math.inf
    if not u_abs * u_abs + v_abs < 2.0**50:
        raise ValueError("h is too large for the float search: |u|^2 + |v| must be below 2^50")
    best = None
    for trip in candidate_triples(h, B):
        d4 = triple_distance_pow4(trip, h)
        key = (d4, _trip_key(trip))
        if best is None or key < best[0]:
            best = (key, trip)
    if best is None:
        raise ValueError(f"no candidate within distance {DIST_BOUND} of h")
    (d4, _), trip = best
    return ProjIntPoint(*trip), float(d4) ** 0.25


# ---------------------------------------------------------------------------
# Best-approximant machinery


@dataclass
class Prop71Report:
    """Per-candidate evaluation of the best-approximant inequality."""

    n: int
    q_abs: float
    bound_stated: float
    bound_proof: Optional[float]
    candidates_checked: int
    thm16_cutoff: float
    dist_bound_used: float = 0.0
    violations_stated: list[dict] = field(default_factory=list)
    violations_proof: list[dict] = field(default_factory=list)
    violations_thm16: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def prop71_check(e: CFExpansion, n: int) -> Prop71Report:
    """Evaluate sqrt(x1) + sqrt(x2) >= bound over every enumerated candidate.

    x1 scales the linear form |conj(P) - conj(R) u + conj(Q) v| by the
    convergent's, x2 scales |Q| by |q_n|.  Both the stated bound
    1 / (|v_n| R) and the proof-side quantity
    |(q_{n+1} + q~_{n+1} u_{n+1} - q_n v_{n+1}) / q_n|^(1/2) are compared;
    discrepancies are logged, not adjudicated.  Also checks the
    consequence that candidates with |Q| below |q_n| / (2 rad^2 R^2)
    cannot beat the convergent.  Candidates are checked in triple order,
    so the violation lists do not depend on the order of the search.
    """
    if n + 1 > e.depth:
        raise IndexError("prop71_check requires n + 1 <= depth")
    h0 = e.iterates[0]
    uh, vh = complex(h0.u), complex(h0.v)

    def form_abs(Q, R, P) -> float:  # |conj(P) - conj(R) u + conj(Q) v| in floats
        return abs(complex(P.conj()) - complex(R.conj()) * uh + complex(Q.conj()) * vh)

    qn, rn, pn = e.first_column(n)
    q_abs = math.sqrt(qn.norm())  # a float: the search below visits every |Q| <= |q_n|
    base = form_abs(qn, rn, pn)
    vn_abs = e.v_abs[n]
    bound_stated = 1.0 / (vn_abs * RK_KD) if vn_abs > 0 else math.inf

    qn1 = complex(e.first_column(n + 1)[0])
    fqn1 = complex(e.second_column(n + 1)[0])
    un1, vn1 = complex(e.iterates[n + 1].u), complex(e.iterates[n + 1].v)
    proof_num = qn1 + fqn1 * un1 - complex(qn) * vn1
    bound_proof = math.sqrt(abs(proof_num) / q_abs)

    d_n4 = triple_distance_pow4((qn, rn, pn), h0)
    thm16_cutoff = q_abs / (2.0 * RAD_KD**2 * RK_KD**2)

    # violation of sqrt(x1) + sqrt(x2) >= bound requires, at distance d and
    # denominator Q:  sqrt|Q| (d / sqrt(base) + 1 / sqrt|q_n|) < bound,
    # i.e. d < sqrt(base) (bound / sqrt|Q| - 1 / sqrt|q_n|); everything
    # farther satisfies the inequality outright, so the search radius can
    # shrink with |Q|.  The no-closer-point check only needs d <= d_n for
    # |Q| below its cutoff.
    bound_max = max(
        bound_stated if math.isfinite(bound_stated) else 0.0, bound_proof
    )
    d_n = float(d_n4) ** 0.25
    sqrt_base = math.sqrt(base)
    inv_sqrt_qn = 1.0 / math.sqrt(q_abs)

    def _dist_fn(q_norm: int) -> float:
        cut = sqrt_base * (bound_max / q_norm**0.25 - inv_sqrt_qn) * 1.001
        if q_norm**0.5 < thm16_cutoff:
            cut = max(cut, d_n * 1.001)
        return cut

    dist_fn = _dist_fn if base > 0 and math.isfinite(bound_stated) else None
    dist_used = min(DIST_BOUND, max(_dist_fn(1), 0.0)) if dist_fn else DIST_BOUND

    conv_fold = _fold_unit(qn, rn, pn)
    report = Prop71Report(
        n=n,
        q_abs=q_abs,
        bound_stated=bound_stated,
        bound_proof=bound_proof,
        candidates_checked=0,
        thm16_cutoff=thm16_cutoff,
        dist_bound_used=dist_used,
    )
    cands = candidate_triples(h0, q_abs, dist_fn=dist_fn)
    for trip in sorted(cands, key=_trip_key):
        if trip == conv_fold:
            continue
        report.candidates_checked += 1
        Q, R, P = trip
        x1 = form_abs(Q, R, P) / base if base > 0 else math.inf
        x2 = math.sqrt(Q.norm()) / q_abs
        s = math.sqrt(x1) + math.sqrt(x2)
        entry = {
            "triple": [str(Q), str(R), str(P)],
            "x1": x1,
            "x2": x2,
            "sum_sqrt": s,
        }
        if s < bound_stated * (1 - 1e-9):
            report.violations_stated.append(dict(entry, bound=bound_stated))
        if s < bound_proof * (1 - 1e-9):
            report.violations_proof.append(dict(entry, bound=bound_proof))
        if math.sqrt(Q.norm()) < thm16_cutoff:
            d4 = triple_distance_pow4(trip, h0)
            if not d4 > d_n4:
                report.violations_thm16.append(dict(entry, d4=float(d4)))
    return report
