"""Approximation quality of convergents and best-approximation searches.

Measures the comparability ratios behind the distance and relative-size
bounds, runs exhaustive searches for closer rational points, and checks
the best-approximant inequality candidate by candidate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from mpmath.libmp import mpf_shift, mpf_sqrt, round_nearest, to_float

from ..cf import CFExpansion
from ..domain import RAD_KD, rk_constant
from ..gaussian import GaussInt, _coprime, _fold_unit, _trip_key
from ..matrices import mat_apply_triple, u21_inverse
from ..siegel import ProjIntPoint, SiegelPoint, _int_linear_form, abs_sq, triple_distance_pow4

__all__ = [
    "ApproxRecord",
    "Prop71Report",
    "RAD_KD",
    "RK_KD",
    "approx_quality",
    "best_approx_search",
    "candidate_triples",
    "convergent_distance",
    "decompose_triple",
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
    v_next: complex
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
    root = mpf_sqrt(mpf_shift(d4._mpf_, 4 * k), e.ctx.bits, round_nearest)
    return to_float(mpf_sqrt(root, e.ctx.bits, round_nearest), rnd=round_nearest)


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
    v_next = complex(e.iterates[n + 1].v)
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
        v_next=v_next,
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


def candidate_triples(h: SiegelPoint, B: float, dist_fn=None):
    """Lowest-terms triples (Q, R, P), |Q| <= B and Q canonical, near h, each once.

    Near means gauge distance <= DIST_BOUND.  A dist_fn(q_norm)
    further tightens the search radius per denominator norm; q values
    whose radius comes back <= 0 are skipped outright.  The other three
    associates of Q would only repeat these triples: a unit multiplies
    every complex product and quotient below exactly, bit for bit.

    Only cells that can pass the float tests are walked (see the README),
    in windows widened past rounding: the triples and their order are
    those of a scan of the bounding squares.
    """
    uh, vh = complex(h.u), complex(h.v)
    uh_c, vh_c, uh_abs, vh_abs = uh.conjugate(), vh.conjugate(), abs(uh), abs(vh)
    qmax2 = int(B * B + 1e-9)
    for qa in range(1, min(int(B) + 1, math.isqrt(qmax2)) + 1):
        for qb in range(min(int(B) + 1, math.isqrt(qmax2 - qa * qa)) + 1):
            qn = qa * qa + qb * qb
            dist_q = DIST_BOUND
            if dist_fn is not None:
                dist_q = min(DIST_BOUND, dist_fn(qn))
                if dist_q <= 0.0:
                    continue
            db2 = dist_q * dist_q
            d4_max = db2 * db2 * 1.000001 + 1e-9
            u_slack = math.sqrt(2.0) * dist_q + 1e-9
            qc = complex(qa, qb)
            q_abs = math.sqrt(qn)
            center = qc * uh
            cx, cy, qv = center.real, center.imag, qc * vh_c
            rad = q_abs * u_slack
            v_r_max = db2 + (uh_abs + u_slack) * uh_abs + vh_abs
            p_norm_max = int(qn * (v_r_max * v_r_max) + 1)
            # P = (s x - b t, s y + a t) on a c + b d = s, with a x + b y = 1
            g = math.gcd(qa, qb)
            a, b = qa // g, qb // g
            x = pow(a, -1, b) if b else 1
            y = (1 - a * x) // b if b else 0
            k, step2 = b * x - a * y, a * a + b * b
            t_half = (q_abs * math.sqrt(d4_max) * 1.000001 + 1e-6) / math.sqrt(step2)
            for ra in range(math.ceil(cx - rad - 1e-6), math.floor(cx + rad + 1e-6) + 1):
                dx = ra - cx
                w = math.sqrt(max(rad * rad - dx * dx, 0.0) + 1e-9 * rad * rad) + 1e-6
                lo = math.ceil(cy - w)
                for rb in range(lo + (lo - ra) % 2, math.floor(cy + w) + 1, 2):
                    if abs(complex(dx, rb - cy)) > rad:
                        continue
                    s, rem = divmod((ra * ra + rb * rb) >> 1, g)
                    if rem:
                        continue
                    rc = complex(ra, rb)
                    ucu = (rc / qc).conjugate() * uh
                    pz = rc * uh_c - qv
                    t_mid = (s * k - b * pz.real + a * pz.imag) / step2
                    for t in range(math.ceil(t_mid - t_half), math.floor(t_mid + t_half) + 1):
                        pc, pd = s * x - b * t, s * y + a * t
                        if pc * pc + pd * pd > p_norm_max:
                            continue
                        # float prefilter: plausibly within dist_q of h (exact check later)
                        vc = complex(pc, pd) / qc
                        if abs(vc.conjugate() - ucu + vh) ** 2 > d4_max:
                            continue
                        trip = (GaussInt(qa, qb), GaussInt(ra, rb), GaussInt(pc, pd))
                        if _coprime(*trip):
                            yield trip


def best_approx_search(h: SiegelPoint, B: float) -> tuple[ProjIntPoint, float]:
    """The lowest-terms rational point with |Q| <= B closest to h.

    Exhaustive over the candidates within DIST_BOUND of h; ties break by
    triple ordering.
    """
    if not 1 <= B < math.inf:
        raise ValueError("B must be finite and at least 1")
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


def decompose_triple(e: CFExpansion, n: int, target) -> tuple[GaussInt, GaussInt, GaussInt]:
    """Coordinates (a, b, c) of target in the Q_{n+1} column basis."""
    if n + 1 > e.depth:
        raise IndexError("decompose_triple requires n + 1 <= depth")
    return mat_apply_triple(u21_inverse(e.continuants[n + 1]), target)


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
