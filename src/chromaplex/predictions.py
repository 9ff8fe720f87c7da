"""Closed-form targets for the Monte Carlo harness.

Quantities whose finite-p law is exactly a harmonic sum are evaluated as
exact rationals; limit statements keep their leading-order form and carry
the sharp next-order error term so the harness can widen tolerances.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .colored_graph import degree_from_b2
from .config_digraph import model_constants, quartic_constants
from .models import BaseGraph
from .observables import OBSERVABLES, SAMPLERS

try:
    from gmpy2 import mpq

    _HAVE_GMPY2 = True
except ImportError:  # gmpy2 is declared but optional: without it harmonic()
    _HAVE_GMPY2 = False  # runs _harmonic_exact and harmonic_var sums Fractions

_BLOCK = 256
_CHUNK = 48  # primes per leaf of the big-prime product tree
# A merge goes through the FFT when its smaller product operand has at least
# _FFT_MIN_BITS bits and both together at least _FFT_SUM_BITS; below that
# CPython's Karatsuba is as fast.
_FFT_MIN_BITS = 1 << 13
_FFT_SUM_BITS = 1 << 16

EXACT = "exact-finite-p"
ASYMPTOTIC = "leading-asymptotic"


def _fraction_from_coprime(num: int, den: int) -> Fraction:
    """Fraction without the constructor's gcd pass; requires den > 0 and
    gcd(num, den) == 1."""
    f = Fraction.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


try:
    _probe = _fraction_from_coprime(3, 2)
    if _probe != Fraction(3, 2) or _probe + Fraction(1, 2) != 2:
        raise RuntimeError
    del _probe
except Exception:  # pragma: no cover - slots changed upstream
    _fraction_from_coprime = Fraction  # type: ignore[assignment]


def _harmonic_block(lo: int, hi: int) -> tuple[int, int]:
    num, den = 0, 1
    for j in range(lo, hi):
        num = num * j + den
        den *= j
    return num, den


def _variance_block(lo: int, hi: int) -> tuple[int, int]:
    num, den = 0, 1
    for j in range(lo, hi):
        jj = j * j
        num = num * jj + (j - 1) * den
        den *= jj
    return num, den


def _range_sum(lo: int, hi: int, block):
    """Balanced tree sum of block partial sums over lo <= j < hi; gmpy2
    rationals canonicalize the merges when available."""
    if hi - lo <= _BLOCK:
        num, den = block(lo, hi)
        return mpq(num, den) if _HAVE_GMPY2 else Fraction(num, den)
    mid = (lo + hi) // 2
    return _range_sum(lo, mid, block) + _range_sum(mid, hi, block)


def _to_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    return _fraction_from_coprime(int(q.numerator), int(q.denominator))


def _primes_upto(n: int) -> np.ndarray:
    """Primes <= n in ascending order."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int32 if n < 2**31 else np.int64)


def _numbers_over(primes: list[int], n: int) -> np.ndarray:
    """Sorted j <= n, 1 included, whose prime factors all lie in `primes`."""
    out = np.ones(1, dtype=np.int32 if n < 2**31 else np.int64)
    for p in primes:
        parts, q = [out], p
        while q <= n:
            parts.append(out[out <= n // q] * q)
            q *= p
        out = np.concatenate(parts)
    out.sort()
    return out


def _spectrum(x: int, size: int) -> np.ndarray:
    return np.fft.rfft(
        np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), np.uint8), size
    )


def _from_spectrum(spec: np.ndarray, size: int) -> Optional[int]:
    """The integer whose base-256 digits are the inverse transform, rounded;
    None when a coefficient is not within 1/8 of an integer."""
    c = np.fft.irfft(spec, size)
    r = np.rint(c)
    c -= r
    if np.abs(c, out=c).max() > 0.125:
        return None
    del c
    planes = r.astype("<u8").view(np.uint8).reshape(-1, 8)
    return sum(
        int.from_bytes(planes[:, k].tobytes(), "little") << (8 * k)
        for k in range((int(r.max()).bit_length() + 7) // 8)
    )


def _fft_size(m: int) -> int:
    """Smallest 2^a 3^b >= m."""
    best, p3 = 1 << (m - 1).bit_length(), 1
    while p3 < best:
        size = p3
        while size < m:
            size *= 2
        best = min(best, size)
        p3 *= 3
    return best


def _merge(p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """(p1 p2, q1 p2 + q2 p1). Large operands are multiplied as convolutions
    of their base-256 digits in float64 FFTs that share the four forward
    transforms. The rounding error of such a product is at most about
    13 log2(size) * 2^-53 * |x|_2 |y|_2 (Percival 2003), under 0.04 for every
    transform up to 2^24 points, far inside the 1/2 that rounding to the
    exact coefficients tolerates; a coefficient found more than 1/8 off an
    integer still sends the merge to exact integer products.
    """
    b1, b2 = p1.bit_length(), p2.bit_length()
    if min(b1, b2) >= _FFT_MIN_BITS and b1 + b2 >= _FFT_SUM_BITS:
        size = _fft_size((max(p1, q1).bit_length() + max(p2, q2).bit_length()) // 8 + 2)
        f1, f2, g1, g2 = (_spectrum(x, size) for x in (p1, p2, q1, q2))
        g1 *= f2  # in place, to keep the peak memory of large merges down
        g2 *= f1
        g1 += g2
        f1 *= f2
        del f2, g2
        p = _from_spectrum(f1, size)
        del f1
        q = _from_spectrum(g1, size)
        if p is not None and q is not None:
            return p, q
    return p1 * p2, q1 * p2 + q2 * p1


def _fold(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """(prod P, sum Q * prod(P) / P) over (P, Q) pairs, always merging the two
    smallest products so that every merge is nearly balanced."""
    heap = [(p.bit_length(), i, p, q) for i, (p, q) in enumerate(pairs)]
    heapq.heapify(heap)
    i = len(heap)
    while len(heap) > 1:
        _, _, p1, q1 = heapq.heappop(heap)
        _, _, p2, q2 = heapq.heappop(heap)
        p, q = _merge(p1, q1, p2, q2)
        heapq.heappush(heap, (p.bit_length(), i, p, q))
        i += 1
    return (heap[0][2], heap[0][3]) if heap else (1, 0)


def _harmonic_exact(n: int) -> tuple[int, int]:
    """Coprime (numerator, denominator > 0) of H_n in integer arithmetic.
    No gcd it takes and no divisor it uses is larger than Ls below (about
    3 kbit at n = 10^6, against 1.44 Mbit for the result).

    With t = isqrt(n), L = lcm(1..n) = Ls * Lb, where Ls holds the prime
    powers p^e <= n of the primes p <= t and Lb is the product of the primes
    in (t, n]. Each j <= n is t-smooth or p*m with one prime p > t and
    m <= n // p <= t, so with a_k = Ls * H_k

        L * H_n = Lb * S + sum_{p > t} a_{n//p} * Lb / p,

    S being the sum of Ls / j over the t-smooth j <= n. The sum over p is
    built by binary splitting (Haible & Papanikolaou 1998) over the primes,
    grouped by n // p. The reduction follows from p-adic structure (Boyd
    1994): splitting off the j divisible by p^e, v_p(H_n) = -e exactly when p
    does not divide the numerator of H_{n // p^e}, p^e <= n < p^(e+1). So a
    big prime leaves the denominator exactly when it divides that numerator
    (and is then left out of the product), and only a small prime that
    divides it needs the numerator modulo p^e.
    """
    t = math.isqrt(n)
    y = math.isqrt(t)
    primes = _primes_upto(n)
    ny, nt = np.searchsorted(primes, (y, t), side="right").tolist()
    small = primes[:nt].tolist()
    powers = []
    for p in small:
        q = p
        while q * p <= n:
            q *= p
        powers.append(q)
    l_y = math.prod(powers[:ny])
    l_m = math.prod(powers[ny:])
    l_s = l_y * l_m
    nums = [0]  # numerators of H_k, k <= t
    h_num, h_den = 0, 1
    for k in range(1, t + 1):
        h_num, h_den = h_num * k + h_den, h_den * k
        g = math.gcd(h_num, h_den)
        h_num, h_den = h_num // g, h_den // g
        nums.append(h_num)
    a = [0, *itertools.accumulate(map(l_s.__floordiv__, range(1, t + 1)))]

    # S: a t-smooth j is u * v with u y-smooth and v made of primes in (y, t],
    # so S = sum_v (Lm / v) * T(n // v) with T(x) = sum_{u <= x} Ly / u.
    u = _numbers_over(small[:ny], n)
    t_u = list(itertools.accumulate(map(l_y.__floordiv__, u.tolist())))
    v = _numbers_over(small[ny:], n)
    at = (np.searchsorted(u, n // v, side="right") - 1).tolist()
    s = sum(map(operator.mul, map(l_m.__floordiv__, v.tolist()), [t_u[i] for i in at]))

    big = primes[nt:]
    groups = []
    for run in np.split(big, np.flatnonzero(np.diff(n // big)) + 1):
        run = run.tolist()
        if not run:
            continue
        k = n // run[0]
        if nums[k] >= run[0]:  # only then can a prime of the run divide it
            s += sum(a[k] // p for p in run if nums[k] % p == 0)
            run = [p for p in run if nums[k] % p]
        leaves = []
        for c in range(0, len(run), _CHUNK):
            prod, e = 1, 0  # e = sum of prod / p over the chunk
            for p in run[c : c + _CHUNK]:
                prod, e = prod * p, e * p + prod
            leaves.append((prod, e))
        b_k, e_k = _fold(leaves)
        groups.append((b_k, a[k] * e_k))
    l_b, rest = _fold(groups)
    num = l_b * s + rest

    g = 1
    for p, pe in zip(small, powers):
        if nums[n // pe] % p == 0:
            r, d = num % pe, 1
            while d < pe and r % (d * p) == 0:
                d *= p
            g *= d
    return num // g, (l_s // g) * l_b


def harmonic(n: int) -> Fraction:
    """Exact H_n = sum_{j<=n} 1/j.

    With gmpy2, a balanced tree of mpq block sums. Without it,
    `_harmonic_exact`: a p-adic reduction plus binary splitting over the
    primes in plain integers. On one core of a shared 2-core Xeon VM that
    takes 15-30 ms at n = 10^5 and 0.3-0.4 s at n = 10^6, against 0.3-0.4 s
    and 23-25 s for the Fraction tree it replaced."""
    if n < 1:
        raise ValueError("harmonic numbers start at n = 1")
    if _HAVE_GMPY2:
        return _to_fraction(_range_sum(1, n + 1, _harmonic_block))
    return _fraction_from_coprime(*_harmonic_exact(n))


def harmonic_var(n: int) -> Fraction:
    """Exact sum_{j<=n} (j-1)/j^2, the cycle-count variance of a uniform
    permutation of size n."""
    if n < 1:
        raise ValueError("needs n >= 1")
    return _to_fraction(_range_sum(1, n + 1, _variance_block))


@dataclass(frozen=True)
class Prediction:
    name: str
    model: str
    observable: str
    D: Optional[int]
    p: Optional[int]
    value: Union[Fraction, float]
    kind: str          # EXACT or ASYMPTOTIC
    error_order: float  # sharp next-order term at this p; 0.0 when unstated
    anchor: str        # formula this value evaluates

    def as_float(self) -> float:
        return float(self.value)


def predict(
    model: str,
    observable: str,
    D: Optional[int] = None,
    p: Optional[int] = None,
    base: Optional[BaseGraph] = None,
) -> Prediction:
    """Closed-form prediction for one observable of one model."""
    return _predict(model, observable, D, p, base, harmonic)


def _predict(model, observable, D, p, base, h) -> Prediction:
    """`predict` with the exact harmonic numbers taken from `h`."""
    if model == "uniform":
        return _predict_uniform(observable, D, p, h)
    if model == "quartic":
        return _predict_quartic(observable, D, p, h)
    if model == "ribbon":
        return _predict_ribbon(observable, p)
    if model == "uncolored":
        return _predict_uncolored(observable, D, p, base)
    raise ValueError(f"unknown model {model!r}")


def _mk(model, observable, D, p, value, kind, error_order, anchor) -> Prediction:
    return Prediction(
        name=f"{model}.{observable}",
        model=model,
        observable=observable,
        D=D,
        p=p,
        value=value,
        kind=kind,
        error_order=error_order,
        anchor=anchor,
    )


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _predict_uniform(obs: str, D: int, p: int, h) -> Prediction:
    _need(D is not None and D >= 1 and p is not None and p >= 1, "need D >= 1, p >= 1")
    if obs == "connected":
        if D == 1:
            return _mk("uniform", obs, D, p, Fraction(1, p), EXACT, 0.0, "1/p")
        return _mk(
            "uniform", obs, D, p,
            1 - Fraction(1, p ** (D - 1)),
            ASYMPTOTIC, p ** (-2 * (D - 1)), "1 - 1/p^(D-1)",
        )
    if obs == "components":
        if D == 1:
            return _mk("uniform", obs, D, p, h(p), EXACT, 0.0, "H_p")
        return _mk(
            "uniform", obs, D, p, 1.0, ASYMPTOTIC, p ** (-(D - 1)), "1 + O(1/p^(D-1))"
        )
    if obs == "bD":
        _need(D >= 3, "point-count limit needs D >= 3")
        return _mk(
            "uniform", obs, D, p, float(D + 1), ASYMPTOTIC, p ** (-(D - 2)),
            "D+1 + O(1/p^(D-2))",
        )
    if obs == "b2":
        return _mk(
            "uniform", obs, D, p,
            Fraction(D * (D + 1), 2) * h(p),
            EXACT, 0.0, "D(D+1)/2 * H_p",
        )
    if obs == "b2_var":
        return _mk(
            "uniform", obs, D, p,
            D * (D + 1) / 2 * math.log(p),
            ASYMPTOTIC, 0.0, "D(D+1)/2 * ln p",
        )
    if obs == "jacket_faces":
        return _mk(
            "uniform", obs, D, p, (D + 1) * h(p), EXACT, 0.0, "(D+1) * H_p"
        )
    if obs == "gurau_degree":
        _need(D >= 2, "degree needs D >= 2")
        b2 = _predict_uniform("b2", D, p, h).value
        return _mk(
            "uniform", obs, D, p, degree_from_b2(D, p, b2), EXACT, 0.0,
            "(D-1)!/2 * (D(D-1)/2*p + D - E[b2])",
        )
    raise ValueError(f"unsupported uniform observable {obs!r}")


def _predict_quartic(obs: str, D: int, p: int, h) -> Prediction:
    _need(D is not None and D >= 2 and p is not None and p >= 1, "need D >= 2, p >= 1")
    if obs == "connected":
        return _mk(
            "quartic", obs, D, p,
            1 - Fraction(1, 2 * p - 1) if p > 1 else Fraction(1),
            ASYMPTOTIC, p ** -2.0, "1 - 1/(2p-1)",
        )
    if obs == "components":
        return _mk("quartic", obs, D, p, 1.0, ASYMPTOTIC, 1.0 / p, "1 + O(1/p)")
    if obs == "b2":
        return _mk(
            "quartic", obs, D, p,
            (D - 1) ** 2 * p + D * h(2 * p),
            EXACT, 0.0, "(D-1)^2 p + D * H_2p",
        )
    if obs == "b2_var":
        return _mk(
            "quartic", obs, D, p,
            40.0 * math.log(2 * p) ** 3,
            ASYMPTOTIC, 0.0, "upper bound 40 (ln 2p)^3",
        )
    if obs == "k_of_S":
        _need(D >= 3, "giant-component regime needs D >= 3")
        return _mk(
            "quartic", obs, D, p,
            1.0 + math.log(D / (D - 1)),
            ASYMPTOTIC, 0.0, "1 + ln(D/(D-1))",
        )
    if obs == "bD":
        if D == 2:
            return _mk(
                "quartic", obs, D, p,
                p + 2 * h(2 * p),
                EXACT, 0.0, "p + 2 H_2p",
            )
        return _mk(
            "quartic", obs, D, p,
            p + D * (1.0 + math.log(D / (D - 1))),
            ASYMPTOTIC, 0.0, "p + D(1 + ln(D/(D-1)))",
        )
    if obs in ("C1", "C2", "C3", "C4"):
        k = int(obs[1:])
        lam = quartic_constants(D).lambda_k(k)
        return _mk("quartic", obs, D, p, lam, ASYMPTOTIC, 0.0, f"1/({k} D^{k})")
    if obs == "jacket_faces":
        value = Fraction(2 * p * (D - 1) ** 2, D) + 2 * h(2 * p)
        return _mk(
            "quartic", obs, D, p, value, EXACT, 0.0,
            "2p(D-1)^2/D + 2 H_2p",
        )
    if obs == "gurau_degree":
        b2 = _predict_quartic("b2", D, p, h).value
        return _mk(
            "quartic", obs, D, p, degree_from_b2(D, 2 * p, b2), EXACT, 0.0,
            "(D-1)!/2 * (D(D-1)/2*2p + D - E[b2])",
        )
    raise ValueError(f"unsupported quartic observable {obs!r}")


def _predict_ribbon(obs: str, p: int) -> Prediction:
    _need(p is not None and p >= 1, "need p >= 1")
    if obs == "connected":
        return _mk(
            "ribbon", obs, None, p,
            1 - Fraction(1, 2 * p - 1) if p > 1 else Fraction(1),
            ASYMPTOTIC, p ** -2.0, "1 - 1/(2p-1)",
        )
    if obs == "genus":
        return _mk(
            "ribbon", obs, None, p,
            1 + Fraction(p, 2) - harmonic(2 * p),
            EXACT, 0.0, "1 + p/2 - H_2p",
        )
    raise ValueError(f"unsupported ribbon observable {obs!r}")


def _predict_uncolored(obs: str, D, p: int, base: BaseGraph) -> Prediction:
    _need(base is not None, "uncolored predictions need a base graph")
    _need(p is not None and p >= 1, "need p >= 1")
    _need(D is None or D == base.D, "D disagrees with the base graph")
    D, t = base.D, base.t
    if obs == "connected":
        return _mk(
            "uncolored", obs, D, p,
            1 - Fraction(p, math.comb(t * p, t)),
            ASYMPTOTIC, float(p) ** (-2.0 * (t - 1)), "1 - p/C(tp, t)",
        )
    if obs == "components":
        return _mk(
            "uncolored", obs, D, p, 1.0, ASYMPTOTIC, float(p) ** (-(t - 1.0)),
            "1 + O(1/p^(t-1))",
        )
    constants = model_constants(base)
    if obs == "k_of_S":
        _need(D >= 3, "giant-component regime needs D >= 3")
        _need(constants.supercritical, "subcritical base: d0 <= 1")
        return _mk(
            "uncolored", obs, D, p, 1.0 + constants.c_G, ASYMPTOTIC, 0.0,
            "1 + c_G (cycle sum from k=2)",
        )
    if obs == "bD":
        _need(D >= 3, "point-count regime needs D >= 3")
        _need(constants.supercritical, "subcritical base: d0 <= 1")
        return _mk(
            "uncolored", obs, D, p, p + D * (1.0 + constants.c_G), ASYMPTOTIC, 0.0,
            "p + D(1 + c_G)",
        )
    raise ValueError(f"unsupported uncolored observable {obs!r}")


def prediction_table(
    model: str,
    D: Optional[int] = None,
    p: Optional[int] = None,
    base: Optional[BaseGraph] = None,
) -> list[Prediction]:
    """All predictions available for a model at these parameters.  Rows
    share one exact harmonic number per argument, computed on first use;
    the memo lives for this call only."""
    if model not in SAMPLERS:
        raise ValueError(f"unknown model {model!r}")
    h = functools.cache(harmonic)
    rows = []
    for entry in OBSERVABLES.values():
        if model not in entry.table:
            continue
        try:
            rows.append(_predict(model, entry.name, D, p, base, h))
        except ValueError:
            continue  # observable not defined at these parameters
    return rows


def format_value(value: Union[Fraction, float]) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return repr(value)


def predictions_csv(rows: list[Prediction]) -> str:
    lines = ["name,model,D,p,value,kind,anchor"]
    for r in rows:
        D = "" if r.D is None else r.D
        p = "" if r.p is None else r.p
        lines.append(f"{r.name},{r.model},{D},{p},{format_value(r.value)},{r.kind},{r.anchor}")
    return "\n".join(lines) + "\n"
