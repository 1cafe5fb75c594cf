"""Dense oracles: the tables the blocked walk replaced, one strided pass per
prime power over the whole range n <= x, and the one-array sum of condition I
that the segmented prime sieve replaced.

They share no code with arith.Walk: p_1, Omega, omega, nu_p, alpha and its
prefix sum built here must equal the walk's blocks, the draw tables and the
laws the scans stream, bit for bit; the condition I residuals must equal
weights.condition_I_residuals.
"""

import math

import numpy as np

from multweight import arith, weights


def dense_largest_prime_table(x):
    """p_1(n) for n = 0..x, int32 (p_1(0) = 0, p_1(1) = 1)."""
    cof = np.arange(x + 1, dtype=np.int32)
    lpf = np.zeros(x + 1, dtype=np.int32)
    lpf[1:2] = 1
    for p in arith.primes_upto(math.isqrt(x)).tolist():
        lpf[p::p] = p
        pk = p
        while pk <= x:
            cof[pk::pk] //= p
            pk *= p
    return np.maximum(lpf, cof, out=lpf)


def dense_levels(x):
    ps = arith.primes_upto(math.isqrt(x))
    levels = [ps]
    while len(ps := ps[ps ** (len(levels) + 1) <= x]):
        levels.append(ps)
    return levels


def dense_big_omega_table(p1):
    x = len(p1) - 1
    om = (p1 > math.isqrt(x)).astype(np.int8)
    for k, ps in enumerate(dense_levels(x), 1):
        for p in ps.tolist():
            om[p**k :: p**k] += 1
    return om


def dense_omega_table(p1):
    x = len(p1) - 1
    om = (p1 > math.isqrt(x)).astype(np.int8)
    for p in dense_levels(x)[0].tolist():
        om[p::p] += 1
    return om


def dense_nu_p_table(x, p):
    nu = np.zeros(x + 1, dtype=np.int8)
    pk = p
    while pk <= x:
        nu[pk::pk] += 1
        pk *= p
    return nu


def dense_weight_table(w, p1):
    """alpha(n) and the prefix sum S(y) for n, y = 0..x, x = len(p1) - 1 (alpha[0] = S(0) = 0)."""
    x = len(p1) - 1
    levels, big = dense_levels(x), p1 > math.isqrt(x)
    alpha = np.ones(x + 1)
    alpha[0] = 0.0
    prev = np.ones(len(levels[0]))
    for k, ps in enumerate(levels, 1):
        cur = w.values_on_primes(ps, k)
        prev = prev[: len(ps)]
        ratio = np.divide(cur, prev, out=np.ones_like(cur), where=prev != 0.0)
        for p, r in zip(ps.tolist(), ratio.tolist()):
            if r != 1.0:
                alpha[p**k :: p**k] *= r
        if k == 1:
            hit = np.nonzero(big)[0]
            alpha[hit] *= w.values_on_primes(p1[hit].astype(np.int64), 1)
        prev = cur
    # the prefix sum: each CHUNK-entry chunk's cumsum plus the math.fsum of the totals of the chunks before it
    chunk, prefix, totals = weights.CHUNK, np.zeros(x + 1), []
    for start in range(1, x + 1, chunk):
        prefix[start : start + chunk] = np.cumsum(alpha[start : start + chunk]) + math.fsum(totals)
        totals.append(float(np.sum(alpha[start : start + chunk])))
    return alpha, prefix


def dense_primes_upto(x):
    """Primes <= x, increasing, int64, from one boolean Eratosthenes sieve of x + 1 entries."""
    is_p = np.ones(x + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(x) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p)


def dense_condition_I_residuals(w, checkpoints):
    """(x, sum_{p<=x} alpha(p) log p / p^d - theta*x) for the sorted checkpoints, from one cumsum over all primes."""
    reg = w.ewens()
    cps = sorted(int(c) for c in checkpoints)
    ps = dense_primes_upto(max(cps))
    pf = ps.astype(float)
    csum = np.concatenate([[0.0], np.cumsum(w.values_on_primes(ps, 1) * np.log(pf) / pf**reg.d)])
    return [(c, float(csum[np.searchsorted(ps, c, side="right")]) - reg.theta * c) for c in cps]


def joined(blocks, values):
    """values(block) over the blocks of one walk, joined into one array for n = 0..x, entry 0 zero."""
    parts = [values(b) for b in blocks]
    return np.concatenate([np.zeros(1, parts[0].dtype if parts else np.int8), *parts])
