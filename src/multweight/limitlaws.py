"""Reference limit laws and distribution-comparison metrics.

The Beta(1, theta), gamma and normal CDFs on numpy alone, the last two from
one regularized incomplete gamma (gamma is shape/rate: density
rate^shape x^(shape-1) e^(-rate x)/Gamma(shape)); GEM stick-breaking draws
and the Monte Carlo means of the Poisson-Dirichlet largest parts; row-wise
size-biased permutation and residual ratios; KS distances; and the
Dickman-type function rho_theta solving

    rho(x) x^theta = integral_{x-1}^{x} theta y^(theta-1) rho(y) dy,

with rho = 1 on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import ExactPmf


# ---------------------------------------------------------------------------
# Elementary reference distributions
# ---------------------------------------------------------------------------


def beta_sample(theta: float, rng: np.random.Generator, size=None):
    """Beta(1, theta) draws by the exact inverse CDF 1 - U^(1/theta)."""
    if theta <= 0:
        raise ValueError("beta shape parameter theta must be positive")
    return 1.0 - rng.random(size) ** (1.0 / theta)


# The CDFs run on numpy alone, clipped to the support as scipy.stats clips:
# importing scipy.special would cost about 22 MB and a quarter second.
_EPS = float(np.finfo(float).eps)
GAMMA_BLOCK = 1 << 13  # entries of incomplete_gamma solved at a time: its working memory


def _series(a: float, y: np.ndarray) -> np.ndarray:
    """sum_n y^n/(a (a+1) ... (a+n)) of each entry of y (DLMF 8.7.1)."""
    term = np.full(len(y), 1.0 / a)
    total, live = term.copy(), np.ones(len(y), dtype=bool)
    for i in range(1, 10**4):
        if not live.any():
            return total
        term *= y / (a + i)
        np.add(total, term, out=total, where=live)
        live &= term > total * _EPS
    raise ValueError(f"the series of P({a}, y) did not converge in 10^4 steps")


def _fraction(a: float, y: np.ndarray) -> np.ndarray:
    """1/(y+1-a - 1(1-a)/(y+3-a - 2(2-a)/(y+5-a - ...))) of each entry of y (DLMF 8.9.2), by the
    modified Lentz method (Numerical Recipes, 3rd ed., sec. 6.2); 1e-300 keeps a denominator off zero."""
    b = y + 1.0 - a
    c, d = np.full(len(y), 1e300), 1.0 / b
    frac, live = d.copy(), np.ones(len(y), dtype=bool)
    for i in range(1, 10**4):
        if not live.any():
            return frac
        an = -i * (i - a)
        b += 2.0
        d, c = (np.where(np.abs(v) > 1e-300, v, 1e-300) for v in (an * d + b, b + an / c))
        d = 1.0 / d
        np.multiply(frac, d * c, out=frac, where=live)
        live &= np.abs(d * c - 1.0) > _EPS
    raise ValueError(f"the continued fraction of Q({a}, y) did not converge in 10^4 steps")


def incomplete_gamma(a: float, y) -> tuple[np.ndarray, np.ndarray]:
    """(P(a, y), Q(a, y)), the regularized incomplete gamma functions, elementwise.

    P is e^-y y^a/Gamma(a) times its series below y = a + 1, Q that factor
    times its continued fraction from there on, and the other is 1 less the
    one summed, so no far tail cancels.  Each entry's sum is frozen (where=live)
    once its own step moves it by less than an ulp, so no entry depends on the
    others, and they are solved GAMMA_BLOCK at a time.  y = inf gives (1, 0);
    NaN or y < 0 gives NaN.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"incomplete gamma needs a positive finite a, got {a}")
    y = np.asarray(y, dtype=float)
    flat, upper = y.ravel(), y.ravel() >= a + 1.0
    low, high = np.flatnonzero((flat >= 0) & ~upper), np.flatnonzero(upper & (flat < np.inf))
    out = np.full(flat.shape, np.nan)  # P below a + 1, Q from there on
    for i in range(0, max(len(low), len(high)), GAMMA_BLOCK):
        out[low[i : i + GAMMA_BLOCK]] = _series(a, flat[low[i : i + GAMMA_BLOCK]])
        out[high[i : i + GAMMA_BLOCK]] = _fraction(a, flat[high[i : i + GAMMA_BLOCK]])
    with np.errstate(divide="ignore", invalid="ignore"):
        out *= np.exp(a * np.log(flat) - flat - math.lgamma(a))
    out[flat == np.inf] = 0.0
    return np.where(upper, 1.0 - out, out).reshape(y.shape), np.where(upper, out, 1.0 - out).reshape(y.shape)


def beta_cdf(theta: float, t):
    """CDF of the Beta(1, theta) law, 1 - (1 - t)^theta on [0, 1]."""
    with np.errstate(divide="ignore"):
        return -np.expm1(theta * np.log1p(-np.clip(t, 0.0, 1.0)))


def gamma_cdf(shape: float, rate: float, t):
    """CDF of the gamma law with mean shape/rate (shape-rate convention)."""
    if shape <= 0 or rate <= 0:
        raise ValueError("gamma parameters must be positive")
    return incomplete_gamma(shape, np.maximum(np.divide(t, 1.0 / rate), 0.0))[0]


def normal_cdf(t):
    """CDF of N(0, 1): Q(1/2, t^2/2)/2 below 0 and 1 less that from 0 on."""
    q = 0.5 * incomplete_gamma(0.5, np.square(t) / 2.0)[1]
    return np.where(np.less(t, 0), q, 1.0 - q)


# ---------------------------------------------------------------------------
# GEM / Poisson-Dirichlet
# ---------------------------------------------------------------------------


def gem_matrix(theta: float, k: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """size x k matrix of stick-breaking fractions (vectorized replicates)."""
    Y = beta_sample(theta, rng, size=(size, k))
    left = np.concatenate([np.ones((size, 1)), np.cumprod(1.0 - Y[:, :-1], axis=1)], axis=1)
    return left * Y


def pd_largest_part_means(theta: float, rng: np.random.Generator, draws: int) -> np.ndarray:
    """Monte Carlo means of the three largest of the first 200 GEM(theta)
    parts (the PD(theta) largest parts, truncated), over `draws` rows drawn
    20000 at a time from one stream.

    Each row is drawn in column chunks of 8, 16, 32, ... fractions, 200 in
    all, and stops once the stick it has left is no longer than its
    third-largest part so far: every later part is at most that stick, so
    none of them can enter the top three.  At theta = 1 a row draws about 8
    fractions; for large theta the 200 cap binds."""
    acc = np.zeros(3)
    for i in range(0, draws, 20000):
        top = np.zeros((min(20000, draws - i), 3))  # the live rows' three largest parts, descending
        stick = np.ones(len(top))
        drawn, width = 0, 8
        while len(top) and drawn < 200:
            y = beta_sample(theta, rng, size=(len(top), min(width, 200 - drawn)))
            rest = stick[:, None] * np.cumprod(1.0 - y, axis=1)  # the stick left after each fraction
            y[:, 0] *= stick
            y[:, 1:] *= rest[:, :-1]  # y now holds the parts
            top = np.sort(np.concatenate([top, y], axis=1), axis=1)[:, :-4:-1]
            stick = rest[:, -1]
            settled = stick <= top[:, 2]
            acc += top[settled].sum(axis=0)
            top, stick = top[~settled], stick[~settled]
            drawn, width = drawn + y.shape[1], 2 * width
        acc += top.sum(axis=0)
    return acc / draws


def size_biased_permutation_matrix(parts: np.ndarray, rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    """Row-wise size-biased permutation of a replicates x parts matrix, or its
    first k columns: parts by increasing key Exp(1)/part, ties by column.  Only
    the k smallest keys, found by argpartition, are sorted; rows whose keys tie
    across the k-th (zero parts' inf keys) are sorted in full."""
    parts = np.asarray(parts, dtype=float)
    with np.errstate(divide="ignore"):
        keys = rng.exponential(size=parts.shape) / parts
    k = parts.shape[1] if k is None else k
    cols = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
    top = np.take_along_axis(keys, cols, axis=1)
    order = np.take_along_axis(cols, np.argsort(top, axis=1, kind="stable"), axis=1)
    kth = top.max(axis=1)
    tied = ~np.isfinite(kth) | (np.count_nonzero(keys <= kth[:, None], axis=1) > k)
    order[tied] = np.argsort(keys[tied], axis=1, kind="stable")[:, :k]
    return np.take_along_axis(parts, order, axis=1)


def residual_ratios(reordered: np.ndarray) -> np.ndarray:
    """Ratios x_j / (1 - x_1 - ... - x_{j-1}); rows of a PD size-biased
    permutation come out i.i.d. Beta(1, theta)."""
    arr = np.asarray(reordered, dtype=float)
    one_d = arr.ndim == 1
    if one_d:
        arr = arr[None, :]
    rem = 1.0 - np.concatenate([np.zeros((arr.shape[0], 1)), np.cumsum(arr[:, :-1], axis=1)], axis=1)
    if np.any(rem <= 0):
        raise ValueError("nonpositive remainder; prefix sums reach 1")
    out = arr / rem
    return out[0] if one_d else out


# ---------------------------------------------------------------------------
# Dickman-type rho_theta
# ---------------------------------------------------------------------------


def _rho_on_12(theta: float, xs) -> np.ndarray:
    """Exact rho_theta on [1, 2].

    Integrating the differentiated delay equation from 1 gives
    rho(x) = 1 - theta * integral_1^x (t-1)^(theta-1) t^(-theta) dt, and the
    substitution u = (t-1)/t turns the integral into
    sum_{k>=0} z^(theta+k)/(theta+k) with z = (x-1)/x <= 1/2, which
    converges geometrically.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    z = (xs - 1.0) / xs
    acc = np.zeros_like(z)
    power = z**theta
    k = 0
    while True:
        acc += power / (theta + k)
        power = power * z
        k += 1
        if k > 400 or float(np.max(power, initial=0.0)) / (theta + k) < 1e-18:
            break
    return 1.0 - theta * acc


@dataclass(frozen=True)
class DickmanSolution:
    """rho_theta on a uniform grid of step h = 1/steps_per_unit covering
    [0, u_max]; integers are grid nodes, so the delay term never straddles
    a derivative kink.
    """

    theta: float
    h: float
    grid: np.ndarray
    values: np.ndarray

    def rho(self, u: float) -> float:
        """Evaluate at u >= 0: exact for u <= 2, cubic beyond (a node's own value at a node)."""
        if u < 0:
            raise ValueError("u must be nonnegative")
        if u <= 1.0:
            return 1.0
        if u <= 2.0:
            return float(_rho_on_12(self.theta, u)[0])
        if u > self.grid[-1]:
            raise ValueError(f"u={u} beyond solved range {self.grid[-1]}")
        return float(_cubic_eval(self.values, self.h, np.array(u)))

    def residuals(self) -> np.ndarray:
        """Integral-equation residual at every grid point > 1.

        The re-check quadrature is independent of the solver's stepping:
        the region y <= 2 enters through closed forms (rho is known there
        in series form) and the region y > 2 through composite Simpson
        split at the integer kink points.
        """
        return _residuals(self)


def _cubic_eval(values: np.ndarray, h: float, y: np.ndarray) -> np.ndarray:
    # 4-point Lagrange on the nearest nodes, at each y; O(h^4) for C^3 data
    m = len(values) - 1
    j0 = np.minimum(np.maximum((y / h).astype(np.int64) - 1, 0), m - 3)
    t = y / h - j0
    v0, v1, v2, v3 = (values[j0 + i] for i in range(4))
    return (
        v0 * (-(t - 1) * (t - 2) * (t - 3) / 6)
        + v1 * (t * (t - 2) * (t - 3) / 2)
        + v2 * (-t * (t - 1) * (t - 3) / 2)
        + v3 * (t * (t - 1) * (t - 2) / 6)
    )


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _jacobi_p(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The Jacobi polynomial P_n^(a,b)(x) by its three-term recurrence (DLMF 18.9.2)."""
    prev, p = np.ones_like(x), (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    if n == 0:
        return prev
    for k in range(2, n + 1):
        t = 2.0 * k + a + b
        prev, p = p, ((t - 1.0) * (t * (t - 2.0) * x + a * a - b * b) * p
                      - 2.0 * (k + a - 1.0) * (k + b - 1.0) * t * prev) / (2.0 * k * (k + a + b) * (t - 2.0))
    return p


def gauss_jacobi(n: int, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight (1+x)^theta on [-1, 1].

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix of P^(0,theta).  Each node then
    takes one Newton step on P_n, as scipy.special.roots_jacobi does, and
    the weights are 1/((1-x^2) P_n'(x)^2) at the nodes, scaled to the
    weight's mass 2^(theta+1)/(theta+1).
    """
    k = np.arange(n, dtype=float)
    t = 2.0 * k + theta
    diag = np.where(k == 0, theta / (2.0 + theta), theta * theta / (t * (t + 2.0)))
    k, t = k[1:], t[1:]
    off = 2.0 * k * (k + theta) / (t * np.sqrt((t + 1.0) * (t - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # P_n' = (n + theta + 1)/2 P_(n-1)^(1,theta+1)
    x = x - _jacobi_p(n, 0.0, theta, x) / (0.5 * (n + theta + 1.0) * _jacobi_p(n - 1, 1.0, theta + 1.0, x))
    w = 1.0 / ((1.0 - x * x) * _jacobi_p(n - 1, 1.0, theta + 1.0, x) ** 2)
    return x, w * (2.0 ** (theta + 1.0) / (theta + 1.0) / w.sum())


def dickman_rho(theta: float, u_max: float, h: float = 1.0 / 256) -> DickmanSolution:
    """Solve the delay equation for rho_theta on [0, u_max].

    On [1, 2] the series form of the integrated equation is exact.  For
    u > 2 the differentiated form rho'(x) = -theta (x-1)^(theta-1)
    rho(x-1) x^(-theta) is integrated one unit interval [k, k+1] at a
    time (van de Lune & Wattel, Math. Comp. 23, 1969): the delayed value
    there needs rho only on [k-1, k], already known, from the series
    (k = 2) or cubic interpolation on the grid (k >= 3).  Each panel gets
    a 20-node Gauss-Legendre rule, all panels of a unit in one pass, and
    a cumulative sum gives the grid values.  The last panel of a unit
    reads the first panel's end value through its stencil, so it follows
    the sum.  On the one panel [2, 2+h], rho(x-1) - 1 carries a factor
    (x-2)^theta: there the integrand is a(x) + (x-2)^theta b(x), with
    a(x) = -theta (x-1)^(theta-1) x^(-theta) and b = a (rho(x-1) - 1)/(x-2)^theta
    analytic, so a takes the Gauss-Legendre rule and b a 20-node
    Gauss-Jacobi rule for the weight (x-2)^theta.

    h must satisfy h <= 1/64 and 1/h must be an integer so the kinks of
    rho at integers land on grid nodes.
    """
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")
    if not 1 <= u_max < math.inf:
        raise ValueError(f"u_max must be >= 1 and finite, got {u_max}")
    if not 0 < h:
        raise ValueError(f"step {h} must be positive")
    if h > 1.0 / 64 + 1e-15:
        raise ValueError(f"step {h} too large; need h <= 1/64")
    m = round(1.0 / h)
    if abs(m * h - 1.0) > 1e-9:
        raise ValueError("1/h must be an integer so integers are grid nodes")
    h = 1.0 / m
    n = int(math.ceil(u_max * m - 1e-9))
    grid = np.arange(n + 1) / m
    values = np.ones(n + 1)
    two = min(2 * m, n)
    values[m : two + 1] = _rho_on_12(theta, grid[m : two + 1])

    def g(t: np.ndarray, k: int) -> np.ndarray:
        y = t - 1.0
        delayed = _rho_on_12(theta, y) if k == 2 else _cubic_eval(values, h, y)
        return -theta * y ** (theta - 1.0) * delayed * t ** (-theta)

    def panels(lo: int, hi: int, k: int) -> None:
        # values[lo+1 .. hi] from values[lo] and the panels between them
        if hi <= lo:
            return
        ts = (grid[lo:hi, None] + grid[lo + 1 : hi + 1, None]) / 2 + h / 2 * _GL_NODES
        inc = h / 2 * (g(ts, k) @ _GL_WEIGHTS)
        values[lo + 1 : hi + 1] = np.cumsum(np.concatenate(([values[lo]], inc)))[1:]

    if n > 2 * m:
        def a(t: np.ndarray) -> np.ndarray:
            return -theta * (t - 1.0) ** (theta - 1.0) * t ** (-theta)

        xs, ws = gauss_jacobi(20, theta)
        tj = 2.0 + h / 2 * (1.0 + xs)
        b = a(tj) * (_rho_on_12(theta, tj - 1.0) - 1.0) / (tj - 2.0) ** theta
        inc = h / 2 * (a(2.0 + h / 2 * (1.0 + _GL_NODES)) @ _GL_WEIGHTS) + (h / 2) ** (theta + 1.0) * (b @ ws)
        values[2 * m + 1] = values[2 * m] + inc
    for k in range(2, (n + m - 1) // m):
        end = min((k + 1) * m, n)
        mid = min(end, (k + 1) * m - 1)
        panels(max(k * m, 2 * m + 1), mid, k)
        panels(mid, end, k)
    return DickmanSolution(theta=theta, h=h, grid=grid, values=values)


def _f12_integral(theta: float, w: np.ndarray) -> np.ndarray:
    # integral_1^w theta y^(theta-1) rho(y) dy in closed form for w in [1,2]:
    # equals w^theta rho(w) - 1 + (w-1)^theta by parts plus the [1,2] series
    return (w**theta) * _rho_on_12(theta, w) - 1.0 + (w - 1.0) ** theta


def _residuals(sol: DickmanSolution) -> np.ndarray:
    # all grid points at once; each Simpson sum over [s, e] comes from
    # prefix sums of f = theta y^(theta-1) rho(y) over even and odd indices
    theta, h, grid, values = sol.theta, sol.h, sol.grid, sol.values
    m = round(1.0 / h)
    idx = np.arange(len(grid))
    f = np.zeros(len(grid))  # only y >= 2 is read; 0 below keeps theta < 1 finite
    f[2 * m :] = theta * grid[2 * m :] ** (theta - 1.0) * values[2 * m :]
    prefix = np.zeros((2, len(grid) + 1))  # prefix[q, i] = sum of f[k], k < i, k % 2 == q
    for q in (0, 1):
        prefix[q, 1:] = np.cumsum(np.where(idx % 2 == q, f, 0.0))

    def simpson(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # composite Simpson over [lo, hi]: a leading 3/8 block absorbs odd
        # panel counts, a single panel is a trapezoid, no panel gives 0
        out = np.zeros(len(lo))
        one = hi - lo == 1
        out[one] = h / 2 * (f[lo[one]] + f[hi[one]])
        lead = ((hi - lo) % 2 == 1) & ~one
        a = lo[lead]
        out[lead] = 3 * h / 8 * (f[a] + 3 * f[a + 1] + 3 * f[a + 2] + f[a + 3])
        s = np.where(lead, lo + 3, lo)
        even = ~one & (hi > s)
        s, e = s[even], hi[even]
        odd_sum = prefix[(s + 1) % 2, e] - prefix[(s + 1) % 2, s + 1]
        even_sum = prefix[s % 2, e - 1] - prefix[s % 2, s + 1]
        out[even] += h / 3 * (f[s] + f[e] + 4 * odd_sum + 2 * even_sum)
        return out

    j = idx[m + 1 :]
    x = grid[j]
    a = x - 1.0
    total = np.zeros(len(j))
    low = a < 1.0
    total[low] = 1.0 - a[low] ** theta + _f12_integral(theta, x[low])
    mid = ~low & (a < 2.0)
    total[mid] = _f12_integral(theta, np.minimum(2.0, x[mid])) - _f12_integral(theta, a[mid])
    # y > 2 by Simpson, split at the integer inside (x-1, x) if there is one
    over = j > 2 * m
    jo = j[over]
    lo = np.maximum(jo - m, 2 * m)
    cut = np.maximum(jo // m * m, lo)
    total[over] += simpson(lo, cut) + simpson(cut, jo)
    out = np.zeros(len(grid))
    out[m + 1 :] = np.abs(values[m + 1 :] - x ** (-theta) * total)
    return out


# ---------------------------------------------------------------------------
# Comparison metrics
# ---------------------------------------------------------------------------


def ks_distance(obj, cdf) -> float:
    """Sup distance between a distribution and a reference CDF.

    For an empirical sample (array-like): the standard two-sided statistic
    sup_i max(|F(x_(i)) - i/n|, |F(x_(i)) - (i-1)/n|).

    For an ExactPmf: the CDFs are compared at the atoms of the exact law,
    sup_v |F_exact(v) - F_ref(v)| (right-continuous evaluation); for
    lattice laws against a continuous reference this measures the CDF
    mismatch where the law actually lives rather than the lattice gaps.
    """
    if isinstance(obj, ExactPmf):
        ref = np.asarray(cdf(obj.values), dtype=float)
        return float(np.abs(obj.cdf() - ref).max())
    z = np.sort(np.asarray(obj, dtype=float))
    n = len(z)
    if n == 0:
        raise ValueError("empty sample")
    # the reference CDF 2^16 order statistics at a time: the same maxima as over all of z
    his, los = [], []
    for i in range(0, n, 1 << 16):
        ref = np.asarray(cdf(z[i : i + (1 << 16)]), dtype=float)
        j = np.arange(i, i + len(ref))
        his.append(np.abs(ref - (j + 1) / n).max())
        los.append(np.abs(ref - j / n).max())
    return float(max(np.max(his), np.max(los)))

