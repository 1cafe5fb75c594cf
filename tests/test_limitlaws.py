import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1, kolmogi, roots_jacobi

from multweight import cli
from multweight import limitlaws as ll
from multweight.sampling import ExactPmf


def test_normal_cdf_symmetry():
    assert ll.normal_cdf(0.0) == pytest.approx(0.5, rel=1e-14)


def _assert_close(ours, ref):
    # NaN where the reference is NaN; elsewhere within 1e-14 absolute and 1e-13 relative
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    gap = np.abs(ours - ref)[~np.isnan(ref)]
    ref = ref[~np.isnan(ref)]
    assert np.all(gap <= 1e-14), gap.max()
    assert np.all(gap <= 1e-13 * np.abs(ref)), (gap / np.abs(ref)).max()


def test_cdfs_match_scipy_stats():
    # scipy.stats as the oracle, clipped as it clips; the points include both
    # infinities, NaN, far normal tails and values outside each law's support
    from scipy import stats

    from multweight import harness

    rng = np.random.default_rng(2024)
    edges = [-np.inf, np.inf, np.nan, -30.0, 30.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 1.0, 1.0 + 1e-15, 2.0]
    t = np.concatenate([rng.normal(0.0, 3.0, 2 * 10**5), edges])
    u = np.concatenate([rng.uniform(-0.5, 1.5, 2 * 10**5), edges, np.logspace(-300, -1, 300)])
    _assert_close(ll.normal_cdf(t), stats.norm.cdf(t))
    for shape in (0.5, 1.3, 2.0, 10.0):
        for rate in (1.0, 3.0, 0.7):
            # rate 1 puts shape + 1 on y = a + 1, where the continued fraction takes over
            s = np.concatenate([t, [shape + 1.0]])
            _assert_close(ll.gamma_cdf(shape, rate, s), stats.gamma.cdf(s, a=shape, scale=1.0 / rate))
    for theta in (0.5, 1.0, 2.0):
        _assert_close(ll.beta_cdf(theta, u), stats.beta.cdf(u, 1.0, theta))
    for x in (-2.0, 0.0, 0.5, np.inf):
        _assert_close(ll.gamma_cdf(2.0, 1.0, x), stats.gamma.cdf(x, a=2.0))
        _assert_close(ll.beta_cdf(2.0, x), stats.beta.cdf(x, 1.0, 2.0))
    for mu in (1.0, 0.5):
        pmf = harness._poisson_pmf(np.arange(30), mu)
        assert pmf.tolist() == stats.poisson.pmf(np.arange(30), mu).tolist()
        assert pmf.tolist() == [stats.poisson.pmf(k, mu) for k in range(30)]


def test_incomplete_gamma_matches_scipy_on_both_sides_of_a_plus_1():
    from scipy.special import gammainc, gammaincc

    for a in (0.5, 1.3, 2.0, 3.7, 10.0):
        y = np.concatenate([np.linspace(0.0, 3 * a + 40.0, 4001),
                            [a + 1.0, np.nextafter(a + 1.0, 0.0), np.nextafter(a + 1.0, np.inf)]])
        p, q = ll.incomplete_gamma(a, y)
        _assert_close(p, gammainc(a, y))
        _assert_close(q, gammaincc(a, y))
    p, q = ll.incomplete_gamma(2.0, np.array([0.0, np.inf, np.nan, -1.0]))
    assert p.tolist()[:2] == [0.0, 1.0] and q.tolist()[:2] == [1.0, 0.0]
    assert np.isnan(p[2:]).all() and np.isnan(q[2:]).all()
    for a in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ll.incomplete_gamma(a, 1.0)


def test_incomplete_gamma_entries_do_not_depend_on_their_neighbours():
    # each entry stops at its own step, so alone or among others it is the same
    # number; at a = 300 the terms past an entry's stop still move it, so an
    # entry that ran on with its slowest neighbour would differ
    wide = np.concatenate([np.geomspace(1e-6, 200.0, 150), [0.0, np.inf, np.nan]])
    for a, y in ((0.5, wide), (1.3, wide), (10.0, wide), (300.0, np.linspace(150.0, 350.0, 201))):
        p, q = ll.incomplete_gamma(a, y)
        alone = [ll.incomplete_gamma(a, v) for v in y.tolist()]
        assert np.array_equal(p, [float(pa) for pa, _ in alone], equal_nan=True)
        assert np.array_equal(q, [float(qa) for _, qa in alone], equal_nan=True)


def test_gamma_cdf_exponential_case():
    for t in (0.1, 1.0, 3.0):
        assert ll.gamma_cdf(1.0, 1.0, t) == pytest.approx(1.0 - math.exp(-t), rel=1e-12)


def test_gamma_cdf_rate_convention():
    # integrate the density rate^shape x^(shape-1) e^(-rate x)/Gamma(shape)
    # directly; the CDF must follow the shape/rate (not shape/scale) reading
    shape, rate = 2.0, 2.0
    dens = lambda x: rate**shape * x ** (shape - 1) * math.exp(-rate * x) / math.gamma(shape)
    for t in (0.3, 1.0, 2.5):
        ref, _ = quad(dens, 0.0, t)
        assert ll.gamma_cdf(shape, rate, t) == pytest.approx(ref, rel=1e-10)
    mean, _ = quad(lambda x: x * dens(x), 0.0, 60.0)
    assert mean == pytest.approx(shape / rate, rel=1e-9)


def test_beta_11_is_uniform(rng):
    draws = ll.beta_sample(1.0, rng, size=10**5)
    ks = ll.ks_distance(draws, lambda t: np.clip(t, 0.0, 1.0))
    # below kolmogi(0.001)/sqrt(1e5) = 0.00616, the 99.9% quantile of the null KS law
    assert ks <= kolmogi(0.001) / math.sqrt(10**5)


def test_beta_parameters_validated(rng):
    with pytest.raises(ValueError):
        ll.beta_sample(0.0, rng)


def test_gem_mass_and_mean(rng):
    rem = 1.0 - ll.gem_matrix(1.0, 50, rng, 1000).sum(axis=1)
    assert np.all(rem >= -1e-12) and rem.max() < 1e-3  # E remainder = 2^-50
    draws = ll.gem_matrix(1.0, 1, rng, 200000)[:, 0]
    assert draws.mean() == pytest.approx(0.5, abs=0.005)  # Z_1 ~ Beta(1,1)


def test_gem_remainder_truncation_rate(rng):
    theta, k = 2.0, 40
    rem = 1.0 - ll.gem_matrix(theta, k, rng, 4000).sum(axis=1)
    assert rem.mean() == pytest.approx((theta / (theta + 1.0)) ** k, rel=0.2)


def pd_largest_part_mean(k, theta=1.0):
    # E V_k of PD(theta) = integral_0^inf (theta E1(y))^(k-1)/(k-1)! e^(-y - theta E1(y)) dy,
    # from the gamma-subordinator form of PD(theta) (Kingman 1975; Griffiths 1979);
    # at theta = 1 these are the Shepp-Lloyd constants (Trans. AMS 121, 1966)
    def f(y):
        e1 = theta * exp1(y)
        return e1 ** (k - 1) / math.factorial(k - 1) * math.exp(-y - e1)

    return quad(f, 0.0, 1.0, epsabs=1e-14, limit=200)[0] + quad(f, 1.0, np.inf, epsabs=1e-14, limit=200)[0]


def test_pd_largest_part_means_match_shepp_lloyd_constants():
    exact = [pd_largest_part_mean(k) for k in (1, 2, 3)]
    assert exact == pytest.approx([0.6243299885, 0.2095808743, 0.0883160989], abs=1e-10)
    draws = 2 * 10**5
    got = ll.pd_largest_part_means(1.0, np.random.default_rng(99), draws)
    # standard deviations of the three parts from a separate pilot of 20000 rows
    pilot = np.sort(ll.gem_matrix(1.0, 200, np.random.default_rng(98), 20000), axis=1)[:, :-4:-1]
    se = pilot.std(axis=0) / math.sqrt(draws)
    gap = np.abs(got - exact)
    assert np.all(gap <= 5 * se), (gap, se)
    assert np.all(gap <= 0.003), gap


def top_three_sd(theta, seed):
    """Standard deviations of the three largest of 200 GEM(theta) parts, from
    a pilot of 20000 rows."""
    return np.sort(ll.gem_matrix(theta, 200, np.random.default_rng(seed), 20000), axis=1)[:, :-4:-1].std(axis=0)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_pd_largest_part_means_match_the_quadrature(theta):
    # the 200-part truncation moves E V_k by at most E(remainder) = (theta/(1+theta))^200 < 1e-35
    exact = [pd_largest_part_mean(k, theta) for k in (1, 2, 3)]
    draws = 2 * 10**5
    got = ll.pd_largest_part_means(theta, np.random.default_rng(int(10 * theta)), draws)
    gap = np.abs(got - exact)
    assert np.all(gap <= 5 * top_three_sd(theta, 98) / math.sqrt(draws)), gap


def test_pd_quadrature_reproduces_the_rho_theta_values():
    # E V_1 = 1 - integral_1^inf rho_theta(u) u^-2 du, evaluated earlier at these theta
    assert [pd_largest_part_mean(1, t) for t in (0.5, 1.0, 2.0)] == pytest.approx([0.7578230, 0.6243300, 0.4756394], abs=1e-6)


@pytest.mark.parametrize("theta", [1.0, 50.0, 200.0])
def test_pd_largest_part_means_equal_sorted_gem_rows_in_law(theta):
    # the early stop leaves the law alone: the top three of the first 200 parts,
    # where the truncation is felt (theta = 50: E remainder = 0.019) and where not
    draws = 40000
    got = ll.pd_largest_part_means(theta, np.random.default_rng(3), draws)
    want = np.sort(ll.gem_matrix(theta, 200, np.random.default_rng(4), draws), axis=1)[:, :-4:-1].mean(axis=0)
    gap = np.abs(got - want)
    assert np.all(gap <= 5 * top_three_sd(theta, 98) * math.sqrt(2.0 / draws)), gap


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 200.0])
def test_pd_largest_parts_of_one_row_are_its_first_200_parts_top_three(theta):
    # one row draws its chunks from the start of the uniform stream, as a
    # 200-fraction GEM row from the same seed does, so the stopped row must
    # give that row's three largest parts (up to the rounding of the stick)
    for seed in range(300):
        got = ll.pd_largest_part_means(theta, np.random.default_rng(seed), 1)
        row = ll.gem_matrix(theta, 200, np.random.default_rng(seed), 1)[0]
        assert got == pytest.approx(np.sort(row)[:-4:-1], rel=1e-12, abs=0.0), seed


def counted_fractions(monkeypatch, theta, draws):
    """The (rows, columns) of every beta_sample call of pd_largest_part_means."""
    shapes = []
    beta = ll.beta_sample

    def counting(theta, rng, size=None):
        shapes.append(size)
        return beta(theta, rng, size)

    monkeypatch.setattr(ll, "beta_sample", counting)
    ll.pd_largest_part_means(theta, np.random.default_rng(5), draws)
    return shapes


def test_pd_rows_stop_early_and_never_pass_200_fractions(monkeypatch):
    # one block: at theta = 200 no row settles before the cap, so every call
    # draws for all rows, and the widths add up to exactly 200
    shapes = counted_fractions(monkeypatch, 200.0, 5000)
    assert [c for _, c in shapes] == [8, 16, 32, 64, 80]
    assert all(rows == 5000 for rows, _ in shapes)
    # at theta = 1 most rows settle within their first 8 fractions
    draws = 50000
    shapes = counted_fractions(monkeypatch, 1.0, draws)
    assert sum(rows * c for rows, c in shapes) / draws < 16


def test_size_biased_permutation_singleton(rng):
    out = ll.size_biased_permutation_matrix(np.array([[1.0]]), rng)
    assert out.tolist() == [[1.0]]


def test_size_biased_permutation_equal_halves(rng):
    out = ll.size_biased_permutation_matrix(np.full((400, 2), 0.5), rng)
    assert np.all(out == 0.5)


def test_size_biased_permutation_two_thirds(rng):
    parts = np.array([2.0 / 3.0, 1.0 / 3.0])
    firsts = ll.size_biased_permutation_matrix(np.tile(parts, (30000, 1)), rng)[:, 0]
    assert np.mean(firsts == parts[0]) == pytest.approx(2.0 / 3.0, abs=0.01)


def _stable_argsort_permutation(parts, e):
    """The reference: parts by a stable argsort of their keys e / part."""
    with np.errstate(divide="ignore", invalid="ignore"):
        keys = np.asarray(e) / parts
    return np.take_along_axis(parts, np.argsort(keys, axis=1, kind="stable"), axis=1)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_size_biased_permutation_first_k_columns_equal_the_full_sort(theta):
    # c14's parts, with rows of fewer than k nonzero parts (their zero parts'
    # inf keys tie across the k-th), of exactly k, and of none
    parts = np.sort(ll.gem_matrix(theta, 200, np.random.default_rng(int(10 * theta)), 3000), axis=1)[:, ::-1]
    parts[:40, 3:] = 0.0
    parts[40:80, 6:] = 0.0
    parts[80:90] = 0.0
    full = _stable_argsort_permutation(parts, np.random.default_rng(7).exponential(size=parts.shape))
    assert np.array_equal(ll.size_biased_permutation_matrix(parts, np.random.default_rng(7)), full)
    for k in (1, 3, 6, 199):
        assert np.array_equal(ll.size_biased_permutation_matrix(parts, np.random.default_rng(7), k=k), full[:, :k]), k


class _GivenExponentials:
    """An rng whose exponential draws are given."""

    def __init__(self, e):
        self.e = np.asarray(e, dtype=float)

    def exponential(self, size):
        assert size == self.e.shape
        return self.e.copy()


def test_size_biased_permutation_breaks_ties_by_column():
    # keys 2, 3, 1, 1 and 2, 2, 1, 0 (argpartition finds the later of the
    # tied columns at k = 1 and k = 3) and 4, inf, inf, 1: the first k
    # columns must take tied keys by column, as the stable full sort does
    parts = np.array([[0.5, 0.125, 0.25, 0.125], [0.5, 0.25, 0.125, 0.125], [0.25, 0.0, 0.0, 0.5]])
    e = [[1.0, 0.375, 0.25, 0.125], [1.0, 0.5, 0.125, 0.0], [1.0, 1.0, 1.0, 0.5]]
    full = _stable_argsort_permutation(parts, e)
    assert full.tolist() == [[0.25, 0.125, 0.5, 0.125], [0.125, 0.125, 0.5, 0.25], [0.5, 0.25, 0.0, 0.0]]
    for k in (1, 2, 3, 4):
        assert np.array_equal(ll.size_biased_permutation_matrix(parts, _GivenExponentials(e), k=k), full[:, :k]), k


def test_residual_ratios_examples():
    out = ll.residual_ratios(np.array([0.5, 0.25, 0.25]))
    np.testing.assert_allclose(out, [0.5, 0.5, 1.0], rtol=1e-14)
    assert ll.residual_ratios(np.array([1.0])).tolist() == [1.0]
    with pytest.raises(ValueError):
        ll.residual_ratios(np.array([1.0, 0.5]))


@given(st.lists(st.floats(min_value=0.01, max_value=0.7), min_size=1, max_size=8))
def test_stick_break_round_trip(ys):
    # residual ratios invert stick breaking; away from remainder underflow
    # the round trip is exact to rounding
    ys = np.array(ys)
    zs = np.concatenate([[1.0], np.cumprod(1.0 - ys[:-1])]) * ys
    back = ll.residual_ratios(zs)
    np.testing.assert_allclose(back, ys, rtol=1e-9, atol=1e-12)


def test_residual_ratios_inverts_size_biased_pd(rng):
    # smoke version of the round-trip property (full scale in acceptance)
    theta = 1.0
    Z = ll.gem_matrix(theta, 100, rng, 20000)
    parts = np.sort(Z, axis=1)[:, ::-1]
    ratios = ll.residual_ratios(ll.size_biased_permutation_matrix(parts, rng)[:, :3])
    ks = ll.ks_distance(ratios[:, 0], lambda t: ll.beta_cdf(theta, t))
    assert ks <= 0.02


# --- Dickman ---------------------------------------------------------------


def test_dickman_initial_conditions():
    for theta in (0.5, 1.0, 2.0):
        sol = ll.dickman_rho(theta, 3.0, 1.0 / 64)
        assert sol.rho(0.5) == 1.0
        assert sol.rho(1.0) == 1.0


def test_dickman_rho1_at_2():
    sol = ll.dickman_rho(1.0, 3.0, 1.0 / 64)
    assert sol.rho(2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-10)


def test_dickman_rho1_matches_known_value_at_3():
    sol = ll.dickman_rho(1.0, 3.0, 1.0 / 256)
    assert sol.rho(3.0) == pytest.approx(0.04860838829, abs=1e-8)


def test_dickman_rho2_continuous_at_1():
    sol = ll.dickman_rho(2.0, 2.0, 1.0 / 128)
    assert sol.rho(1.0) == 1.0
    assert sol.rho(1.0 + 1e-6) == pytest.approx(1.0, abs=1e-5)


def test_rho_at_integer_u_is_the_grid_value():
    # the report's rho at integer u reads rho(), which must return the node itself
    for m in (64, 256, 1000):
        for theta in (0.5, 1.0, 2.0):
            sol = ll.dickman_rho(theta, 4.0, 1.0 / m)
            assert [sol.rho(float(u)) for u in range(5)] == [1.0] + [sol.values[u * m] for u in range(1, 5)]


def test_dickman_monotone_and_positive():
    for theta in (0.5, 1.0, 2.0):
        sol = ll.dickman_rho(theta, 4.0, 1.0 / 128)
        tail = sol.values[sol.grid >= 1.0]
        assert np.all(np.diff(tail) <= 1e-15)
        assert np.all(sol.values > 0)


def test_dickman_residuals_small():
    for theta in (0.5, 1.0, 2.0):
        sol = ll.dickman_rho(theta, 3.0, 1.0 / 256)
        assert sol.residuals().max() <= 1e-8


def test_dickman_against_adaptive_quadrature():
    # independent re-check of grid values: the defining integral evaluated
    # with scipy.quad directly on the solution's interpolant
    sol = ll.dickman_rho(0.5, 4.0, 1.0 / 256)
    for u in (2.5, 3.0, 3.5):
        val, _ = quad(
            lambda y: 0.5 * y ** (-0.5) * sol.rho(y), u - 1.0, u, epsabs=1e-12, limit=200
        )
        assert sol.rho(u) == pytest.approx(val / u**0.5, abs=1e-8)


def test_dickman_parameter_validation():
    with pytest.raises(ValueError):
        ll.dickman_rho(0.0, 3.0)
    with pytest.raises(ValueError):
        ll.dickman_rho(1.0, 3.0, h=1.0 / 32)  # step too large
    with pytest.raises(ValueError):
        ll.dickman_rho(1.0, 3.0, h=0.0101)  # 1/h not an integer
    with pytest.raises(ValueError):
        ll.dickman_rho(1.0, 0.5)


def test_dickman_csv_export(tmp_path):
    # the CLI writes the solution's grid and values, one row per grid point
    sol = ll.dickman_rho(1.0, 2.0, 1.0 / 64)
    path = tmp_path / "rho.csv"
    assert cli.main(["dickman", "--theta", "1", "--umax", "2", "--step", "0.015625", "--out", str(path),
                     "--json", str(tmp_path / "rho.json")]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "u,rho"
    assert lines[1:] == [f"{u!r},{r!r}" for u, r in zip(sol.grid.tolist(), sol.values.tolist())]


# Oracles: the sequential solver and the per-point residual loop that the
# vectorized dickman_rho and residuals() replaced.  The oracle solver
# integrates every panel beyond 2 with adaptive quadrature, one after the
# other, reading the delayed value through its own scalar interpolant.


def _cubic_scalar(grid, values, y):
    m = len(grid) - 1
    h = grid[1] - grid[0]
    j = int(y / h)
    j0 = min(max(j - 1, 0), m - 3)
    t = y / h - j0
    v = values[j0 : j0 + 4]
    return float(
        v[0] * (-(t - 1) * (t - 2) * (t - 3) / 6)
        + v[1] * (t * (t - 2) * (t - 3) / 2)
        + v[2] * (-t * (t - 1) * (t - 3) / 2)
        + v[3] * (t * (t - 1) * (t - 2) / 6)
    )


def dickman_rho_sequential(theta, u_max, h):
    m = round(1.0 / h)
    n = int(math.ceil(u_max * m - 1e-9))
    grid = np.arange(n + 1) / m
    values = np.ones(n + 1)
    two = min(2 * m, n)
    values[m : two + 1] = ll._rho_on_12(theta, grid[m : two + 1])

    def g(t):
        y = t - 1.0
        if y <= 1.0:
            rho = 1.0
        elif y <= 2.0:
            rho = float(ll._rho_on_12(theta, y)[0])
        else:
            rho = _cubic_scalar(grid, values, y)
        return -theta * (t - 1.0) ** (theta - 1.0) * rho * t ** (-theta)

    for i in range(two, n):
        inc, _ = quad(g, grid[i], grid[i + 1], epsabs=1e-13, epsrel=1e-12, limit=200)
        values[i + 1] = values[i] + inc
    return values


def quad_panel_past_2(theta, h):
    # the adaptive rule the solver used on [2, 2+h] before the Gauss split
    def g(t):
        rho = float(ll._rho_on_12(theta, t - 1.0)[0])
        return -theta * (t - 1.0) ** (theta - 1.0) * rho * t ** (-theta)

    return quad(g, 2.0, 2.0 + h, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def gauss_jacobi_50_digits(n, theta):
    # oracle: the exact n-point rule for (1+x)^theta, the roots of P_n^(0,theta)
    # by Newton at 50 digits and w = 2^(theta+1)/((1-x^2) P_n'(x)^2)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        b = mp.mpf(theta)
        dp = lambda x: (n + b + 1) / 2 * mp.jacobi(n - 1, 1, b + 1, x)  # noqa: E731
        xs, ws = [], []
        for x0 in roots_jacobi(n, 0.0, theta)[0]:
            x = mp.mpf(x0)
            for _ in range(3):
                x -= mp.jacobi(n, 0, b, x) / dp(x)
            xs.append(float(x))
            ws.append(float(2 ** (b + 1) / ((1 - x * x) * dp(x) ** 2)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0, 5.0])
def test_gauss_jacobi_matches_roots_jacobi_and_the_exact_rule(theta):
    x, w = ll.gauss_jacobi(20, theta)
    xs, ws = roots_jacobi(20, 0.0, theta)
    exact_x, exact_w = gauss_jacobi_50_digits(20, theta)
    assert np.max(np.abs(x - xs)) <= 1e-14
    assert np.max(np.abs(x - exact_x)) <= 1e-14
    assert np.max(np.abs(w - exact_w)) <= 1e-14
    # roots_jacobi's own weights are up to 3e-14 off the exact ones at
    # theta = 5, so they are matched to 1e-14 beyond their own error
    assert np.all(np.abs(w - ws) <= np.abs(ws - exact_w) + 1e-14)
    # and the rule integrates (1+x)^j, j < 40, exactly
    j = np.arange(40)
    moments = ((1.0 + x)[:, None] ** j * w[:, None]).sum(axis=0)
    assert np.max(np.abs(moments / (2.0 ** (theta + j + 1) / (theta + j + 1)) - 1.0)) <= 1e-14


@pytest.mark.parametrize("theta", [0.3, 0.5, 1.0, 2.0, 3.7])
def test_panel_past_2_matches_adaptive_quadrature(theta):
    for m in (64, 256, 1000):
        sol = ll.dickman_rho(theta, 2.0 + 1.0 / m, 1.0 / m)  # the grid ends at 2 + h
        inc = sol.values[2 * m + 1] - sol.values[2 * m]
        assert abs(inc - quad_panel_past_2(theta, 1.0 / m)) <= 1e-15, m


def _composite_simpson(fs, h):
    n = len(fs) - 1
    if n == 0:
        return 0.0
    if n == 1:
        return h / 2 * (fs[0] + fs[1])
    total = 0.0
    i = 0
    if n % 2 == 1:
        total += 3 * h / 8 * (fs[0] + 3 * fs[1] + 3 * fs[2] + fs[3])
        i = 3
    while i + 2 <= n:
        total += h / 3 * (fs[i] + 4 * fs[i + 1] + fs[i + 2])
        i += 2
    return total


def residuals_loop(sol):
    theta, h, grid, values = sol.theta, sol.h, sol.grid, sol.values
    m = round(1.0 / h)

    def f12(w):
        return (w**theta) * float(ll._rho_on_12(theta, w)[0]) - 1.0 + (w - 1.0) ** theta

    def simpson_piece(a_idx, b_idx):
        ys = grid[a_idx : b_idx + 1]
        return _composite_simpson(theta * ys ** (theta - 1.0) * values[a_idx : b_idx + 1], h)

    out = np.zeros(len(grid))
    for j in range(m + 1, len(grid)):
        x = grid[j]
        a = x - 1.0
        total = 0.0
        if a < 1.0:
            total += 1.0 - a**theta + f12(x)
        elif a < 2.0:
            total += f12(min(2.0, x)) - f12(a)
            if x > 2.0:
                total += simpson_piece(2 * m, j)
        else:
            cut = [j - m]
            k0 = int(math.floor(a)) + 1
            while k0 * m < j:
                if k0 * m > cut[-1]:
                    cut.append(k0 * m)
                k0 += 1
            cut.append(j)
            for lo, hi in zip(cut[:-1], cut[1:]):
                total += simpson_piece(lo, hi)
        out[j] = abs(values[j] - x ** (-theta) * total)
    return out


@pytest.fixture(scope="module")
def dickman_u4():
    return {theta: ll.dickman_rho(theta, 4.0, 1.0 / 256) for theta in (0.5, 1.0, 2.0)}


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_dickman_matches_sequential_oracle(dickman_u4, theta):
    sol = dickman_u4[theta]
    oracle = dickman_rho_sequential(theta, 4.0, 1.0 / 256)
    assert len(sol.values) == len(oracle)
    np.testing.assert_allclose(sol.values, oracle, rtol=1e-12, atol=0)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_dickman_residuals_match_loop_oracle(dickman_u4, theta):
    sol = dickman_u4[theta]
    res = sol.residuals()
    np.testing.assert_allclose(res, residuals_loop(sol), rtol=0, atol=1e-15)
    assert res.max() <= 1e-8


@pytest.mark.parametrize("h", [1.0 / 64, 1.0 / 256, 1.0 / 1000])
def test_dickman_u_max_just_past_integer(h):
    # u_max = k + 1e-9 adds one grid node past the integer k, so the last
    # unit holds a single panel; the solution is causal, so every shorter
    # solve is a prefix of the longer one
    m = round(1.0 / h)
    for theta in (0.5, 1.0, 2.0):
        full = ll.dickman_rho(theta, 6.0, h)
        assert len(full.grid) == 6 * m + 1
        for k in (2, 3):
            sol = ll.dickman_rho(theta, k + 1e-9, h)
            assert len(sol.grid) == k * m + 2
            np.testing.assert_array_equal(sol.values, full.values[: k * m + 2])
        res = full.residuals()
        assert np.all(np.isfinite(res))
        if h <= 1.0 / 256:
            assert res.max() <= 1e-8
        for short in (1.0, 1.5):  # no grid point past 2, or none past 1
            sol = ll.dickman_rho(theta, short, h)
            np.testing.assert_allclose(sol.residuals(), residuals_loop(sol), rtol=0, atol=1e-15)


# --- ks_distance -----------------------------------------------------------


def test_ks_point_mass_vs_normal():
    pmf = ExactPmf(np.array([0.0]), np.array([1.0]))
    assert ll.ks_distance(pmf, ll.normal_cdf) == pytest.approx(0.5, rel=1e-12)


def test_ks_normal_draws(rng):
    draws = rng.standard_normal(10**5)
    assert ll.ks_distance(draws, ll.normal_cdf) <= 0.01


def test_ks_sample_on_reference_grid():
    # a sample placed exactly at the reference quantile midpoints has
    # KS = 1/(2n): the O(1/n) regime.  One point moved up by 0.3/n makes it
    # 0.8/n, the one-array statistic bit for bit, wherever the point sits
    # among the 2^16-point chunks the reference CDF is evaluated in
    cdf = lambda t: np.clip(t, 0.0, 1.0)
    c = 1 << 16
    for n in (1000, c - 1, c, c + 1, 3 * c + 5):
        z = (np.arange(1, n + 1) - 0.5) / n
        assert ll.ks_distance(z, cdf) == pytest.approx(0.5 / n, rel=1e-9)
        for k in sorted(k for k in {0, c - 1, c, n - 1} if k < n):
            moved = z.copy()
            moved[k] += 0.3 / n
            ref = cdf(moved)
            one_array = max(np.abs(ref - np.arange(1, n + 1) / n).max(), np.abs(ref - np.arange(0, n) / n).max())
            assert ll.ks_distance(moved, cdf) == one_array, (n, k)
            assert one_array == pytest.approx(0.8 / n, rel=1e-9)


def test_ks_empty_sample():
    with pytest.raises(ValueError):
        ll.ks_distance(np.array([]), ll.normal_cdf)
