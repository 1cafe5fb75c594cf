import math

import numpy as np
import pytest

from multweight import arith, experiments, harness, limitlaws, sampling, weights
from multweight.weights import builtin_weight


def test_nu_p_first_order_is_the_limit_at_theta_one():
    # theta = 1 makes the factor (1 - k log p/log x)^(theta-1) exactly 1;
    # x = 1e30 exceeds 2^64, so no atom of the truncated limit law is cut
    for w, x in (
        (builtin_weight("powerfree", k=2), 10**6),
        (builtin_weight("power", z=0.0), 10**30),
        (builtin_weight("theta_omega", theta=1.0), 10**30),
    ):
        first = harness._nu_p_first_order(w, 2, x)
        limit = sampling.nu_p_limit_pmf(w, 2)
        np.testing.assert_array_equal(first.values, limit.values)
        np.testing.assert_array_equal(first.probs, limit.probs)


def test_nu_p_first_order_tracks_exact_theta_omega_law(p1_1e6):
    # exact gap to the bare limit at 1e6 is 0.0204; to the first-order law 0.0035
    x = 10**6
    w = builtin_weight("theta_omega", theta=2.0)
    table = weights.build_weight_table(w, p1_1e6)
    exact = sampling.exact_pmf_from_values(table, arith.nu_p_table(x, 2))
    first = harness._nu_p_first_order(w, 2, x)
    assert first.values.max() == 19  # 2^19 < 1e6 < 2^20
    assert max(experiments.atom_gaps(exact, first)) < 0.005


def test_smooth_two_term_tracks_exact_probability(p1_1e6):
    # exact 0.344299 at 1e6: 0.0374 from rho_1(2), 0.0068 from the two-term value
    x = 10**6
    table = weights.build_weight_table(builtin_weight("power", z=0.0), p1_1e6)
    p = sampling.exact_pmf_from_values(table, (p1_1e6 <= math.sqrt(x)).astype(np.int8)).prob_of(1.0)
    rho = limitlaws.dickman_rho(1.0, 2.0, h=1.0 / 256)
    two_term = rho.rho(2.0) + (1.0 - np.euler_gamma) * rho.rho(1.0) / math.log(x)
    assert harness._smooth_two_term(x) == pytest.approx(two_term, abs=1e-9)
    assert abs(p - harness._smooth_two_term(x)) < 0.01


def test_junit_and_line_name_the_reference(tmp_path):
    res = harness.CaseResult("c06", True, [("check", True, "detail")], 0.1)
    assert "de Bruijn" in res.line()
    path = tmp_path / "r.xml"
    harness.write_junit([res], path)
    assert 'name="oracle" value="rho_theta; theta=1 with de Bruijn 1/log x term"' in path.read_text()
