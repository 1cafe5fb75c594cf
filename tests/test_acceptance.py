"""Acceptance gate: one test per criterion, run at the stated (desk) scale.

Each test executes the corresponding harness case, prints its pass/fail
line plus per-check details (visible with -s or on failure), and asserts
the case verdict.  Run the whole gate with:

    pytest tests/test_acceptance.py -v

Finite-x references: c06 and c11 test limit theorems whose error at the
stated x is of order 1/log x, larger than their tolerances.  They compare
the exact finite-x values with the limit plus that known term, and check
separately that the gap to the bare limit shrinks as x grows:
  * c06: the theta=1 smoothness probability at x=1e7 (0.33622) is 0.0294
    from rho_1(2) and 0.0031 from de Bruijn's rho_1(2) + (1-gamma)/log x;
    tolerance 0.02.
  * c11: the theta_omega(2) nu_2 law at x=1e7 is 0.0177 per atom from its
    limit and 0.0026 from the first-order law, the limit reweighted by
    (1 - k log 2/log x)^(theta-1); tolerance 0.01.  powerfree(2) has
    theta=1, so the same check compares it with the limit itself.
"""


from multweight import experiments, harness

_CTX = None


def _ctx():
    global _CTX
    if _CTX is None:
        _CTX = experiments.Context()
    return _CTX


def _run(case_id):
    res = harness.run_case(case_id, scale="desk", ctx=_ctx())
    print()
    print(res.line())
    for name, ok, detail in res.checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    assert res.passed, "; ".join(f"{n}: {d}" for n, ok, d in res.checks if not ok)


def test_c01_exact_sum_oracle():
    _run("c01")


def test_c02_euler_constants():
    _run("c02")


def test_c03_mean_value_ratio_trend():
    _run("c03")


def test_c04_prime_factor_count_clt():
    _run("c04")


def test_c05_pd_largest_part():
    _run("c05")


def test_c06_smoothness_vs_dickman():
    _run("c06")


def test_c07_dickman_solver():
    _run("c07")


def test_c08_saddle_point():
    _run("c08")


def test_c09_poly_partition_sum_ratio():
    _run("c09")


def test_c10_poly_mean_omega_and_gamma_law():
    _run("c10")


def test_c11_small_prime_limits():
    _run("c11")


def test_c12_partition_function_and_sampler():
    _run("c12")


def test_c13_conjugation_invariance():
    _run("c13")


def test_c14_pd_size_biased_round_trip():
    _run("c14")


def test_c15_permutation_side_trends():
    _run("c15")
