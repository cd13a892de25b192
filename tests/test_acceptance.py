"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single pass line once its assertions hold, so a verbose
run yields one line per criterion. Statistical criteria use fixed seeds and
are therefore fully deterministic.
"""

import json
import threading
import time
from unittest import mock

import numpy as np
import pytest

from lpconformal import (
    LPParams,
    MethodSpec,
    PerturbationSpec,
    PointMass,
    ScoreMatrix,
    ScoreSample,
    adjusted_beta,
    cdf,
    compare,
    coverage_lower_bound,
    estimate_lp_params,
    evaluate,
    lp_distance,
    perturb_sample,
    propagate_params,
    quantile,
    worst_case_coverage,
    worst_case_quantile,
)
from lpconformal import lp_metric
from lpconformal.cli import main
from lpconformal.core import InfeasibleLevelError

from oracles import (
    least_squares_score,
    pushforward_check,
    regression_draws,
    residual_adversary,
    transport_matched_units,
    wc_coverage_family,
    wc_quantile_family,
)
from test_baselines import chi2_g_grid_oracle
from test_lp_metric import lp_rho_linprog
from test_shiftlab import random_max_affine


def _report(number, name):
    print(f"[acceptance] criterion {number:2d} ({name}): PASS")


def test_criterion_01_lp_distance_oracle_equivalence():
    """Sweep solver vs brute-force linear optimization and vs a max-flow oracle."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(500):
        n, m = rng.integers(1, 7, size=2)
        x = rng.uniform(-2, 2, n)
        y = rng.uniform(-2, 2, m)
        eps = float(rng.uniform(0, 2.5))
        got = lp_distance(ScoreSample(x), ScoreSample(y), eps).rho
        assert got == pytest.approx(lp_rho_linprog(x, y, eps), abs=1e-12)
    for i in range(500):
        rng = np.random.default_rng(7000 + i)
        n = int(rng.integers(1, 51))
        x = rng.normal(size=n)
        y = rng.normal(loc=rng.uniform(-1.5, 1.5), size=n)
        eps = float(rng.uniform(0, 2))
        got = lp_distance(ScoreSample(x), ScoreSample(y), eps).matched_units
        assert got == transport_matched_units(x, y, eps)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "lp distance oracle equivalence")


def test_criterion_02_worst_case_quantile_family_tightness():
    """Family members stay in the ball and approach the worst-case quantile."""
    beta, rho, eps = 0.8, 0.1, 0.1
    params = LPParams(eps, rho)
    ks = (10, 100)  # ceil(1/rho) and 10 * ceil(1/rho)
    for seed in range(20):
        base = ScoreSample(np.random.default_rng(seed).normal(size=200))
        wc = worst_case_quantile(base, beta, params).threshold
        for k in ks:
            member = wc_quantile_family(base, beta, params, k)
            assert lp_distance(base, member, eps).rho <= rho + 1e-12
            got = quantile(member, beta)
            assert got <= wc + 1e-12
            granularity = quantile(base, beta + rho) - quantile(base, beta + rho - 1.0 / k)
            assert wc - got <= granularity + 1e-12
    _report(2, "worst-case quantile family tightness")


def test_criterion_03_worst_case_coverage_family_tightness():
    """Mirror of criterion 2 for the coverage family, gap <= 1/k + 1/n."""
    rho, eps = 0.1, 0.1
    params = LPParams(eps, rho)
    for seed in range(20):
        n = 500 if seed % 2 == 0 else 200
        base = ScoreSample(np.random.default_rng(300 + seed).normal(size=n))
        q = quantile(base, 0.9) + eps
        target = worst_case_coverage(base, q, params)
        for k in (10, 100):
            member = wc_coverage_family(base, q, params, k)
            assert lp_distance(base, member, eps).rho <= rho + 1e-12
            got = cdf(member, q)
            assert got >= target - 1e-12
            assert got - target <= 1.0 / k + 1.0 / n + 1e-12
    _report(3, "worst-case coverage family tightness")


def test_criterion_04_robust_coverage_bound_under_adversarial_shift():
    """Robust threshold keeps the finite-sample bound against ball adversaries."""
    t0 = time.monotonic()
    n, alpha, rho, eps = 1000, 0.1, 0.05, 0.1
    n_splits, k_test = 200, 2000
    params = LPParams(eps, rho)
    master = ScoreSample(np.random.default_rng(777).normal(size=4000))

    q_typical = worst_case_quantile(master, 1 - alpha, params).threshold
    adversaries = {
        "coverage-family": wc_coverage_family(master, q_typical, params, 50),
        "quantile-family": wc_quantile_family(master, 1 - alpha, params, 50),
    }
    for member in adversaries.values():
        assert lp_distance(master, member, eps).rho <= rho + 1e-12

    bound = coverage_lower_bound(n, alpha, rho)
    tolerance = 3 * np.sqrt(alpha * (1 - alpha) / (n_splits * k_test))
    for name, adversary in adversaries.items():
        coverages = []
        for j in range(n_splits):
            rng = np.random.default_rng([777, j])
            calib = ScoreSample(rng.choice(master.scores, size=n, replace=True))
            threshold = worst_case_quantile(calib, 1 - alpha, params).threshold
            draws = rng.choice(adversary.scores, size=k_test, replace=True)
            coverages.append(float((draws <= threshold).mean()))
        mean_cov = float(np.mean(coverages))
        assert mean_cov >= bound - tolerance, (name, mean_cov, bound)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"
    _report(4, "finite-sample bound under adversarial shift")


def test_criterion_05_special_case_threshold_consistency():
    """Special-case thresholds equal the adjusted robust threshold exactly."""
    rng = np.random.default_rng(505)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(30, 3000))
        alpha = float(rng.uniform(0.02, 0.4))
        rho = float(rng.uniform(0.0, alpha))
        try:
            beta = adjusted_beta(n, alpha, rho)
        except InfeasibleLevelError:
            continue
        if rho > beta:
            continue
        sample = ScoreSample(rng.normal(size=n))
        eps = float(rng.uniform(0, 1))

        # Each spec also carries a non-zero value of the parameter its name fixes.
        tv = MethodSpec("tv", epsilon=eps, rho=rho).threshold(sample, alpha)
        composed_tv = worst_case_quantile(sample, 1.0 - beta, LPParams(0.0, rho))
        assert tv.threshold == composed_tv.threshold

        beta0 = adjusted_beta(n, alpha, 0.0)
        wf = MethodSpec("winf", epsilon=eps, rho=rho).threshold(sample, alpha)
        composed_wf = worst_case_quantile(sample, 1.0 - beta0, LPParams(eps, 0.0))
        assert wf.threshold == composed_wf.threshold
        assert wf.threshold == MethodSpec("winf", rho=rho).threshold(sample, alpha).threshold + eps
        checked += 1
    _report(5, "special-case threshold consistency")


def test_criterion_06_chi2_coverage_map_validation():
    """Closed-form coverage map matches the 1e-6 grid search; inverse round-trips."""
    from lpconformal import chi2_g, chi2_g_inv

    betas = np.linspace(0.02, 0.98, 50)
    rhos = np.linspace(0.0, 1.5, 50)
    worst = 0.0
    for beta in betas:
        for rho in rhos:
            oracle = chi2_g_grid_oracle(float(beta), float(rho))
            worst = max(worst, abs(chi2_g(float(beta), float(rho)) - oracle))
    assert worst <= 2e-6, f"max closed-form deviation {worst}"

    for tau in np.arange(0.1, 0.95, 0.1):
        for rho in (0.01, 0.1, 0.5, 1.0):
            beta = chi2_g_inv(float(tau), rho)
            assert chi2_g(beta, rho) <= tau + 1e-9
            if beta < 1.0:
                assert chi2_g(min(beta + 2e-6, 1.0), rho) >= tau - 2e-6
    _report(6, "chi-square coverage map validation")


def test_criterion_07_end_to_end_shift_trend():
    """Standard split undercovers on shifted data; the robust method does not."""
    rng = np.random.default_rng(2024)
    rows, labels = 5000, 10
    true = rng.integers(0, labels, size=rows)
    scores = 2.5 + np.abs(rng.normal(size=(rows, labels)))
    scores[np.arange(rows), true] = 0.5 * np.abs(rng.normal(size=rows))
    matrix = ScoreMatrix(scores, true)

    shift = PerturbationSpec(epsilon=0.1, rho=0.05, global_law=PointMass(50.0), seed=7)
    sc_report, lp_report = compare(
        matrix,
        [MethodSpec("sc"), MethodSpec("lp", epsilon=0.1, rho=0.05)],
        alpha=0.1, n_splits=30, n_calib=1000, k_test=2000, base_seed=99,
        perturbation=shift,
    )
    lp_se = lp_report.coverage_std / np.sqrt(lp_report.n_splits)
    assert sc_report.coverage_mean < 0.9
    assert lp_report.coverage_mean >= 0.9 - 2 * lp_se
    assert lp_report.set_size_mean < labels
    _report(7, "end-to-end shift trend")


def test_criterion_08_parameter_estimation_recovery():
    """Estimated (epsilon, rho) certify held-out coverage on perturbed data."""
    eps0, rho0 = 0.2, 0.1
    relocation = PointMass(1.5)  # global mass stays inside the score range
    grid = [float(e) for e in np.geomspace(0.02, 0.8, 20)]
    coverages = []
    for rep in range(50):
        rng = np.random.default_rng(10_000 + rep)
        calib_a = ScoreSample(rng.normal(size=1000))
        calib_b = ScoreSample(rng.normal(size=1000))
        test_base = ScoreSample(rng.normal(size=1000))
        test = perturb_sample(
            test_base,
            PerturbationSpec(epsilon=eps0, rho=rho0, global_law=relocation,
                             seed=20_000 + rep),
        )
        result = estimate_lp_params(calib_a, calib_b, test, grid, alpha=0.1)
        rhos = [p.rho for p in result.grid_trace]
        assert all(a >= b for a, b in zip(rhos, rhos[1:])), "rho not nonincreasing"
        held_base = ScoreSample(rng.normal(size=2000))
        held_out = perturb_sample(
            held_base,
            PerturbationSpec(epsilon=eps0, rho=rho0, global_law=relocation,
                             seed=30_000 + rep),
        )
        coverages.append(float((held_out.scores <= result.q).mean()))
    cov = np.asarray(coverages)
    se = cov.std(ddof=1) / np.sqrt(cov.size)
    assert cov.mean() >= 0.9 - 2 * se, (cov.mean(), se)
    _report(8, "parameter estimation recovery")


def test_criterion_09_pushforward_inclusion():
    """Lipschitz score maps never increase the transport discrepancy."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        dim = int(rng.integers(1, 4))
        cloud_p = rng.normal(size=(n, dim))
        cloud_q = rng.normal(loc=rng.uniform(-0.5, 0.5), size=(m, dim))
        score_map = random_max_affine(rng, dim)
        eps = float(rng.uniform(0.05, 1.5))
        assert pushforward_check(
            cloud_p, cloud_q,
            ScoreSample(score_map(cloud_p)), ScoreSample(score_map(cloud_q)),
            eps,
        )
    _report(9, "pushforward inclusion")


def test_criterion_10_determinism(tmp_path):
    """Byte-identical JSON across repeated runs with the same configuration.

    Evaluation is sequential and keyed by (seed, split index). Estimation's
    transport kernel may hand its upper-end searches to one helper thread,
    but every exact comparison and every kernel block stays on the calling
    thread, in order, so results cannot depend on scheduling or on the CPUs
    the process may use. Two fresh runs must serialize identically, and so
    must an ``estimate`` run with the helper and one on a single CPU.
    """
    rng = np.random.default_rng(42)
    rows, labels = 800, 6
    true = rng.integers(0, labels, size=rows)
    scores = 2.0 + np.abs(rng.normal(size=(rows, labels)))
    scores[np.arange(rows), true] = np.abs(rng.normal(size=rows))
    matrix = ScoreMatrix(scores, true)
    shift = PerturbationSpec(epsilon=0.1, rho=0.05, global_law=PointMass(30.0), seed=5)

    reports = [
        evaluate(
            matrix, MethodSpec("lp", epsilon=0.1, rho=0.03), 0.1,
            n_splits=10, n_calib=400, k_test=300, base_seed=17,
            perturbation=shift,
        ).to_json()
        for _ in range(2)
    ]
    assert reports[0] == reports[1]

    def estimate_payload():
        gen = np.random.default_rng(4242)
        calib_a = ScoreSample(gen.normal(size=500))
        calib_b = ScoreSample(gen.normal(size=500))
        test = ScoreSample(gen.normal(loc=0.2, size=500))
        res = estimate_lp_params(calib_a, calib_b, test, [0.05, 0.1, 0.3, 0.6], 0.1)
        return json.dumps(
            {
                "epsilon": res.epsilon,
                "rho": res.rho,
                "beta": res.beta,
                "q": res.q,
                "trace": [
                    (p.epsilon, p.rho, p.beta, p.q, p.feasible, p.reason)
                    for p in res.grid_trace
                ],
            },
            sort_keys=True,
        )

    assert estimate_payload() == estimate_payload()

    # 20 000 scores against 20 000: the kernel runs one grid point per block.
    gen = np.random.default_rng(4343)
    paths = {flag: tmp_path / f"{flag}.csv" for flag in ("calib-a", "calib-b", "test")}
    for path, size, loc in zip(paths.values(), (20_000, 500, 20_000), (0.0, 0.0, 0.2)):
        np.savetxt(path, gen.normal(loc=loc, size=size), fmt="%.17g")
    files = [arg for flag, path in paths.items() for arg in (f"--{flag}", str(path))]
    outputs = []
    for cpus in (2, 1):
        out = tmp_path / f"estimate_{cpus}.json"
        with mock.patch.object(lp_metric, "_usable_cpus", return_value=cpus), \
                mock.patch.object(threading.Thread, "start", autospec=True,
                                  side_effect=threading.Thread.start) as starts:
            assert main(["estimate", *files, "--out", str(out)]) == 0
        assert starts.call_count == (cpus == 2)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report(10, "determinism")


def test_criterion_11_input_shift_through_a_fitted_score():
    """An input-space LP ball pushed through a Lipschitz score keeps lp's coverage.

    The paper's reduction end to end: a least-squares residual score is
    ``L``-Lipschitz in ``(x, y)``, so ``propagate_params(L, ball)`` bounds the
    score shift of any input-space adversary in ``ball``. This adversary attains
    that bound, so ``lp`` covers at the target and no higher, while ``sc`` does not.
    """
    alpha, n_train, n_calib, k_test, seeds = 0.1, 200, 1000, 5000, 40
    beta = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    tightness = []
    for eps, rho in ((0.1, 0.0), (0.1, 0.05), (0.3, 0.05)):
        coverages = {"lp": [], "sc": []}
        for seed in range(seeds):
            rng = np.random.default_rng([1100, seed])
            b, score, lipschitz = least_squares_score(*regression_draws(rng, beta, n_train))
            calib = ScoreSample(score(*regression_draws(rng, beta, n_calib)))
            x, y = regression_draws(rng, beta, k_test)
            x_moved, y_moved, moved_far = residual_adversary(rng, x, y, b, eps, rho)
            near = ~moved_far
            step = np.maximum(np.linalg.norm(x_moved - x, axis=1), np.abs(y_moved - y))
            assert np.all(step[near] <= eps + 1e-12)
            test = score(x_moved, y_moved)
            np.testing.assert_allclose(test[near] - score(x, y)[near], lipschitz * eps,
                                       rtol=1e-9, atol=1e-9)
            ball = propagate_params(lipschitz, LPParams(eps, rho))
            methods = {"lp": MethodSpec("lp", epsilon=ball.epsilon, rho=ball.rho),
                       "sc": MethodSpec("sc")}
            for name, spec in methods.items():
                q = spec.threshold(calib, alpha).threshold
                coverages[name].append(float(np.mean(test <= q)))
        mean = float(np.mean(coverages["lp"]))
        se = float(np.std(coverages["lp"], ddof=1)) / np.sqrt(seeds)
        assert mean >= 1 - alpha - 2 * se, (eps, rho, mean, se)
        assert np.mean(coverages["sc"]) < 1 - alpha, (eps, rho, np.mean(coverages["sc"]))
        tightness.append(f"{mean - (1 - alpha):+.4f} at ({eps}, {rho})")
    _report(11, "input-space shift through a fitted score; lp tightness "
            + ", ".join(tightness))
