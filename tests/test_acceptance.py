"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The random-instance batteries are seeded and deterministic; the heavier
artifacts (sweeps, condition reports) are built once per session and
shared across criteria.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import case_a, case_b, example1, example2
from routegame.analysis import (
    construct_scaled_equilibrium,
    detect_critical_share,
    empirical_lipschitz,
    monotonicity_report,
    sweep_alpha,
)
from routegame.calculus import (
    LoadProfile,
    check_conditions,
    class_costs,
    operator_H,
)
from routegame.cli import gen_random_parallel
from routegame.equilibrium import (
    solve_equilibrium,
    vi_gap,
    wardrop_residual,
)
from routegame.netmodel import enumerate_paths
from routegame.oracle import brute_force_equilibrium, brute_force_optimum
from routegame.sysopt import solve_system_optimum

GRID_101 = np.linspace(0.0, 1.0, 101)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _share(net, alpha):
    return tuple(od.with_share(alpha) for od in net.od_pairs)


@pytest.fixture(scope="session")
def random_suite():
    """25 seeded parallel instances (3-6 links) with conditions and
    101-point sweeps, shared by criteria 5, 6 and 7."""
    t0 = time.perf_counter()
    instances = []
    for i in range(25):
        seed = 201 + i
        n_links = 3 + i % 4
        D = (1.0, 2.0, 4.0)[i % 3]
        net = gen_random_parallel(seed, n_links, D)
        inc = enumerate_paths(net)
        cond = check_conditions(net, D)
        sweep = sweep_alpha(net, inc, grid=GRID_101)
        instances.append({
            "seed": seed, "D": D, "net": net, "inc": inc,
            "cond": cond, "sweep": sweep,
        })
    elapsed = time.perf_counter() - t0
    return {"instances": instances, "elapsed": elapsed}


@pytest.fixture(scope="session")
def fixture_sweeps():
    """Deterministic sweeps of the four bundled fixtures (shared by
    criterion 7); example2 runs at the tight tolerance criterion 9 needs."""
    out = {}
    for name, net in (("case_a", case_a()), ("case_b", case_b()),
                      ("example1", example1())):
        inc = enumerate_paths(net)
        D = net.total_demand()
        cond = check_conditions(net, D)
        sweep = sweep_alpha(net, inc, grid=GRID_101)
        out[name] = {"net": net, "inc": inc, "cond": cond, "sweep": sweep,
                     "D": D}
    net = example2()
    inc = enumerate_paths(net)
    D = net.total_demand()
    cond = check_conditions(net, D)
    t0 = time.perf_counter()
    sweep = sweep_alpha(net, inc, grid=GRID_101, tol=1e-10)
    elapsed = time.perf_counter() - t0
    out["example2"] = {"net": net, "inc": inc, "cond": cond, "sweep": sweep,
                       "D": D, "elapsed": elapsed}
    return out


def test_criterion_1_case_a_poa():
    t0 = time.perf_counter()
    net = case_a()
    inc = enumerate_paths(net)
    _, T_min = solve_system_optimum(net, inc, net.od_pairs)

    # closed forms: stationarity of the two players' conditions
    # alpha = 0: F = (1, 0), T = 1; alpha = 0.5: fS = (1/2, 0),
    # fC = (3/8, 1/8), T = 29/32; alpha = 1: F = (3/4, 1/4), T = 7/8
    closed = {
        0.0: (np.array([1.0, 0.0, 0.0, 0.0]), 1.0),
        0.5: (np.array([0.5, 0.0, 0.375, 0.125]), 0.90625),
        1.0: (np.array([0.0, 0.0, 0.75, 0.25]), 0.875),
    }
    poa_expected = {0.0: 8.0 / 7.0, 0.5: 0.90625 / 0.875, 1.0: 1.0}
    poa_tol = {0.0: 1e-6, 0.5: 1e-5, 1.0: 1e-6}

    worst = 0.0
    for alpha, (f_closed, T_closed) in closed.items():
        res = solve_equilibrium(net, inc, _share(net, alpha))
        from routegame.calculus import total_delay
        poa = total_delay(net, res.f_star) / T_min
        assert abs(poa - poa_expected[alpha]) <= poa_tol[alpha], (
            f"PoA({alpha}) = {poa}")
        worst = max(worst, abs(poa - poa_expected[alpha]))
        assert np.max(np.abs(res.f_star.stacked() - f_closed)) < 1e-6
        # brute-force cross-check of the closed-form loads
        oracle_load, cert = brute_force_equilibrium(
            net, inc, _share(net, alpha), 801)
        step = 1.0 / 800
        assert np.max(np.abs(oracle_load.stacked() - f_closed)) <= 2 * step
        assert cert <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    _report(1, True,
            f"case A PoA at shares 0/0.5/1 within tolerance "
            f"(max dev {worst:.2e}), oracle agrees, {elapsed:.2f}s")


def test_criterion_2_case_b_critical_share():
    t0 = time.perf_counter()
    net = case_b()
    inc = enumerate_paths(net)
    sweep = sweep_alpha(net, inc, grid=GRID_101)
    sweep_elapsed = time.perf_counter() - t0
    assert sweep_elapsed < 5.0, f"sweep runtime {sweep_elapsed:.2f}s"

    report = detect_critical_share(net, inc, sweep)
    assert abs(report.alpha_tilde - 0.5) <= 1e-4, report.alpha_tilde

    flat = [r for r in sweep if r.alpha <= 0.5]
    dev = max(abs(r.poa - 24.0 / 23.0) for r in flat)
    assert dev <= 1e-6, f"flat deviation {dev:.2e}"

    poa = {round(r.alpha, 6): r.poa for r in sweep}
    assert abs(poa[0.75] - 2.90625 / 2.875) <= 1e-5
    assert abs(poa[1.0] - 1.0) <= 1e-6
    _report(2, True,
            f"case B critical share {report.alpha_tilde:.6f}, PoA flat at "
            f"24/23 (dev {dev:.2e}), sweep {sweep_elapsed:.2f}s")


def test_criterion_3_scaling_construction():
    net = case_b()
    inc = enumerate_paths(net)
    sweep = sweep_alpha(net, inc, grid=GRID_101)
    report = detect_critical_share(net, inc, sweep)
    alpha_tilde = report.alpha_tilde
    result_tilde = solve_equilibrium(net, inc, _share(net, alpha_tilde))

    worst_resid = 0.0
    worst_load = 0.0
    for rec in sweep:
        if rec.alpha > alpha_tilde:
            continue
        candidate = construct_scaled_equilibrium(
            result_tilde, alpha_tilde, rec.alpha)
        resid = wardrop_residual(
            net, inc, _share(net, rec.alpha), candidate)
        load_dev = float(np.max(np.abs(
            candidate.induced_load(inc.matrix).stacked()
            - rec.f_star.stacked())))
        worst_resid = max(worst_resid, resid)
        worst_load = max(worst_load, load_dev)
    assert worst_resid < 1e-7, f"construction residual {worst_resid:.2e}"
    assert worst_load < 1e-7, f"load mismatch {worst_load:.2e}"
    _report(3, True,
            f"transfer construction on [0, {alpha_tilde:.4f}]: residual "
            f"{worst_resid:.2e}, load match {worst_load:.2e}")


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    worst_load = 0.0
    worst_T = 0.0
    for i in range(10):
        seed = 101 + i
        D = (1.0, 2.0, 4.0)[i % 3]
        alpha = (0.25, 0.5, 0.75)[i % 3]
        net = gen_random_parallel(seed, 2, D)
        inc = enumerate_paths(net)
        ods = _share(net, alpha)

        res = solve_equilibrium(net, inc, ods)
        oracle_load, _ = brute_force_equilibrium(net, inc, ods, 2001)
        step = D / 2000
        load_dev = float(np.max(np.abs(
            res.f_star.stacked() - oracle_load.stacked())))
        assert load_dev <= 2 * step, f"seed {seed}: load dev {load_dev:.2e}"
        worst_load = max(worst_load, load_dev / step)

        _, T_solver = solve_system_optimum(net, inc, ods)
        _, T_oracle = brute_force_optimum(net, inc, D, 2001)
        assert abs(T_solver - T_oracle) <= 1e-4, f"seed {seed}"
        worst_T = max(worst_T, abs(T_solver - T_oracle))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _report(4, True,
            f"10 instances: equilibrium within {worst_load:.2f} grid steps, "
            f"optimum within {worst_T:.2e}, {elapsed:.1f}s")


def test_criterion_5_monotonicity_suite(random_suite):
    slack = 10.0 * 1e-8
    worst = 0.0
    for item in random_suite["instances"]:
        sweep = item["sweep"]
        assert all(r.converged for r in sweep), f"seed {item['seed']}"
        report = monotonicity_report(sweep, item["net"], slack=slack)
        assert report.all_ok(), (
            f"seed {item['seed']}: violations poa={report.poa_violation:.2e} "
            f"theta={report.theta_violation:.2e} mu={report.mu_violation:.2e} "
            f"fS={report.fS_violation:.2e} fC={report.fC_violation:.2e} "
            f"nesting={report.support_nesting_ok}")
        worst = max(worst, report.poa_violation, report.theta_violation,
                    report.mu_violation, report.fS_violation,
                    report.fC_violation)
    elapsed = random_suite["elapsed"]
    assert elapsed < 300.0, f"suite runtime {elapsed:.0f}s"
    _report(5, True,
            f"25 parallel instances, 101-point sweeps: all monotone within "
            f"slack {slack:.0e} (worst violation {worst:.2e}), "
            f"{elapsed:.0f}s")


def test_criterion_6_conditions_suite(random_suite):
    subjects = [
        (item["net"], item["D"], item["cond"])
        for item in random_suite["instances"]
    ]
    for net in (case_a(), case_b(), example1(), example2()):
        D = net.total_demand()
        subjects.append((net, D, check_conditions(net, D)))

    rng = np.random.default_rng(606)
    worst_margin = np.inf
    for net, D, cond in subjects:
        assert cond.convexity_ok and cond.strong_mono_ok, net.name
        L = net.n_links
        for _ in range(100):
            x = LoadProfile(fS=rng.uniform(0, D, L), fC=rng.uniform(0, D, L))
            y = LoadProfile(fS=rng.uniform(0, D, L), fC=rng.uniform(0, D, L))
            dx = x.stacked() - y.stacked()
            lhs = (operator_H(net, x) - operator_H(net, y)) @ dx
            rhs = cond.c * dx @ dx
            assert lhs >= rhs - 1e-12, net.name
            worst_margin = min(worst_margin, lhs - rhs)
    _report(6, True,
            f"{len(subjects)} instances certified; pairwise monotonicity "
            f"inequality holds on 100 pairs each "
            f"(tightest margin {worst_margin:.2e})")


def test_criterion_7_lipschitz_suite(random_suite, fixture_sweeps):
    checked = 0
    worst_frac = 0.0
    for item in random_suite["instances"]:
        L = item["net"].n_links
        ratio, bound, ok = empirical_lipschitz(
            item["sweep"], item["cond"], L, item["D"])
        assert ok, f"seed {item['seed']}: {ratio:.3f} > {bound:.3f}"
        worst_frac = max(worst_frac, ratio / bound)
        checked += 1
    for name, data in fixture_sweeps.items():
        ratio, bound, ok = empirical_lipschitz(
            data["sweep"], data["cond"], data["net"].n_links, data["D"])
        assert ok, f"{name}: {ratio:.3f} > {bound:.3f}"
        worst_frac = max(worst_frac, ratio / bound)
        checked += 1
    _report(7, True,
            f"{checked} sweeps: load slope within the certified bound "
            f"(worst fraction used {worst_frac:.3f})")


def test_criterion_8_gradient_checks():
    h = 1e-5
    worst = 0.0
    for net in (case_a(), case_b(), example1(), example2()):
        D = net.total_demand()
        L = net.n_links
        rng = np.random.default_rng(808)
        for _ in range(50):
            fS = rng.uniform(0.05 * D, 0.95 * D, L)
            fC = rng.uniform(0.05 * D, 0.95 * D, L)
            H = operator_H(net, LoadProfile(fS=fS, fC=fC))
            for l in range(L):
                e = np.zeros(L)
                e[l] = h
                us_hi, _ = class_costs(net, LoadProfile(fS=fS + e, fC=fC))
                us_lo, _ = class_costs(net, LoadProfile(fS=fS - e, fC=fC))
                fd_S = (us_hi - us_lo) / (2 * h)
                _, uc_hi = class_costs(net, LoadProfile(fS=fS, fC=fC + e))
                _, uc_lo = class_costs(net, LoadProfile(fS=fS, fC=fC - e))
                fd_C = (uc_hi - uc_lo) / (2 * h)
                rel_S = abs(fd_S - H[l]) / (1.0 + abs(H[l]))
                rel_C = abs(fd_C - H[L + l]) / (1.0 + abs(H[L + l]))
                assert rel_S <= 1e-6, f"{net.name} link {l}: {rel_S:.2e}"
                assert rel_C <= 1e-6, f"{net.name} link {l}: {rel_C:.2e}"
                worst = max(worst, rel_S, rel_C)
    _report(8, True,
            f"finite-difference gradients of both cost functionals match "
            f"the stacked operator (worst relative error {worst:.2e})")


def test_criterion_9_nonparallel_exploratory(fixture_sweeps):
    data = fixture_sweeps["example2"]
    net, inc, sweep = data["net"], data["inc"], data["sweep"]
    assert net.n_links == 7
    assert inc.n_paths == 4
    assert all(r.converged for r in sweep)

    od = net.od_pairs[0]
    worst_gap = 0.0
    for rec in sweep:
        gap = vi_gap(net, inc, (od.with_share(rec.alpha),), rec.z_star)
        worst_gap = max(worst_gap, gap)
    assert worst_gap < 1e-8, f"worst gap {worst_gap:.2e}"

    report = monotonicity_report(sweep, net, exploratory=True)
    assert report.exploratory
    poa_descending = report.poa_violation <= 1e-9
    elapsed = data["elapsed"]
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _report(9, True,
            f"7-link/4-path fixture: gap {worst_gap:.2e} at all 101 shares, "
            f"exploratory report complete (PoA observed "
            f"{'non-increasing' if poa_descending else 'non-monotone'}), "
            f"{elapsed:.1f}s")
