"""Acceptance suite: one test per criterion, stated tolerances, one
printed pass/fail line each.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete.

Quantitative notes pinned here rather than deferred:
- Criterion 3 instances are noisy codewords, whose U^3 norm sits well
  above the estimator's documented norm floor (0.45): an additive
  guarantee on the eighth root is unattainable by any sampling budget
  near zero, where the root's derivative diverges.
- Criterion 6/10 noisy instances use epsilon = 0.25 (20% noise for the
  averages); criterion 10 plants the coherent codim-2 family, the
  recoverable benchmark class (see functions.coherent_quadratic_average).
"""

import time

import numpy as np
import pytest

from f2quad.gf2 import SubspaceF2, dot_many, sign_many
from f2quad.functions import (TableOracle, TruthTable,
                              coherent_quadratic_average, correlation_exact,
                              estimate_correlation, estimate_correlation as _ec,
                              make_noisy_codeword, random_boolean_table,
                              random_quadratic_phase)
from f2quad.fourier import exact_u2, exact_u3, fwht, goldreich_levin, wht
from f2quad.u3 import estimate_u3
from f2quad.bruteforce import (SetF2, best_quadratic_correlation,
                               convolution_power, exhaustive_coefficients,
                               exhaustive_t_set, sumset, u3_direct)
from f2quad.bsg import PhiRecord, PhiSampler, bsg_test, choose_bsg_params
from f2quad.model import bogolyubov, find_quadratic_average
from f2quad.recovery import find_quadratic
from f2quad.decompose import decompose, step_inequality_slack
from f2quad.functions import planted_sign_mixture

from test_decompose import dictionary_finder


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_exact_transform_suite():
    t0 = time.perf_counter()
    n = 10
    m = 1 << n
    xs = np.arange(m, dtype=np.uint64)
    # all 2^10 linear phases at once: unit spectra
    tables = np.empty((m, m))
    for a in range(m):
        tables[a] = sign_many(dot_many(xs, a))
    specs = fwht(tables) / m
    unit = True
    for a in range(m):
        e = specs[a].copy()
        e[a] -= 1.0
        unit &= bool(np.max(np.abs(e)) < 1e-9)
    rng = np.random.default_rng(1)
    parseval = all(
        abs(wht(random_boolean_table(n, rng)).parseval_sum() - 1.0) < 1e-9
        for _ in range(100))
    elapsed = time.perf_counter() - t0
    report(1, unit and parseval and elapsed < 5.0,
           f"unit spectra on 2^{n} linear phases, Parseval on 100 tables, "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_2_u_norm_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    phases_unit = all(
        abs(exact_u3(random_quadratic_phase(8, rng).truth_table()) - 1.0) < 1e-9
        for _ in range(5))
    nested = True
    for _ in range(50):
        f = random_boolean_table(8, rng)
        nested &= exact_u2(f) <= exact_u3(f) + 1e-9
    agree = True
    for _ in range(5):
        f = random_boolean_table(8, rng)
        agree &= abs(exact_u3(f) - u3_direct(f)) < 1e-9
    elapsed = time.perf_counter() - t0
    report(2, phases_unit and nested and agree and elapsed < 60.0,
           f"U3(phase)=1, U2<=U3 on 50 tables, inductive==direct at n=8, "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_3_estimator_concentration():
    n = 12
    hits_u3 = 0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        q = random_quadratic_phase(n, rng)
        eps_noise = 0.3 if trial % 2 else 0.45
        nz = make_noisy_codeword(q, eps_noise, rng)
        est = estimate_u3(nz.as_oracle(), 0.05, 0.05, rng)
        hits_u3 += abs(est - exact_u3(nz)) <= 0.05
    hits_corr = 0
    for trial in range(20):
        rng = np.random.default_rng(400 + trial)
        q = random_quadratic_phase(n, rng)
        nz = make_noisy_codeword(q, 0.25, rng)  # planted correlation 1/2
        est = estimate_correlation(nz.as_oracle(), q.as_oracle(), 0.05, 0.05,
                                   rng)
        hits_corr += abs(est - correlation_exact(nz, q.truth_table())) <= 0.05
    report(3, hits_u3 >= 19 and hits_corr >= 19,
           f"estimate_u3 within 0.05 in {hits_u3}/20 seeds, "
           f"estimate_correlation in {hits_corr}/20 (need >= 19)")


def test_criterion_4_goldreich_levin_vs_exact_spectra():
    n, gamma = 12, 0.2
    complete = sound = True
    worst_err = 0.0
    for trial in range(50):
        rng = np.random.default_rng(500 + trial)
        alphas = [int(a) for a in rng.choice(1 << n, size=4, replace=False)]
        wts = list(rng.uniform(0.2, 0.9, size=4))
        tt = planted_sign_mixture(n, list(zip(alphas, wts)), rng)
        spec = wht(tt)
        found = dict(goldreich_levin(tt.as_oracle(), gamma, 0.05, rng))
        for a, _ in spec.above(gamma):
            complete &= a in found
        for a, c in found.items():
            err = abs(c - spec.coefficient(a))
            worst_err = max(worst_err, err)
            sound &= err <= gamma / 2.0
    report(4, complete and sound,
           f"50 planted spectra at n=12, gamma=0.2: all large characters "
           f"found, worst coefficient error {worst_err:.3f} (<= 0.1)")


def test_criterion_5_self_correction_noiseless():
    results = {}
    for n in (8, 10, 12):
        good = 0
        for trial in range(20):
            rng = np.random.default_rng(700 + 37 * n + trial)
            q = random_quadratic_phase(n, rng)
            res = find_quadratic(q.truth_table().as_oracle(), 0.5, 0.05, rng)
            if res is not None and res.phase == q:
                # canonical-form equality == pointwise equality, corr 1
                good += 1
        results[n] = good
    report(5, all(v == 20 for v in results.values()),
           f"planted phase returned exactly, 20/20 seeds at each size: "
           f"{results}")


def test_criterion_6_self_correction_noisy():
    t0 = time.perf_counter()
    good10 = 0
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        q = random_quadratic_phase(10, rng)
        nz = make_noisy_codeword(q, 0.25, rng)
        res = find_quadratic(nz.as_oracle(), 0.25, 0.05, rng, tau_accept=0.12)
        if res is not None and \
                correlation_exact(res.phase.truth_table(), nz) >= 0.1:
            good10 += 1
    good6 = 0
    for trial in range(20):
        rng = np.random.default_rng(950 + trial)
        q = random_quadratic_phase(6, rng)
        nz = make_noisy_codeword(q, 0.25, rng)
        _, opt = best_quadratic_correlation(nz)
        res = find_quadratic(nz.as_oracle(), 0.25, 0.05, rng, tau_accept=0.12)
        if res is not None and \
                correlation_exact(res.phase.truth_table(), nz) >= 0.2 * opt:
            good6 += 1
    elapsed = time.perf_counter() - t0
    report(6, good10 >= 16 and good6 >= 16 and elapsed < 600.0,
           f"n=10: corr >= 0.1 in {good10}/20; n=6: >= 0.2 x optimum in "
           f"{good6}/20 (need >= 16); {elapsed:.0f}s (< 600s)")


def test_criterion_7_bsg_sandwich():
    n = 10
    rng = np.random.default_rng(7)
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    H = SubspaceF2([int(rng.integers(1, 1 << n))], n)
    xs = np.arange(1 << n, dtype=np.uint64)
    phi = np.asarray(B.mul_vec_many(xs))
    outside = ~H.contains_many(xs)
    phi[outside] = rng.integers(0, 1 << n, size=int(outside.sum()),
                                dtype=np.uint64)
    tt = q.truth_table()
    sam = PhiSampler(tt.as_oracle(), 0.15, 0.1, rng, t_bucket=1536,
                     t_leaf=1024, repeats=1, live_cap=20)
    for x in range(1 << n):
        sam.memo[x] = PhiRecord(int(phi[x]), 1.0, True)
    rho = 0.2
    params = choose_bsg_params(None, rng, rho=rho, r=24, s=24, t_edge=2048)
    coeff = exhaustive_coefficients(tt, phi)
    x_u = 0
    while not H.contains(x_u):
        x_u = int(rng.integers(0, 1 << n))
    u = (x_u, int(phi[x_u]))
    g, mu = params.gamma, params.mu
    a1 = exhaustive_t_set(tt, phi, x_u, g + mu, g - mu, g + mu,
                          1.1 * rho ** 3, 0.9 * rho ** 2, coeff)
    a2 = exhaustive_t_set(tt, phi, x_u, g, g, g, rho ** 3, rho ** 2, coeff)
    ok = 0
    for _ in range(200):
        y = int(rng.integers(0, 1 << n))
        out = bsg_test(sam, u, (y, int(phi[y])), params, rng)
        ok += bool(a2.flags[y]) if out == 1 else not bool(a1.flags[y])
    report(7, ok >= 190,
           f"sandwich honored on {ok}/200 probes (need >= 190) against "
           f"exhaustive membership at n=10")


def test_criterion_8_bogolyubov():
    n = 12
    rho = 1.0 / 8.0
    good = 0
    for trial in range(20):
        rng = np.random.default_rng(1100 + trial)
        S = SubspaceF2([int(rng.integers(1, 1 << n)) for _ in range(3)], n)
        while S.codim != 3:
            S = SubspaceF2([int(rng.integers(1, 1 << n)) for _ in range(3)], n)
        h = SetF2.from_subspace(S).indicator_table()
        V = bogolyubov(h.as_oracle(), rho, 0.05, rng, t_bucket=1 << 15,
                       t_leaf=1 << 15, live_cap=48, noise_floor_z=3.0)
        conv = convolution_power(h, 4)
        members = V.enumerate_elements().astype(np.int64)
        four_a = sumset(SetF2.from_subspace(S), 4)
        ok = bool(np.all(conv.values[members] > rho ** 4 / 2.0)) and \
            all(four_a.flags[int(x)] for x in members)
        good += ok
    report(8, good == 20,
           f"exact 4-fold convolution > rho^4/2 on V and V inside 4A, "
           f"{good}/20 seeds")


def test_criterion_9_and_11_decomposition_contract():
    n, bound, eps, eta = 10, 2.0, 0.3, 0.5
    rng = np.random.default_rng(9)
    q1 = random_quadratic_phase(n, rng)
    q2 = random_quadratic_phase(n, rng)
    gv = 0.5 * q1.truth_table().values + 0.5 * q2.truth_table().values
    g = TableOracle(gv, n, bound=1.0)
    dec = decompose(g, eps, bound, 0.05, dictionary_finder([q1, q2], 0.3),
                    rng, eta=eta)
    xs = np.arange(1 << n, dtype=np.uint64)
    recon = dec.reconstruction_many(xs)
    raw = dec.residual_oracle().raw_many(xs)
    f_vals = np.clip(raw, -bound, bound)
    e_vals = raw - f_vals
    point = float(np.max(np.abs(recon - gv)))
    e_l1 = float(np.mean(np.abs(e_vals)))
    res_u3 = exact_u3(TruthTable(f_vals, n))
    ok9 = point <= 1e-9 and dec.k <= 1.0 / eta ** 2 and \
        e_l1 <= 1.0 / (2 * bound) and res_u3 <= eps
    report(9, ok9,
           f"reconstruction {point:.1e} (<=1e-9), k={dec.k} (<=4), "
           f"||e||_1={e_l1:.3f} (<=0.25), residual U3={res_u3:.3f} (<={eps})")

    # criterion 11: the per-step aggregate inequality, exactly, every step
    h = gv.copy()
    slack_ok = True
    for coeff, obj in dec.terms:
        f_t = np.clip(h, -bound, bound)
        h_next = h - coeff * obj.eval_many(xs)
        f_next = np.clip(h_next, -bound, bound)
        slack = step_inequality_slack(f_t, f_next, h, h_next,
                                      obj.eval_many(xs), coeff)
        slack_ok &= float(slack.min()) >= -1e-12
        h = h_next
    f_k = np.clip(h, -bound, bound)
    delta_k = float(np.mean(np.abs(f_k * (h - f_k))))
    agg = sum(c * c for c, _ in dec.terms) + float(np.mean(f_k ** 2)) \
        + 2 * delta_k
    report(11, slack_ok and agg <= 1.0 + 1e-9,
           f"pointwise step inequality holds each step; aggregate "
           f"k eta^2 + ||f_k||_2^2 + 2||Delta_k||_1 = {agg:.4f} (<= 1)")


def test_criterion_10_quadratic_average_recovery():
    n = 10
    good = 0
    for trial in range(20):
        rng = np.random.default_rng(1300 + trial)
        Qp = coherent_quadratic_average(n, 2, rng)
        tt = Qp.truth_table()
        flips = rng.random(1 << n) < 0.2
        tt.values[flips] *= -1.0
        res = find_quadratic_average(tt.as_oracle(), 0.25, 0.05, rng,
                                     tau_accept=0.12, complexity_cap=4)
        if res is not None and res.complexity <= 4 and \
                correlation_exact(res.average.truth_table(), tt) >= 0.15:
            good += 1
    report(10, good >= 14,
           f"planted codim-2 average with 20% noise: exact <f,Q> >= 0.15 "
           f"and complexity <= 4 in {good}/20 seeds (need >= 14)")
