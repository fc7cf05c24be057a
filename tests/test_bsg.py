"""Choice sampler, edge test, sandwich test, and parameter profiles."""

import math

import numpy as np
import pytest

from f2quad.gf2 import SubspaceF2, dot, parity_many
from f2quad.functions import (TableOracle, make_noisy_codeword, rand_points,
                              random_boolean_table, random_quadratic_phase)
from f2quad.fourier import derivative_table, wht
from f2quad.bsg import (BsgParams, PhiRecord, PhiSampler, bsg_test,
                        choose_bsg_params, edge_test,
                        estimate_derivative_coefficient)
from f2quad.bruteforce import (exhaustive_adjacency, exhaustive_coefficients,
                               exhaustive_t_set)

PRACTICAL_GL = dict(t_bucket=1536, t_leaf=1024, repeats=1, live_cap=20)


def planted_sampler(f_tt, phi):
    """Sampler whose choice table is fully materialized in the memo."""
    sam = PhiSampler(f_tt.as_oracle(), 0.15, 0.1, np.random.default_rng(0),
                     **PRACTICAL_GL)
    for x in range(1 << f_tt.n):
        sam.memo[x] = PhiRecord(int(phi[x]), 1.0, True)
    return sam


def test_params_structure_practical():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p = choose_bsg_params(None, rng, rho=0.2)
        assert abs(p.gamma1 - (p.gamma + p.mu / 2)) < 1e-12
        assert abs(p.gamma3 - p.gamma1) < 1e-12
        assert abs(p.gamma2 - (p.gamma - p.mu / 2)) < 1e-12
        lo, hi = p.interval
        assert lo - 1e-12 <= p.gamma - p.mu and p.gamma + p.mu <= hi + 1e-12


def test_params_paper_formula_audit():
    rng = np.random.default_rng(1)
    eps = 0.9
    p = choose_bsg_params(eps, rng, profile="paper")
    rho = eps ** 16 / 4.0
    assert abs(p.rho - rho) < 1e-15
    assert abs(p.interval[0] - eps ** 16 / 180.0) < 1e-18
    assert abs(p.interval[1] - eps ** 16 / 18.0) < 1e-18
    assert abs(p.rho1 - 21.0 * rho ** 3 / 20.0) < 1e-18
    assert abs(p.rho2 - 19.0 * rho ** 2 / 20.0) < 1e-18
    # sample counts sized for estimate error rho^3/100
    from f2quad.functions import hoeffding_samples
    assert p.r == hoeffding_samples(rho ** 3 / 100.0, 0.05)
    # sub-interval width rho^3/20
    assert abs(2 * p.mu - rho ** 3 / 20.0) / (rho ** 3 / 20.0) < 0.01


def test_phi_on_exact_phase():
    rng = np.random.default_rng(2)
    n = 10
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    sam = PhiSampler(q.as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    hits = 0
    for _ in range(60):
        x = int(rng.integers(0, 1 << n))
        hits += sam.sample(x) == B.mul_vec(x)
    assert hits >= 56


def test_phi_memo_contract():
    rng = np.random.default_rng(3)
    q = random_quadratic_phase(8, rng)
    orc = q.as_oracle()
    sam = PhiSampler(orc, 0.15, 0.1, rng, **PRACTICAL_GL)
    first = sam.sample(17)
    calls = sam.gl_calls
    queries = orc.query_count
    assert sam.sample(17) == first
    assert sam.gl_calls == calls and orc.query_count == queries


def test_phi_on_noisy_phase_vs_exact_argmax():
    # drawn characters follow the exact spectral maxima of the derivatives;
    # the hit fraction is governed by the squared-coefficient draws (the
    # top coefficient is 4 eps^2, so the rate sits near its square)
    rng = np.random.default_rng(4)
    n = 10
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    nz = make_noisy_codeword(q, 0.3, rng)
    sam = PhiSampler(nz.as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    hits = listed = argmax_hits = 0
    for x in range(200):
        rec = sam.record(x)
        hits += rec.alpha == B.mul_vec(x)
        if rec.from_list:
            listed += 1
            spec = wht(derivative_table(nz, x))
            argmax_hits += rec.alpha == int(np.argmax(spec.coefficients ** 2))
    assert hits / 200 >= 0.06
    assert listed > 0 and argmax_hits / listed >= 0.7


def test_phi_linearity_probability_on_phase():
    rng = np.random.default_rng(5)
    q = random_quadratic_phase(9, rng)
    sam = PhiSampler(q.as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    good = 0
    for _ in range(50):
        x = int(rng.integers(0, 1 << 9))
        y = int(rng.integers(0, 1 << 9))
        good += sam.sample(x) ^ sam.sample(y) == sam.sample(x ^ y)
    assert good >= 45


def test_edge_test_exact_phase_and_shortcircuit():
    rng = np.random.default_rng(6)
    n = 8
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    xs = np.arange(1 << n, dtype=np.uint64)
    phi = np.asarray(B.mul_vec_many(xs))
    sam = planted_sampler(q.truth_table(), phi)
    u = (3, int(phi[3]))
    v = (12, int(phi[12]))
    assert edge_test(sam, u, v, 0.5, 512, rng) == 1
    # broken additivity short-circuits to 0 regardless of estimates
    bad = phi.copy()
    bad[12] ^= 1
    sam2 = planted_sampler(q.truth_table(), bad)
    assert edge_test(sam2, u, (12, int(bad[12])), 0.5, 512, rng) == 0


def test_edge_test_agreement_with_exact_edges():
    # output 1 => edge at gamma - gamma'; output 0 => no edge at gamma + gamma'
    rng = np.random.default_rng(7)
    n = 10
    q = random_quadratic_phase(n, rng)
    nz = make_noisy_codeword(q, 0.3, rng)
    sam = PhiSampler(nz.as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    phi = sam.materialize()
    coeff = exhaustive_coefficients(nz, phi)
    gamma, t_edge = 0.12, 4096
    gamma_p = math.sqrt(2.0 * math.log(2.0 / 0.01) / t_edge)
    lo = exhaustive_adjacency(nz, phi, gamma - gamma_p, coeff)
    hi = exhaustive_adjacency(nz, phi, gamma + gamma_p, coeff)
    agree = 0
    for _ in range(100):
        a = int(rng.integers(0, 1 << n))
        b = int(rng.integers(0, 1 << n))
        out = edge_test(sam, (a, int(phi[a])), (b, int(phi[b])), gamma,
                        t_edge, rng)
        agree += bool(lo[a, b]) if out == 1 else not bool(hi[a, b])
    assert agree >= 95


def test_bsg_exact_phase_complete_graph():
    rng = np.random.default_rng(8)
    n = 9
    q = random_quadratic_phase(n, rng)
    xs = np.arange(1 << n, dtype=np.uint64)
    phi = np.asarray(q.symmetric_matrix().mul_vec_many(xs))
    sam = planted_sampler(q.truth_table(), phi)
    params = choose_bsg_params(None, rng, t_edge=512, r=12, s=12)
    u = sam.vertex(5)
    assert all(bsg_test(sam, u, sam.vertex(int(rng.integers(0, 1 << n))),
                        params, rng) == 1 for _ in range(10))


def test_bsg_immediate_zero_path():
    rng = np.random.default_rng(9)
    q = random_quadratic_phase(8, rng)
    orc = q.as_oracle()
    xs = np.arange(256, dtype=np.uint64)
    phi = np.asarray(q.symmetric_matrix().mul_vec_many(xs))
    sam = planted_sampler(q.truth_table(), phi)
    params = BsgParams(rho=0.2, gamma=1.5, mu=0.1, gamma1=1.55, gamma2=1.45,
                       gamma3=1.55, rho1=0.0084, rho2=0.038, r=8, s=8,
                       t_edge=256, interval=(1.0, 2.0))
    before = sam.f.query_count
    assert bsg_test(sam, sam.vertex(1), sam.vertex(2), params, rng) == 0
    # only the initial edge test's estimates ran: at most 3 of them
    assert sam.f.query_count - before <= 3 * 2 * 256


def planted_partial_linearity(n, seed):
    """Exact phase f with a choice table linear on a codim-1 subspace and
    uniformly random elsewhere."""
    rng = np.random.default_rng(seed)
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    H = SubspaceF2([int(rng.integers(1, 1 << n))], n)
    xs = np.arange(1 << n, dtype=np.uint64)
    phi = np.asarray(B.mul_vec_many(xs))
    outside = ~H.contains_many(xs)
    phi[outside] = rng.integers(0, 1 << n, size=int(outside.sum()),
                                dtype=np.uint64)
    tt = q.truth_table()
    return tt, phi, H


def test_bsg_sandwich_against_exhaustive_sets():
    # answers 1 land in A2, answers 0 land outside A1 (criterion shape)
    n = 10
    tt, phi, H = planted_partial_linearity(n, 10)
    rng = np.random.default_rng(11)
    sam = planted_sampler(tt, phi)
    rho = 0.2
    params = choose_bsg_params(None, rng, rho=rho, r=24, s=24, t_edge=2048)
    g, mu = params.gamma, params.mu
    coeff = exhaustive_coefficients(tt, phi)
    x_u = 0
    while not H.contains(x_u):
        x_u = int(rng.integers(0, 1 << n))
    u = (x_u, int(phi[x_u]))
    a1 = exhaustive_t_set(tt, phi, x_u, g + mu, g - mu, g + mu,
                          1.1 * rho ** 3, 0.9 * rho ** 2, coeff)
    a2 = exhaustive_t_set(tt, phi, x_u, g, g, g, rho ** 3, rho ** 2, coeff)
    ok = 0
    for _ in range(200):
        y = int(rng.integers(0, 1 << n))
        out = bsg_test(sam, u, (y, int(phi[y])), params, rng)
        ok += bool(a2.flags[y]) if out == 1 else not bool(a1.flags[y])
    assert ok >= 190


def test_t_set_parameter_monotonicity():
    n = 8
    tt, phi, _ = planted_partial_linearity(n, 12)
    coeff = exhaustive_coefficients(tt, phi)
    g, gp = 0.5, 0.2
    r1, r2, rp = 0.01, 0.04, 0.005
    for u in (1, 7, 100):
        inner = exhaustive_t_set(tt, phi, u, g, g, g, r1, r2, coeff)
        outer = exhaustive_t_set(tt, phi, u, g - gp, g + gp, g - gp,
                                 r1 - rp, r2 + rp, coeff)
        assert np.all(outer.flags[inner.flags])


def test_sandwich_sets_nested():
    n = 9
    tt, phi, _ = planted_partial_linearity(n, 13)
    coeff = exhaustive_coefficients(tt, phi)
    rho, g, mu = 0.2, 0.1, 0.01
    for u in (3, 50):
        a1 = exhaustive_t_set(tt, phi, u, g + mu, g - mu, g + mu,
                              1.1 * rho ** 3, 0.9 * rho ** 2, coeff)
        a2 = exhaustive_t_set(tt, phi, u, g, g, g, rho ** 3, rho ** 2, coeff)
        assert np.all(a2.flags[a1.flags])


def test_estimate_derivative_coefficient_concentrates():
    rng = np.random.default_rng(15)
    q = random_quadratic_phase(10, rng)
    B = q.symmetric_matrix()
    est = estimate_derivative_coefficient(q.as_oracle(), 37, B.mul_vec(37),
                                          2048, rng)
    assert abs(abs(est) - 1.0) < 1e-12  # pure phase: every sample is +-1


def derivative_reference_oracles(kind, n):
    """Two fresh oracles of one kind with the same values; every kind but
    "real" gives a table of -1/0/1 values."""
    rng = np.random.default_rng(16)
    if kind == "phase":
        q = random_quadratic_phase(n, rng)
        return q.as_oracle(), q.truth_table().as_oracle()
    if kind == "sign":
        vals = random_boolean_table(n, rng).values
    elif kind == "indicator":
        vals = (rng.random(1 << n) < 0.3).astype(np.float64)
    else:
        vals = rng.uniform(-1.0, 1.0, size=1 << n)
    return TableOracle(vals, n), TableOracle(vals, n)


def test_estimate_derivative_coefficient_matches_two_call_reference():
    # at 2^9 <= t a table of -1/0/1 values is binned, never read per
    # sample; the two-call per-sample product stays the reference on
    # every path, bit for bit, with the same queries and draws
    n, x, alpha = 9, 0x0f3, 0x155
    for kind in ("sign", "indicator", "phase", "real"):
        for t in (777, 512, 511, 40):
            f, ref = derivative_reference_oracles(kind, n)
            reads = []
            evaluate = f._evaluate
            f._evaluate = lambda xs: reads.append(xs.size) or evaluate(xs)
            got_rng = np.random.default_rng(17)
            got = estimate_derivative_coefficient(f, x, alpha, t, got_rng)
            rng = np.random.default_rng(17)
            ys = rand_points(rng, n, t)
            vals = ref.query_many(ys) * ref.query_many(ys ^ np.uint64(x))
            par = parity_many(ys & np.uint64(alpha)).astype(np.float64)
            want = float(vals.mean() - 2.0 * (vals @ par) / t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert f.query_count == ref.query_count == 2 * t
            assert got_rng.bit_generator.state == rng.bit_generator.state
            assert (reads == []) == (kind != "real" and t >= 1 << n)


def test_estimate_derivative_coefficient_reads_nan_only_where_drawn():
    n, t, x = 6, 64, 5
    ys = rand_points(np.random.default_rng(3), n, t)
    read = np.union1d(ys, ys ^ np.uint64(x))
    unread = int(np.setdiff1d(np.arange(1 << n), read)[0])
    vals = random_boolean_table(n, np.random.default_rng(4)).values
    want = estimate_derivative_coefficient(TableOracle(vals, n), x, 9, t,
                                           np.random.default_rng(3))
    for point, finite in ((unread, True), (int(ys[0]), False)):
        poisoned = vals.copy()
        poisoned[point] = np.nan
        got = estimate_derivative_coefficient(TableOracle(poisoned, n), x, 9,
                                              t, np.random.default_rng(3))
        assert (got == want) if finite else np.isnan(got)
