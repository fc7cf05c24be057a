"""Oracles, truth tables, quadratic phases and averages."""

import numpy as np
import pytest

from f2quad.gf2 import MatF2, SubspaceF2, dot
from f2quad.functions import (MAX_TABLE_N, DerivativeOracle,
                              QuadraticAverage, QuadraticPhase, TableOracle,
                              TruthTable, ValueTable,
                              coherent_quadratic_average,
                              correlation_exact,
                              estimate_correlation,
                              eval_quadratic_phase, hoeffding_samples,
                              make_noisy_codeword, make_noisy_codeword_exact,
                              rand_points, random_boolean_table,
                              random_quadratic_average, random_quadratic_phase)
from f2quad.fourier import derivative_table, wht


def bitwise_phase_eval(q, x):
    """Independent evaluator: explicit double loop over matrix entries."""
    bit = 0
    for i in range(q.n):
        for j in range(q.n):
            bit ^= ((x >> i) & 1) & ((x >> j) & 1) & q.M.entry(i, j)
    bit ^= dot(q.alpha, x) ^ q.c
    return 1.0 - 2.0 * bit


def test_zero_phase_is_one():
    q = QuadraticPhase.zero(5)
    assert all(eval_quadratic_phase(q, x) == 1.0 for x in range(32))


def test_x1x2_phase():
    # q(x) = x_1 x_2: value -1 at x = (1,1,0,..)
    q = QuadraticPhase(MatF2([0b0010, 0, 0, 0], 4), 0, 0, 4)
    assert eval_quadratic_phase(q, 0b0011) == -1.0
    assert eval_quadratic_phase(q, 0b0001) == 1.0


def test_phase_matches_bitwise_evaluator():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = random_quadratic_phase(6, rng)
        tt = q.truth_table()
        for x in range(64):
            assert tt.values[x] == bitwise_phase_eval(q, x)


def test_phase_dimension_check():
    q = QuadraticPhase.zero(4)
    with pytest.raises(ValueError):
        eval_quadratic_phase(q, 1 << 7)


def test_canonicalization_folds_diagonal():
    rng = np.random.default_rng(1)
    M = MatF2.random(5, 5, rng)
    q = QuadraticPhase.canonical(M, 3, 1)
    xs = np.arange(32, dtype=np.uint64)
    expect = [1.0 - 2.0 * (dot(x, M.mul_vec(x)) ^ dot(3, x) ^ 1)
              for x in range(32)]
    assert np.array_equal(q.eval_many(xs), np.array(expect))
    # canonical forms are equal iff the functions are equal
    q2 = QuadraticPhase.canonical(M.transpose(), 3 ^ M.diag_vector()
                                  ^ M.transpose().diag_vector(), 1)
    assert q == QuadraticPhase.canonical(M, 3, 1)
    assert q2.M == q.M


@pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 16, 17, 63])
def test_eval_many_matches_scalar_eval(n):
    # chunk boundaries at 8 and 16, a one-column last chunk at 9 and 17,
    # the widest oracle dimension, and value tables up to MAX_TABLE_N = 16
    rng = np.random.default_rng(300 + n)
    full = (1 << n) - 1
    pts = [0, full] + [int(v) for v in rand_points(rng, n, 60)]
    stray = [p | (int(rng.integers(1, 1 << (64 - n), dtype=np.uint64)) << n)
             for p in pts[:20]]
    xs = np.array(pts + stray, dtype=np.uint64)
    for trial in range(3):
        q = random_quadratic_phase(n, rng)
        got = q.eval_many(xs)
        assert got.dtype == np.float64
        assert list(got) == [q.eval(int(x)) for x in xs]
        # bits at or above n are ignored
        assert np.array_equal(got, q.eval_many(xs & np.uint64(full)))
        Q = random_quadratic_average(n, min(2, n), rng)
        got_avg = Q.eval_many(xs)
        assert list(got_avg) == [Q.eval(int(x)) for x in xs]
        assert np.array_equal(got_avg, Q.eval_many(xs & np.uint64(full)))
        # each object has been asked for 2 * xs.size points: the kernel
        # answers below 2^n, and once they reach 2^n (up to MAX_TABLE_N)
        # a table of the kernel's outputs does
        for obj, vals in ((q, got), (Q, got_avg)):
            assert np.array_equal(vals, obj._kernel(xs))
            table = obj._table
            assert (table.values is None) == \
                (n > MAX_TABLE_N or 2 * xs.size < 1 << n)
            if n <= MAX_TABLE_N + 1:
                obj.eval_many(np.arange(1 << n, dtype=np.uint64))
                assert (table.values is None) == (n > MAX_TABLE_N)
                assert np.array_equal(obj.eval_many(xs), vals)


def test_value_table_built_when_points_asked_reach_2n():
    # the kernel's work stays below twice the points asked for: it answers
    # the first 2^n - 1 points, fills the table on the call that reaches
    # 2^n, and is never called again
    sizes = []

    def kernel(xs):
        sizes.append(xs.size)
        return (xs & np.uint64(31)).astype(np.float64)

    table = ValueTable(5)
    for size in (10, 21):
        table(kernel, np.arange(size, dtype=np.uint64))
    assert table.values is None and sizes == [10, 21]
    stray = np.array([(1 << 40) | 3, (1 << 63) | 31], dtype=np.uint64)
    assert list(table(kernel, stray)) == [3.0, 31.0]
    assert sizes == [10, 21, 32]
    assert np.array_equal(table(kernel, np.arange(1000, dtype=np.uint64)),
                          np.arange(1000) % 32)
    assert sizes == [10, 21, 32]


def test_eval_many_tables_leave_equality_alone():
    rng = np.random.default_rng(12)
    q = random_quadratic_phase(10, rng)
    twin = QuadraticPhase(q.M, q.alpha, q.c, q.n)
    q.eval_many(np.arange(4, dtype=np.uint64))  # builds q's tables only
    assert q == twin and hash(q) == hash(twin)


def test_average_constant_one():
    n = 6
    Q = QuadraticAverage(SubspaceF2.full_space(n), MatF2.zeros(n, n),
                         {0: (0, 0)}, n)
    xs = np.arange(1 << n, dtype=np.uint64)
    assert np.all(Q.eval_many(xs) == 1.0)


def test_average_term_constant_on_cosets():
    rng = np.random.default_rng(2)
    Q = random_quadratic_average(8, 2, rng)
    for _ in range(200):
        x = int(rng.integers(0, 256))
        w = Q.W.random_element(rng)
        # the coset term used is invariant along the coset
        assert Q.W.canonical_rep(x) == Q.W.canonical_rep(x ^ w)


def test_average_self_inner_product_unit():
    rng = np.random.default_rng(3)
    Q = random_quadratic_average(8, 2, rng)
    tt = Q.truth_table()
    assert abs(float(np.mean(tt.values ** 2)) - 1.0) < 1e-12


def test_average_missing_coset_is_zero():
    n = 6
    W = SubspaceF2([1], n)
    reps = [int(r) for r in W.coset_reps()]
    Q = QuadraticAverage(W, MatF2.zeros(n, n), {reps[0]: (0, 0)}, n)
    tt = Q.truth_table()
    zero = tt.values == 0.0
    assert zero.sum() == (1 << n) // 2


def test_noisy_codeword_extremes_and_stats():
    rng = np.random.default_rng(4)
    q = random_quadratic_phase(12, rng)
    exact = make_noisy_codeword(q, 0.5, rng)
    assert np.array_equal(exact.values, q.truth_table().values)
    hits = 0
    for trial in range(20):
        nz = make_noisy_codeword(q, 0.25, np.random.default_rng(100 + trial))
        corr = correlation_exact(nz, q.truth_table())
        hits += abs(corr - 0.5) <= 0.05
        dist = float(np.mean(nz.values != q.truth_table().values))
        assert abs(dist - (1.0 - corr) / 2.0) < 1e-12
    assert hits >= 19


def test_noisy_codeword_exact_distance():
    rng = np.random.default_rng(5)
    q = random_quadratic_phase(12, rng)
    nz = make_noisy_codeword_exact(q, 0.25, rng)
    dist = float(np.mean(nz.values != q.truth_table().values))
    assert dist == round(0.25 * (1 << 12)) / (1 << 12)


def test_correlation_exact_basics():
    rng = np.random.default_rng(6)
    f = random_boolean_table(8, rng)
    assert correlation_exact(f, f) == 1.0
    neg = TruthTable(-f.values, 8)
    assert correlation_exact(f, neg) == -1.0
    q = random_quadratic_phase(8, rng)
    g = q.truth_table()
    assert correlation_exact(f, g) == float(np.sum(f.values * g.values)) / 256
    with pytest.raises(ValueError):
        correlation_exact(f, random_boolean_table(6, rng))


def test_estimate_correlation_constant_and_count():
    rng = np.random.default_rng(7)
    ones = TableOracle(np.ones(1 << 8), 8)
    ones2 = TableOracle(np.ones(1 << 8), 8)
    est = estimate_correlation(ones, ones2, 0.1, 0.05, rng)
    assert est == 1.0
    # query count equals the documented formula
    t = hoeffding_samples(0.1, 0.05)
    assert ones.query_count == t and ones2.query_count == t


def test_estimate_correlation_planted():
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = 20
        q = random_quadratic_phase(n, rng)
        # planted correlation 1/2: g agrees with q on a pseudo-random 3/4
        flip = (np.uint64(0x9E3779B97F4A7C15),)

        def g_eval(xs, _q=q):
            base = _q.eval_many(xs)
            h = (xs * flip[0] + np.uint64(trial)) >> np.uint64(40)
            return np.where((h & np.uint64(3)) == 0, -base, base)

        from f2quad.functions import CallableOracle
        with np.errstate(over="ignore"):
            f = CallableOracle(g_eval, n)
            est = estimate_correlation(f, q.as_oracle(), 0.05, 0.01, rng)
        hits += abs(est - 0.5) <= 0.06
    assert hits >= 95


def test_derivative_oracle_counts_two_base_queries():
    rng = np.random.default_rng(8)
    tt = random_boolean_table(8, rng)
    f, ref = tt.as_oracle(), tt.as_oracle()
    d = DerivativeOracle(f, 13)
    xs = np.arange(32, dtype=np.uint64)
    # one batched base call, same values and counts as two separate calls
    expect = ref.query_many(xs) * ref.query_many(xs ^ np.uint64(13))
    assert np.array_equal(d.query_many(xs), expect)
    assert f.query_count == ref.query_count == 64
    assert d.query_count == 32


def test_derivative_of_phase_is_linear_phase():
    # the derivative of (-1)^q has its unit Fourier coefficient at (M+M^T)x
    rng = np.random.default_rng(9)
    for n in (6, 8):
        q = random_quadratic_phase(n, rng)
        tt = q.truth_table()
        B = q.symmetric_matrix()
        for x in range(1 << n):
            spec = wht(derivative_table(tt, x))
            a = int(np.argmax(np.abs(spec.coefficients)))
            assert a == B.mul_vec(x)
            assert abs(abs(spec.coefficient(a)) - 1.0) < 1e-12


def test_oracle_replay_determinism():
    rng = np.random.default_rng(10)
    f = random_boolean_table(10, rng).as_oracle()
    xs = np.arange(1 << 10, dtype=np.uint64)
    assert np.array_equal(f.query_many(xs), f.query_many(xs))


@pytest.mark.parametrize("x", [1 << 6, 1 << 63, (1 << 64) - 1])
def test_table_oracle_rejects_points_at_or_above_2n(x):
    f = TableOracle(np.arange(64, dtype=np.float64), 6)
    assert list(f.query_many([0, 63])) == [0.0, 63.0]
    with pytest.raises(IndexError):
        f.query_many(np.array([5, x], dtype=np.uint64))
    with pytest.raises(IndexError):
        f(x)


def test_coherent_average_structure():
    rng = np.random.default_rng(11)
    Q = coherent_quadratic_average(10, 2, rng)
    assert Q.complexity == 2
    ls = {y: l for y, (l, _) in Q.coset_terms.items()}
    ys = sorted(ls)
    assert ls[ys[0]] ^ ls[ys[1]] ^ ls[ys[2]] ^ ls[ys[3]] == 0  # affine pattern
    cs = [c for _, (_, c) in sorted(Q.coset_terms.items())]
    assert sum(cs) % 2 == 1  # sign pattern non-affine on the quotient


def test_coherent_average_codim3_not_a_phase():
    # degree-3 sign pattern on the quotient: no quadratic phase matches
    from f2quad.bruteforce import best_quadratic_correlation
    Q = coherent_quadratic_average(6, 3, np.random.default_rng(7))
    _, best = best_quadratic_correlation(Q.truth_table())
    assert best < 1.0 - 1e-9


@pytest.mark.parametrize("make", [random_quadratic_average,
                                  coherent_quadratic_average])
def test_average_codim_range(make):
    rng = np.random.default_rng(40)
    for codim in (7, -1):
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="codim"):
            make(6, codim, rng)
        assert rng.bit_generator.state == before  # refused before any draw
    for codim in (0, 6):
        assert make(6, codim, rng).complexity == codim
