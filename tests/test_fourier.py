"""Transform, uniformity norms, and the linear decompositions."""

import numpy as np
import pytest

from f2quad.gf2 import SubspaceF2, dot, dot_many, sign_many
from f2quad import fourier
from f2quad.functions import (CallableOracle, DerivativeOracle,
                              ProductOracle, TableOracle, TruthTable,
                              planted_sign_mixture, rand_points,
                              random_boolean_table, random_quadratic_phase,
                              unit_table)
from f2quad.fourier import (_binned_mean32, _bucket_weight_estimates,
                            _coefficient_estimates, _signed_means,
                            _word_means, exact_u2, exact_u3, exact_u_norm,
                            fwht, goldreich_levin, goldreich_levin_subspace,
                            spectrum_to_table, wht)
from f2quad.u3 import (_u3_products, estimate_u3, u3_power_gate,
                       u3_power_mean, u3_sample_count)
from f2quad.decompose import ResidualOracle
from f2quad.bruteforce import u2_direct, u3_direct


def linear_phase_table(n, alpha):
    xs = np.arange(1 << n, dtype=np.uint64)
    return TruthTable(sign_many(dot_many(xs, alpha)), n)


def test_wht_constant_and_linear_phases():
    n = 8
    ones = TruthTable(np.ones(1 << n), n)
    spec = wht(ones)
    assert spec.coefficient(0) == 1.0 and abs(spec.parseval_sum() - 1.0) < 1e-12
    for alpha in (1, 77, 255):
        spec = wht(linear_phase_table(n, alpha))
        assert spec.coefficient(alpha) == 1.0
        assert abs(spec.parseval_sum() - 1.0) < 1e-12


def test_wht_parseval_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_boolean_table(10, rng)
        assert abs(wht(f).parseval_sum() - 1.0) < 1e-9


def test_wht_involution_up_to_scaling():
    rng = np.random.default_rng(1)
    f = random_boolean_table(8, rng)
    assert np.allclose(fwht(fwht(f.values)), (1 << 8) * f.values)
    # and the inverse reconstructs the table
    assert np.allclose(spectrum_to_table(wht(f)).values, f.values)


def test_fwht_keeps_exact_dtypes():
    ints = np.array([3, -1, 4, 1, -5, 9, 2, 6], dtype=np.int64)
    out = fwht(ints)
    assert out.dtype == np.int64
    assert np.array_equal(fwht(out), 8 * ints)
    big = fwht(ints.astype(object) * (1 << 70))
    assert big.dtype == object and list(big) == [int(v) << 70 for v in out]
    assert fwht(ints.astype(np.float32)).dtype == np.float64
    assert fwht([True, False, True, True]).dtype == np.float64


def test_u2_linear_phase_and_u3_quadratic_phase():
    rng = np.random.default_rng(2)
    assert abs(exact_u2(linear_phase_table(8, 93)) - 1.0) < 1e-9
    for n in (6, 8, 10):
        q = random_quadratic_phase(n, rng)
        assert abs(exact_u_norm(q.truth_table(), 3) - 1.0) < 1e-9


def test_u_norm_nesting():
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = random_boolean_table(8, rng)
        assert exact_u2(f) <= exact_u3(f) + 1e-9


def test_inductive_vs_direct_norms():
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = random_boolean_table(6, rng)
        assert abs(exact_u3(f) - u3_direct(f)) < 1e-9
        assert abs(exact_u2(f) - u2_direct(f)) < 1e-9


def test_exact_u3_refuses_large_n():
    with pytest.raises(ValueError):
        exact_u_norm(TruthTable(np.ones(1 << 15), 15), 3)


def test_estimate_u3_exact_phase():
    rng = np.random.default_rng(5)
    q = random_quadratic_phase(12, rng)
    est = estimate_u3(q.as_oracle(), 0.1, 0.1, rng, samples=4096)
    assert est == 1.0  # every 8-point product is 1


def test_estimate_u3_query_count():
    rng = np.random.default_rng(6)
    f = random_boolean_table(10, rng).as_oracle()
    t = u3_sample_count(0.1, 0.1)
    estimate_u3(f, 0.1, 0.1, rng)
    assert f.query_count == 8 * t


def test_estimate_u3_concentration_small():
    # quick version of the acceptance check at n=10
    rng = np.random.default_rng(7)
    from f2quad.functions import make_noisy_codeword
    hits = 0
    for trial in range(5):
        q = random_quadratic_phase(10, np.random.default_rng(trial))
        nz = make_noisy_codeword(q, 0.3, np.random.default_rng(50 + trial))
        est = estimate_u3(nz.as_oracle(), 0.05, 0.05, rng)
        hits += abs(est - exact_u3(nz)) <= 0.05
    assert hits >= 4


def test_estimate_u3_failure_rate():
    # empirical failure rate over 200 seeds at gamma = delta = 0.1 stays
    # below 2 delta (instances above the estimator's norm floor)
    from f2quad.functions import make_noisy_codeword
    n = 10
    fails = 0
    for trial in range(200):
        rng = np.random.default_rng(9000 + trial)
        q = random_quadratic_phase(n, rng)
        nz = make_noisy_codeword(q, 0.3 if trial % 2 else 0.45, rng)
        est = estimate_u3(nz.as_oracle(), 0.1, 0.1, rng)
        fails += abs(est - exact_u3(nz)) > 0.1
    assert fails <= 0.2 * 200


def per_corner_u3_power_mean(f, t, rng, chunk=1 << 20):
    """The per-corner loop (one oracle call per corner set of a whole
    draw chunk), kept as the reference for the blocked sampler."""
    total = 0.0
    done = 0
    while done < t:
        b = min(chunk, t - done)
        x = rand_points(rng, f.n, b)
        h1 = rand_points(rng, f.n, b)
        h2 = rand_points(rng, f.n, b)
        h3 = rand_points(rng, f.n, b)
        prod = np.ones(b, dtype=np.float64)
        for w in range(8):
            pt = x.copy()
            if w & 1:
                pt ^= h1
            if w & 2:
                pt ^= h2
            if w & 4:
                pt ^= h3
            prod *= f.query_many(pt)
        total += float(np.sum(prod))
        done += b
    return total / t


def u3_sampler_oracle(kind):
    """A fresh oracle of the given kind, and the root whose _evaluate
    sees every point."""
    n = 10
    rng = np.random.default_rng(77)
    if kind == "sign":
        root = random_boolean_table(n, rng).as_oracle()
        return root, root
    vals = rng.uniform(-1.0, 1.0, size=1 << n)
    root = TableOracle(vals, n)
    if kind == "real":
        return root, root
    terms = [(c, random_quadratic_phase(n, rng)) for c in (0.5, 0.25, 0.5)]
    return ResidualOracle(root, terms, 1.5), root


@pytest.mark.parametrize("t", [1, 7, 4095, 4096, 4097, 3 * 4096 + 5,
                               (1 << 20) + 5])
@pytest.mark.parametrize("kind", ["sign", "real", "residual"])
def test_u3_power_mean_matches_per_corner_reference(t, kind):
    f_ref, _ = u3_sampler_oracle(kind)
    f, root = u3_sampler_oracle(kind)
    rng_ref = np.random.default_rng(t)
    rng = np.random.default_rng(t)
    want = per_corner_u3_power_mean(f_ref, t, rng_ref)
    got = u3_power_mean(f, t, rng)
    assert got == want  # exact float equality
    assert f.query_count == 8 * t and root.query_count == 8 * t
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def binned_u3_oracle(kind, n):
    """A fresh oracle of the given kind at a small n, and its root: a
    sign table, a residual whose values are multiples of 1/2 clamped at
    B = 2, and a uniform real table (which is never binned)."""
    rng = np.random.default_rng(78)
    if kind == "real":
        root = TableOracle(rng.uniform(-1.0, 1.0, size=1 << n), n)
        return root, root
    root = random_boolean_table(n, rng).as_oracle()
    if kind == "sign":
        return root, root
    terms = [(0.5, random_quadratic_phase(n, rng)) for _ in range(3)]
    return ResidualOracle(root, terms, 2.0), root


@pytest.mark.parametrize("n,t", [(4, (1 << 16) - 1), (4, 1 << 16),
                                 (4, (1 << 16) + 5), (4, (1 << 20) + 5),
                                 (5, 1 << 20)])
@pytest.mark.parametrize("kind", ["sign", "residual", "real"])
def test_u3_binned_sampler_matches_per_corner_reference(n, t, kind):
    # a draw chunk of b >= 2^(4n) is binned (no oracle call) unless the
    # table is real-valued; the floats, counts and draws stay the same
    f_ref, _ = binned_u3_oracle(kind, n)
    f, root = binned_u3_oracle(kind, n)
    asked = []
    query_many = f.query_many
    f.query_many = lambda xs: asked.append(xs.size) or query_many(xs)
    rng_ref = np.random.default_rng(t + n)
    rng = np.random.default_rng(t + n)
    want = per_corner_u3_power_mean(f_ref, t, rng_ref)
    got = u3_power_mean(f, t, rng)
    assert got == want  # exact float equality
    assert f.query_count == 8 * t and root.query_count == 8 * t
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    chunks = [min(1 << 20, t - lo) for lo in range(0, t, 1 << 20)]
    evaluated = sum(b for b in chunks if kind == "real" or b < 1 << (4 * n))
    assert sum(asked) == 8 * evaluated


def test_u3_products_exactness_rule():
    n = 4
    rng = np.random.default_rng(79)
    sign, _ = binned_u3_oracle("sign", n)
    residual, _ = binned_u3_oracle("residual", n)
    products = _u3_products(residual)
    assert products is not None and _u3_products(residual) is products
    # the corners of cell x | h1 << 4 | h2 << 8 | h3 << 12, in order w
    vals = residual.table()
    cell = 0x9a5c
    x, hs = cell & 15, [(cell >> (4 * k)) & 15 for k in (1, 2, 3)]
    want = 1.0
    for w in range(8):
        pt = x
        for k in range(3):
            if w >> k & 1:
                pt ^= hs[k]
        want *= vals[pt]
    assert products[cell] == want
    assert _u3_products(sign) is not None
    fine = TableOracle(rng.integers(-1024, 1025, size=1 << n) / 1024.0, n)
    assert _u3_products(fine) is None  # multiples of 2^-80: inexact sums
    real, _ = binned_u3_oracle("real", n)
    assert _u3_products(real) is None
    nan = random_boolean_table(n, rng).values.copy()
    nan[5] = np.nan
    assert _u3_products(TableOracle(nan, n)) is None
    leaf = CallableOracle(lambda xs: np.ones(xs.shape), n)
    assert _u3_products(leaf) is None  # no table
    assert _u3_products(TableOracle(np.zeros(1 << n), n)) is not None


def test_u3_binned_sampler_falls_back_on_nan():
    vals = random_boolean_table(4, np.random.default_rng(3)).values.copy()
    vals[5] = np.nan
    orc = TableOracle(vals, 4)
    with pytest.raises(ValueError, match="NaN"):
        u3_power_mean(orc, 1 << 16, np.random.default_rng(4))


def test_u3_sampler_rejects_nan():
    n = 6
    vals = random_boolean_table(n, np.random.default_rng(3)).values.copy()
    vals[17] = np.nan
    orc = TableOracle(vals, n)
    with pytest.raises(ValueError, match="NaN"):
        u3_power_mean(orc, 4096, np.random.default_rng(4))
    with pytest.raises(ValueError, match="NaN"):
        estimate_u3(orc, 0.1, 0.1, np.random.default_rng(4))


def test_goldreich_levin_rejects_nan():
    # a NaN mean fails every threshold comparison, which used to end the
    # search with an empty list after the whole tree's queries
    n = 6
    vals = random_quadratic_phase(n, np.random.default_rng(3)).truth_table().values
    vals[17] = np.nan
    orc = TableOracle(vals, n)
    with pytest.raises(ValueError, match="NaN"):
        goldreich_levin(orc, 0.2, 0.05, np.random.default_rng(4),
                        t_bucket=4096, t_leaf=4096, repeats=1)
    assert orc.query_count <= 2 * 4096  # the first level's bucket samples
    W = SubspaceF2.from_span([1, 2, 16, 32], n)  # holds the NaN point 17
    orc = TableOracle(vals, n)
    with pytest.raises(ValueError, match="NaN"):
        goldreich_levin_subspace(orc, W, 0.2, 0.05, np.random.default_rng(4),
                                 t_bucket=4096, t_leaf=4096, repeats=1)
    assert orc.query_count <= 2 * 4096


def test_u3_sample_counts_must_be_positive():
    orc = random_boolean_table(6, np.random.default_rng(5)).as_oracle()
    rng = np.random.default_rng(6)
    for t in (0, -3):
        with pytest.raises(ValueError):
            u3_power_mean(orc, t, rng)
        with pytest.raises(ValueError):
            estimate_u3(orc, 0.1, 0.1, rng, samples=t)
    with pytest.raises(ValueError):
        u3_power_gate(orc, 0.5, rng, t_start=0)
    with pytest.raises(ValueError):
        u3_power_gate(orc, 0.5, rng, t_cap=0)
    assert orc.query_count == 0


def test_power_gate_decisions():
    rng = np.random.default_rng(8)
    q = random_quadratic_phase(10, rng)
    assert u3_power_gate(q.as_oracle(), 0.5, rng)
    zero = TableOracle(np.zeros(1 << 8), 8)
    assert not u3_power_gate(zero, 0.2, rng)


def test_goldreich_levin_single_character():
    rng = np.random.default_rng(9)
    tt = linear_phase_table(10, 517)
    terms = goldreich_levin(tt.as_oracle(), 0.5, 0.05, rng)
    assert terms and terms[0][0] == 517
    assert abs(terms[0][1] - 1.0) <= 0.25


def test_goldreich_levin_planted_spectrum():
    # all characters at |coeff| >= gamma found; coefficients within gamma/2
    rng = np.random.default_rng(10)
    n, gamma = 12, 0.2
    for trial in range(5):
        trng = np.random.default_rng(300 + trial)
        alphas = trng.choice(1 << n, size=4, replace=False)
        wts = [0.9, 0.55, 0.4, 0.25]
        tt = planted_sign_mixture(n, list(zip((int(a) for a in alphas), wts)),
                                  trng)
        spec = wht(tt)
        found = dict(goldreich_levin(tt.as_oracle(), gamma, 0.05, rng))
        for a, c in spec.above(gamma):
            assert a in found, f"missed {a} with coefficient {c}"
        for a, c in found.items():
            assert abs(c - spec.coefficient(a)) <= gamma / 2.0


def test_goldreich_levin_soundness_weak_spectrum():
    # gamma far above every coefficient: nothing strong may be claimed
    rng = np.random.default_rng(11)
    f = random_boolean_table(12, rng)  # max coefficient ~ 0.05
    terms = goldreich_levin(f.as_oracle(), 0.9, 0.05, rng)
    assert all(abs(c) < 0.45 for _, c in terms)


def test_gl_subspace_degenerate_full_space():
    rng = np.random.default_rng(12)
    tt = linear_phase_table(9, 101)
    W = SubspaceF2.full_space(9)
    terms = goldreich_levin_subspace(tt.as_oracle(), W, 0.5, 0.05, rng)
    assert terms and terms[0][0] == 101


def test_gl_subspace_planted_member():
    rng = np.random.default_rng(13)
    n = 10
    for trial in range(5):
        trng = np.random.default_rng(500 + trial)
        W = SubspaceF2([int(trng.integers(1, 1 << n)) for _ in range(2)], n)
        a0 = 0
        while a0 == 0:
            a0 = W.random_element(trng)
        tt = linear_phase_table(n, a0)
        terms = goldreich_levin_subspace(tt.as_oracle(), W, 0.5, 0.05, rng)
        assert terms
        a, c = terms[0]
        # the returned character equals chi_{a0} on W
        assert all(dot(a ^ a0, w) == 0 for w in W.basis())
        assert c > 0.5


def test_gl_subspace_flat_restriction_empty():
    # every correlation over W verified tiny by enumeration => empty list
    rng = np.random.default_rng(14)
    n = 10
    W = SubspaceF2([1], n)  # x_1 = 0
    members = W.enumerate_elements()
    while True:
        f = random_boolean_table(n, rng)
        slice_vals = f.values[members.astype(np.int64)]
        biggest = max(abs(float(np.mean(
            slice_vals * sign_many(dot_many(members, int(a))))))
            for a in members)
        if biggest < 0.12:  # premise: all W-correlations below gamma/2
            break
    terms = goldreich_levin_subspace(f.as_oracle(), W, 0.3, 0.05, rng)
    assert terms == []


def test_gl_query_budget_scaling():
    # sample counts grow with the union bound, not the dimension alone
    rng = np.random.default_rng(15)
    tt = linear_phase_table(8, 17)
    orc = tt.as_oracle()
    goldreich_levin(orc, 0.5, 0.05, rng, t_bucket=256, t_leaf=256, repeats=1)
    # per level 2 t_bucket queries, plus one leaf pass
    assert orc.query_count <= 2 * 256 * 8 + 256 + 256


def per_sample_signed_means(vals, words, masks):
    """The per-sample parity product, kept as the reference for the
    word-summed one."""
    par = (np.bitwise_count(words[:, None] & masks[None, :])
           & np.uint8(1)).astype(np.float32)
    v32 = vals.astype(np.float32)
    return (v32.mean() - 2.0 * (v32 @ par) / len(vals)).astype(np.float64)


@pytest.mark.parametrize("t,bits", [(64, 5), (64, 6), (64, 8), (100, 6),
                                    (100, 7), (1 << 17, 6), (3000, 12),
                                    (1, 1), (4096, 9)])
@pytest.mark.parametrize("kind", ["sign", "indicator"])
def test_signed_means_matches_per_sample_reference(t, bits, kind):
    # 2^bits below, equal to and above t; t a power of two and not
    rng = np.random.default_rng(t * 31 + bits)
    words = rng.integers(0, 1 << bits, size=t, dtype=np.uint64)
    masks = np.unique(rng.integers(0, 1 << bits, size=96, dtype=np.uint64))
    vals = rng.integers(0, 2, size=t).astype(np.float64)
    if kind == "sign":
        vals = 1.0 - 2.0 * vals
    got = _signed_means(vals, words, masks, bits)
    assert got.dtype == np.float64
    want = per_sample_signed_means(vals, words, masks)
    assert np.array_equal(got, want)
    if (1 << bits) <= t:
        # the binned path's float32 mean, from the exact integer sum
        sums = np.bincount(words.astype(np.intp), weights=vals,
                           minlength=1 << bits)
        binned = _word_means(_binned_mean32(sums.sum(), t), sums, masks, t)
        assert binned.tobytes() == want.tobytes()


@pytest.mark.parametrize("t,bits", [(4096, 6), (100, 8)])
def test_signed_means_real_values(t, bits):
    rng = np.random.default_rng(bits)
    words = rng.integers(0, 1 << bits, size=t, dtype=np.uint64)
    masks = np.arange(1 << bits, dtype=np.uint64)
    vals = rng.uniform(-2.0, 2.0, size=t)
    signs = 1.0 - 2.0 * (np.bitwise_count(words[:, None] & masks[None, :]) & 1)
    want = np.mean(vals[:, None] * signs, axis=0)
    assert np.max(np.abs(_signed_means(vals, words, masks, bits) - want)) < 1e-6


KINDS = ["sign", "indicator", "phase-derivative", "product", "real"]


def estimator_oracle(kind, n=6):
    """A fresh oracle of one kind and the oracles beneath it.  Every kind
    but "real" gives a table of -1/0/1 values."""
    rng = np.random.default_rng(41)
    root = random_boolean_table(n, rng).as_oracle()
    q = random_quadratic_phase(n, rng)
    if kind == "sign":
        return root, []
    if kind == "indicator":
        return TableOracle((rng.random(1 << n) < 0.3).astype(np.float64), n), []
    if kind == "phase-derivative":
        base = q.as_oracle()
        return DerivativeOracle(base, 13), [base]
    if kind == "product":
        h = q.as_oracle()
        return ProductOracle(root, h), [root, h]
    return TableOracle(rng.uniform(-1.0, 1.0, size=1 << n), n), []


def sampled(f):
    """f behind a table-less leaf, which keeps the estimators on their
    sampled path (the reference) and charges f as before."""
    return CallableOracle(f.query_many, f.n, bound=f.bound)


def spy_evaluate(f):
    """Record the size of each _evaluate call: the sampled path reads the
    oracle there, the binned path reads only its table."""
    calls = []
    evaluate = f._evaluate
    f._evaluate = lambda xs: calls.append(xs.size) or evaluate(xs)
    return calls


def same_counts_and_stream(f, below, ref, ref_below, rng, rng_ref):
    assert [o.query_count for o in (f, *below)] == \
        [o.query_count for o in (ref, *ref_below)]
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("level,t", [(1, 128), (1, 127), (3, 600), (3, 511),
                                     (6, 4096), (6, 4095)])
def test_bucket_estimates_binned_match_sampled(kind, level, t):
    # 2^(n+level) at, below and above t; the sampled path is the reference
    n = 6
    f, below = estimator_oracle(kind)
    ref, ref_below = estimator_oracle(kind)
    calls = spy_evaluate(f)
    buckets = list(range(min(1 << level, 40)))
    rng, rng_ref = np.random.default_rng(t), np.random.default_rng(t)
    got, sd = _bucket_weight_estimates(f, level, buckets, t, rng,
                                       spread=True)
    want, sd_ref = _bucket_weight_estimates(sampled(ref), level, buckets, t,
                                            rng_ref, spread=True)
    assert got.tobytes() == want.tobytes() and sd == sd_ref
    same_counts_and_stream(f, below, ref, ref_below, rng, rng_ref)
    assert (calls == []) == (kind != "real" and (1 << (n + level)) <= t)


@pytest.mark.parametrize("kind", ["sign", "indicator"])
def test_bucket_estimates_binned_above_the_pair_cache(kind):
    # at level 9 > PAIR_CACHE_BITS the word matrices are built per call
    n, level, t = 9, 9, 1 << 18
    f, below = estimator_oracle(kind, n)
    ref, ref_below = estimator_oracle(kind, n)
    calls = spy_evaluate(f)
    buckets = list(range(40))
    rng, rng_ref = np.random.default_rng(t), np.random.default_rng(t)
    got, sd = _bucket_weight_estimates(f, level, buckets, t, rng,
                                       spread=True)
    want, sd_ref = _bucket_weight_estimates(sampled(ref), level, buckets, t,
                                            rng_ref, spread=True)
    assert got.tobytes() == want.tobytes() and sd == sd_ref
    same_counts_and_stream(f, below, ref, ref_below, rng, rng_ref)
    assert calls == []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", [64, 63, 1000])
def test_leaf_estimates_binned_match_sampled(kind, t):
    n = 6
    f, below = estimator_oracle(kind)
    ref, ref_below = estimator_oracle(kind)
    calls = spy_evaluate(f)
    alphas = [0, 3, 13, 40, 63]
    rng, rng_ref = np.random.default_rng(t), np.random.default_rng(t)
    got = _coefficient_estimates(f, alphas, t, rng)
    want = _coefficient_estimates(sampled(ref), alphas, t, rng_ref)
    assert got.tobytes() == want.tobytes()
    same_counts_and_stream(f, below, ref, ref_below, rng, rng_ref)
    assert (calls == []) == (kind != "real" and 64 <= t)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("noise_floor_z", [0.0, 3.0])
def test_goldreich_levin_binned_matches_sampled(kind, noise_floor_z):
    # t_bucket 1500 bins levels 1-4 at n = 6 and samples levels 5-6
    f, below = estimator_oracle(kind)
    ref, ref_below = estimator_oracle(kind)
    rng, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    counts = dict(t_bucket=1500, t_leaf=1000, repeats=2, live_cap=20,
                  noise_floor_z=noise_floor_z)
    got = goldreich_levin(f, 0.15, 0.1, rng, **counts)
    want = goldreich_levin(sampled(ref), 0.15, 0.1, rng_ref, **counts)
    assert got == want
    same_counts_and_stream(f, below, ref, ref_below, rng, rng_ref)


@pytest.mark.parametrize("noise_floor_z", [0.0, 3.0])
def test_goldreich_levin_subspace_binned_matches_sampled(monkeypatch,
                                                         noise_floor_z):
    # f pulled back to coordinates over W (dimension 6) hands over f's
    # table: t_bucket 1500 bins levels 1-4 and samples levels 5-6
    n = 8
    vals = planted_sign_mixture(n, [(0b10110010, 1.0), (0b01001101, 0.7)],
                                np.random.default_rng(6)).values
    f, ref = TableOracle(vals, n), TableOracle(vals, n)
    W = SubspaceF2([0b10010011, 0b01100101], n)
    tabled = []

    def spy(g, bins, t):
        table = unit_table(g, bins, t)
        tabled.append(table is not None)
        return table

    monkeypatch.setattr(fourier, "unit_table", spy)
    counts = dict(t_bucket=1500, t_leaf=1000, repeats=2, live_cap=20,
                  noise_floor_z=noise_floor_z)
    rng, rng_ref = np.random.default_rng(7), np.random.default_rng(7)
    got = goldreich_levin_subspace(f, W, 0.15, 0.1, rng, **counts)
    binned, tabled[:] = list(tabled), []
    leaf = sampled(ref)
    want = goldreich_levin_subspace(leaf, W, 0.15, 0.1, rng_ref, **counts)
    assert got == want and got
    assert f.query_count == leaf.query_count
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert True in binned and True not in tabled


def test_binned_estimates_read_nan_only_where_drawn():
    # a NaN anywhere in a table keeps every estimator on the sampled path:
    # a NaN nobody draws changes nothing, a drawn one raises
    n, t, alphas = 6, 64, [1, 6, 33]
    xs = rand_points(np.random.default_rng(9), n, t)
    undrawn = int(np.setdiff1d(np.arange(1 << n), xs)[0])
    vals = random_boolean_table(n, np.random.default_rng(10)).values
    clean = TableOracle(vals, n)
    want = _coefficient_estimates(clean, alphas, t, np.random.default_rng(9))
    for point, finite in ((undrawn, True), (int(xs[0]), False)):
        poisoned = vals.copy()
        poisoned[point] = np.nan
        f = TableOracle(poisoned, n)
        got = _coefficient_estimates(f, alphas, t, np.random.default_rng(9))
        assert f.query_count == clean.query_count == t
        if finite:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.isnan(got).all()
    with pytest.raises(ValueError, match="NaN"):
        goldreich_levin(f, 0.2, 0.05, np.random.default_rng(4),
                        t_bucket=4096, t_leaf=4096, repeats=1)


def test_goldreich_levin_zero_one_table_pinned():
    # a seeded run on a 0/1 indicator (the Bogolyubov input type) returns
    # exactly what the per-sample product returned
    n = 6
    W = SubspaceF2([0b000111, 0b101010], n)
    xs = np.arange(1 << n, dtype=np.uint64)
    vals = (W.canonical_rep_many(xs) == 0).astype(np.float64)
    vals[[5, 17, 40, 63]] = 1.0 - vals[[5, 17, 40, 63]]
    orc = TableOracle(vals, n)
    out = goldreich_levin(orc, 0.2, 0.05, np.random.default_rng(2024))
    assert out == [(0, 0.24333620071411133), (45, 0.21926052868366241),
                   (42, 0.2106620818376541), (7, 0.1865864098072052)]
    assert orc.query_count == 8373262
