"""Local refinement: model restriction, Bogolyubov, coset pipeline."""

import math

import numpy as np
import pytest

from f2quad.gf2 import MatF2, SubspaceF2, dot
from f2quad.functions import (CallableOracle, QuadraticAverage, TableOracle,
                              TruthTable, coherent_quadratic_average,
                              correlation_exact, random_boolean_table,
                              random_quadratic_average,
                              random_quadratic_phase, symmetric_split)
from f2quad.fourier import (_gl_tree, derivative_table, exact_u3,
                            goldreich_levin, wht)
from f2quad.bruteforce import SetF2, convolution_power, sumset
from f2quad.bsg import PhiRecord, PhiSampler, bsg_test, choose_bsg_params
from f2quad.model import (ModelMembership, ModelParams, bogolyubov,
                          choose_model_params, find_linear_parts,
                          find_quadratic_average, local_linear_choice,
                          local_symmetrize, model_test, paper_model_scales)
from f2quad.recovery import screen_anchor

PRACTICAL_GL = dict(t_bucket=1536, t_leaf=1024, repeats=1, live_cap=20)
BOG_GL = dict(t_bucket=1 << 15, t_leaf=1 << 15, live_cap=48, noise_floor_z=3.0)


def test_paper_model_scale_formulas():
    from f2quad.model import paper_model_log2_scales
    eps = 0.9
    theta, theta_prime, m = paper_model_scales(eps)
    assert abs(theta_prime - eps ** 2448 / 2.0 ** 487) < 1e-120
    log2_t, log2_tp, m2 = paper_model_log2_scales(eps)
    # exact log-space audit of theta = eps^4912 / (3 * 2^977)
    assert abs(log2_t - (4912 * math.log2(eps) - 977 - math.log2(3.0))) < 1e-9
    assert m == m2 == 2 * math.ceil(-log2_tp)
    # small eps: underflow-safe
    _, _, m_small = paper_model_scales(0.5)
    assert m_small == 2 * math.ceil(487 + 2448)


def test_bogolyubov_subspace_indicator():
    rng = np.random.default_rng(0)
    n = 12
    S = SubspaceF2([int(rng.integers(1, 1 << n)) for _ in range(3)], n)
    while S.codim != 3:
        S = SubspaceF2([int(rng.integers(1, 1 << n)) for _ in range(3)], n)
    h = SetF2.from_subspace(S).indicator_table()
    rho = 1.0 / 8.0
    V = bogolyubov(h.as_oracle(), rho, 0.05, rng, **BOG_GL)
    assert V.is_subspace_of(S)
    conv = convolution_power(h, 4)
    members = V.enumerate_elements().astype(np.int64)
    assert np.all(conv.values[members] > rho ** 4 / 2.0)
    in4a = sumset(SetF2.from_subspace(S), 4)
    assert all(in4a.flags[int(m)] for m in members)


def test_bogolyubov_constant_one():
    rng = np.random.default_rng(1)
    ones = TableOracle(np.ones(1 << 8), 8)
    V = bogolyubov(ones, 0.5, 0.05, rng, **BOG_GL)
    assert V.codim == 0


def test_bogolyubov_dense_random_set():
    rng = np.random.default_rng(2)
    n = 10
    rho = 0.45
    h = SetF2(rng.random(1 << n) < rho, n).indicator_table()
    V = bogolyubov(h.as_oracle(), rho, 0.05, rng, **BOG_GL)
    conv = convolution_power(h, 4)
    members = V.enumerate_elements().astype(np.int64)
    assert np.all(conv.values[members] > rho ** 4 / 2.0)


def phase_context(n, seed, m=1):
    rng = np.random.default_rng(seed)
    q = random_quadratic_phase(n, rng)
    sam = PhiSampler(q.truth_table().as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    params = choose_bsg_params(None, rng, r=12, s=12, t_edge=512)
    u = screen_anchor(sam, params.gamma1, rng)
    model = choose_model_params(n, rng, m=m)
    return q, sam, params, u, model, rng


def test_model_test_degenerate_is_bsg():
    n = 8
    q, sam, params, u, _, rng = phase_context(n, 3, m=0)
    model = ModelParams(MatF2([], n), 0, 0)
    for _ in range(10):
        y = int(rng.integers(0, 1 << n))
        v = sam.vertex(y)
        r1 = np.random.default_rng(77)
        r2 = np.random.default_rng(77)
        assert model_test(sam, u, v, params, model, r1) == \
            bsg_test(sam, u, v, params, r2)


def test_model_test_conjunction():
    n = 8
    q, sam, params, u, model, rng = phase_context(n, 4, m=3)
    accepted = []
    for _ in range(200):
        y = int(rng.integers(0, 1 << n))
        v = sam.vertex(y)
        out = model_test(sam, u, v, params, model, rng)
        if model.gamma_map.mul_vec(v[1]) != model.c:
            assert out == 0  # restriction violated: 0 regardless
        if out == 1:
            accepted.append(v)
    # accepted probes satisfy the restriction exactly
    assert all(model.gamma_map.mul_vec(phiy) == model.c
               for _, phiy in accepted)


def membership_context(decided):
    n = 6
    q, sam, params, u, model, rng = phase_context(n, 4, m=1)
    mem = ModelMembership(sam, u, params, model, rng)
    mem.query_many(np.arange(decided, dtype=np.uint64))
    return mem, rng


def test_membership_decides_in_increasing_order_once():
    mem, _ = membership_context(0)
    order = []
    query = mem.query
    mem.query = lambda x: order.append(int(x)) or query(x)
    xs = np.array([9, 3, 9, 40, 3, 17], dtype=np.uint64)
    got = mem.query_many(xs)
    assert order == [3, 9, 17, 40]
    assert np.array_equal(got, mem._memo[xs.astype(np.int64)].astype(float))
    assert mem.table() is None
    mem.query_many(np.arange(64, dtype=np.uint64))
    assert mem.evaluations == 64 and len(order) == 64
    assert np.array_equal(mem.table(), mem._memo.astype(np.float64))
    mem.query_many(xs)
    assert len(order) == 64  # nothing left to decide


@pytest.mark.parametrize("decided", [0, 40, 64])
def test_membership_goldreich_levin_matches_sampled(decided):
    # a membership hands over its verdicts only once all are decided;
    # until then the sampled path decides the drawn points in increasing
    # order, so the binned path changes no verdict, draw or count
    mem, rng = membership_context(decided)
    ref, rng_ref = membership_context(decided)
    counts = dict(t_bucket=1 << 12, t_leaf=1 << 12, repeats=1, live_cap=48,
                  noise_floor_z=3.0)
    got = goldreich_levin(mem.as_oracle(), 0.1, 0.05, rng, **counts)
    orc = ref.as_oracle()
    want = _gl_tree(orc.query_many, orc.n, 0.1, 0.05, rng_ref, **counts)
    assert got == want
    assert np.array_equal(mem._memo, ref._memo)
    assert mem.evaluations == ref.evaluations == 64
    assert mem.sampler.f.query_count == ref.sampler.f.query_count
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_local_linear_choice_exact_phase():
    n = 9
    q, sam, params, u, model, rng = phase_context(n, 5, m=0)
    B = q.symmetric_matrix()
    lc = local_linear_choice(q.truth_table().as_oracle(), sam, u, params,
                             model, 0.05, rng, bog_gl=BOG_GL)
    assert lc is not None
    for v in lc.V.basis():
        assert lc.T.mul_vec(v) == B.mul_vec(v)
    # the anchored coset validates with full weight
    z_c = lc.T.mul_vec(lc.c1) ^ lc.c2
    tt = q.truth_table()
    total = 0.0
    members = lc.V.enumerate_elements()
    for x in members:
        x = int(x) ^ lc.c1
        spec = wht(derivative_table(tt, x))
        total += spec.coefficient(lc.T.mul_vec(x) ^ z_c) ** 2
    assert total / len(members) > 1.0 - 1e-9


def test_local_linear_choice_zeta_consistency():
    # stored quadruple sums determine the map value uniquely on plants
    n = 9
    q, sam, params, u, model, rng = phase_context(n, 6, m=0)
    mem = ModelMembership(sam, u, params, model, rng)
    probes = rng.integers(0, 1 << n, size=256, dtype=np.uint64)
    mem.query_many(probes)
    acc = [int(a) for a in mem.accepted()]
    assert len(acc) >= 8
    seen = {}
    arng = np.random.default_rng(8)
    for _ in range(300):
        xs = [acc[int(arng.integers(0, len(acc)))] for _ in range(4)]
        y = xs[0] ^ xs[1] ^ xs[2] ^ xs[3]
        zeta = 0
        for x in xs:
            zeta ^= sam.sample(x)
        if y in seen:
            assert seen[y] == zeta
        else:
            seen[y] = zeta


def test_local_linear_choice_planted_average_noiseless():
    # with the model restriction active, the returned subspace sits inside
    # the planted one and the anchored coset carries strong choice mass
    n = 10
    rng = np.random.default_rng(7)
    Qp = random_quadratic_average(n, 2, rng)
    tt = Qp.truth_table()
    orc = tt.as_oracle()
    best = (None, 0.0)
    for trial in range(8):
        trng = np.random.default_rng(70 + trial)
        sam = PhiSampler(orc, 0.15, 0.1, trng, **PRACTICAL_GL)
        params = choose_bsg_params(None, trng, rho=0.45)
        # noiseless core points carry unit coefficients; anchor there
        u = screen_anchor(sam, 0.75, trng)
        if u is None:
            continue
        model = choose_model_params(n, trng, m=2)
        # vote c over edge-accepting points, as the driver does
        from f2quad.bsg import edge_test
        votes, hits, tries = {}, 0, 0
        while hits < 12 and tries < 200:
            tries += 1
            y = int(trng.integers(0, 1 << n))
            rec = sam.record(y)
            if rec.from_list and abs(rec.coeff) >= params.gamma1 and \
                    edge_test(sam, u, (y, rec.alpha), params.gamma1,
                              params.t_edge, trng):
                key = model.gamma_map.mul_vec(rec.alpha)
                votes[key] = votes.get(key, 0) + 1
                hits += 1
        if votes:
            c = max(votes, key=lambda k: (votes[k], -k))
            model = ModelParams(model.gamma_map, c, model.m)
        lc = local_linear_choice(orc, sam, u, params, model, 0.05, trng,
                                 bog_gl=BOG_GL)
        if lc is None or not lc.V.is_subspace_of(Qp.W):
            continue
        z_c = lc.T.mul_vec(lc.c1) ^ lc.c2
        total = 0.0
        members = lc.V.enumerate_elements()
        for x in members:
            x = int(x) ^ lc.c1
            spec = wht(derivative_table(tt, x))
            total += spec.coefficient(lc.T.mul_vec(x) ^ z_c) ** 2
        if total / len(members) > best[1]:
            best = (lc, total / len(members))
        if best[1] >= 0.25:
            break
    assert best[0] is not None and best[1] >= 0.25


def test_local_linear_choice_starvation_bottoms():
    n = 8
    rng = np.random.default_rng(8)
    q = random_quadratic_phase(n, rng)
    sam = PhiSampler(q.truth_table().as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    jrng = np.random.default_rng(1)
    for x in range(1 << n):
        sam.memo[x] = PhiRecord(int(jrng.integers(0, 1 << n)), 0.0, False)
    params = choose_bsg_params(None, rng, r=8, s=8, t_edge=256)
    model = choose_model_params(n, rng, m=0)
    lc = local_linear_choice(q.truth_table().as_oracle(), sam, (0, sam.sample(0)),
                             params, model, 0.05, rng, bog_gl=BOG_GL,
                             draw_cap=2000)
    assert lc is None


def test_local_symmetrize_trivial_case():
    rng = np.random.default_rng(9)
    n = 8
    from f2quad.functions import random_symmetric_zero_diag
    T = random_symmetric_zero_diag(n, rng)
    V = SubspaceF2.full_space(n)
    W, B, c1 = local_symmetrize(V, T, 0, 0, n)
    assert W.dim == n and c1 == 0
    assert B == T


def test_local_symmetrize_exhaustive_small():
    rng = np.random.default_rng(10)
    n = 6
    for _ in range(20):
        T = MatF2.random(n, n, rng)
        V = SubspaceF2([int(rng.integers(1, 1 << n))], n)
        c1 = int(rng.integers(0, 1 << n))
        z_c = int(rng.integers(0, 1 << n))
        W, B, c1_adj = local_symmetrize(V, T, c1, z_c, n)
        S = T + T.transpose()
        # brute force: x in V with Sx perp V and the support condition
        kernel = [x for x in range(1 << n) if V.contains(x)
                  and all(dot(S.mul_vec(x), v) == 0
                          for v in V.enumerate_elements())]
        expect = [x for x in kernel
                  if dot(x ^ c1_adj, T.mul_vec(x ^ c1_adj) ^ z_c)
                  == 0]
        # W members shifted by the adjusted anchor satisfy the support
        # condition; W itself is the brute-force kernel cut by one form
        got = sorted(int(e) for e in W.enumerate_elements())
        u_cut = [x for x in kernel if (x ^ c1_adj ^ c1_adj) in kernel]
        for x in got:
            assert x in kernel
            assert dot(x ^ c1_adj, T.mul_vec(x ^ c1_adj) ^ z_c) == \
                dot(c1_adj, T.mul_vec(c1_adj) ^ z_c)


def test_local_symmetrize_postconditions():
    rng = np.random.default_rng(11)
    n = 8
    for _ in range(50):
        T = MatF2.random(n, n, rng)
        V = SubspaceF2([int(rng.integers(1, 1 << n)) for _ in range(2)], n)
        W, B, _ = local_symmetrize(V, T, int(rng.integers(0, 1 << n)),
                                   int(rng.integers(0, 1 << n)), n)
        assert B.is_symmetric() and B.is_zero_diag()
        assert W.is_subspace_of(V)


def test_find_linear_parts_noiseless_plant():
    rng = np.random.default_rng(12)
    n = 10
    Qp = random_quadratic_average(n, 2, rng)
    tt = Qp.truth_table()
    B = Qp.A + Qp.A.transpose()
    got = find_linear_parts(tt.as_oracle(), Qp.W, Qp.A, B, 0.5, 0.05, rng,
                            gl_kwargs=dict(t_bucket=4096, t_leaf=4096,
                                           repeats=1))
    assert correlation_exact(got.truth_table(), tt) == 1.0
    # per coset the recovered term equals the planted one as a function
    # (the linear part is only determined modulo the annihilator of the
    # coset)
    for y, (l, c) in Qp.coset_terms.items():
        lg, cg = got.coset_terms[y]
        diff = l ^ lg
        assert all(dot(diff, w) == 0 for w in Qp.W.basis())
        assert (c ^ dot(l, y)) == (cg ^ dot(lg, y))


def test_find_linear_parts_codim_zero():
    rng = np.random.default_rng(13)
    n = 9
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    A = symmetric_split(B)
    W = SubspaceF2.full_space(n)
    got = find_linear_parts(q.truth_table().as_oracle(), W, A, B, 0.5, 0.05,
                            rng, gl_kwargs=dict(t_bucket=4096, t_leaf=4096,
                                                repeats=1))
    assert got.complexity == 0
    assert abs(correlation_exact(got.truth_table(), q.truth_table())) == 1.0


def test_find_linear_parts_noisy_plant():
    rng = np.random.default_rng(14)
    n = 10
    Qp = random_quadratic_average(n, 2, rng)
    tt = Qp.truth_table()
    flips = rng.random(1 << n) < 0.2
    tt.values[flips] *= -1.0
    B = Qp.A + Qp.A.transpose()
    got = find_linear_parts(tt.as_oracle(), Qp.W, Qp.A, B, 0.4, 0.05, rng,
                            gl_kwargs=dict(t_bucket=8192, t_leaf=8192,
                                           repeats=1))
    assert correlation_exact(got.truth_table(), tt) >= 0.2


def test_find_linear_parts_sign_resolution():
    # undecided cosets: the kept global sign beats the discarded one
    rng = np.random.default_rng(15)
    n = 8
    f = random_boolean_table(n, rng)  # no coset has a strong character
    W = SubspaceF2([int(rng.integers(1, 1 << n))], n)
    A = MatF2.zeros(n, n)
    B = MatF2.zeros(n, n)
    info = {}
    got = find_linear_parts(f.as_oracle(), W, A, B, 0.9, 0.05, rng,
                            gl_kwargs=dict(t_bucket=1024, t_leaf=1024,
                                           repeats=1), info=info)
    assert info["undecided"], "expected undecided cosets at this sigma"
    ests = info["sign_trial_estimates"]
    assert len(ests) == 2 and ests[0] >= ests[1]


def test_find_linear_parts_refuses_big_codim():
    n = 20
    with pytest.raises(ValueError):
        W = SubspaceF2([1 << i for i in range(17)], n)
        find_linear_parts(TableOracle(np.ones(4), 2), W, MatF2.zeros(n, n),
                          MatF2.zeros(n, n), 0.5, 0.05,
                          np.random.default_rng(0))


def test_find_quadratic_average_exact_phase():
    rng = np.random.default_rng(16)
    q = random_quadratic_phase(8, rng)
    res = find_quadratic_average(q.truth_table().as_oracle(), 0.5, 0.05, rng,
                                 model_m=0)
    assert res is not None
    corr = correlation_exact(res.average.truth_table(), q.truth_table())
    assert corr == 1.0
    assert res.complexity <= 1


def test_find_quadratic_average_planted_small():
    rng = np.random.default_rng(17)
    n = 10
    Qp = coherent_quadratic_average(n, 2, rng)
    tt = Qp.truth_table()
    flips = rng.random(1 << n) < 0.2
    tt.values[flips] *= -1.0
    res = find_quadratic_average(tt.as_oracle(), 0.25, 0.05, rng,
                                 tau_accept=0.12, complexity_cap=4)
    assert res is not None
    corr = correlation_exact(res.average.truth_table(), tt)
    assert corr >= 0.15 and res.complexity <= 4


def test_find_quadratic_average_refuses_dense_memo_dimension():
    def never(xs):
        raise AssertionError("the oracle must not be queried")

    orc = CallableOracle(never, 30)
    with pytest.raises(ValueError, match="n > 24"):
        find_quadratic_average(orc, 0.25, 0.05, np.random.default_rng(0))
    assert orc.query_count == 0


def test_find_quadratic_average_random_bottoms():
    rng = np.random.default_rng(18)
    f = random_boolean_table(10, rng)
    eps = 0.8
    assert exact_u3(f) < 3 * eps / 4  # gate premise
    res = find_quadratic_average(f.as_oracle(), eps, 0.05, rng)
    assert res is None
