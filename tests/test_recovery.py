"""Global quadratic-phase recovery pipeline."""

import hashlib
from inspect import signature
import zlib

import numpy as np
import pytest

from f2quad.gf2 import MatF2, SubspaceF2, dot
from f2quad.functions import (QuadraticPhase, TableOracle, correlation_exact,
                              coherent_quadratic_average, make_noisy_codeword,
                              random_boolean_table, random_quadratic_phase,
                              random_symmetric_zero_diag)
from f2quad.fourier import derivative_table, exact_u3, wht
from f2quad.bsg import PhiRecord, PhiSampler, choose_bsg_params
from f2quad.model import find_quadratic_average
from f2quad import bsg, fourier, recovery
from f2quad.recovery import (find_linear_map, find_quadratic, integrate,
                             practical_query_budget, screen_anchor, symmetrize)

PRACTICAL_GL = dict(t_bucket=1536, t_leaf=1024, repeats=1, live_cap=20)


def exact_choice_quality(tt, T):
    """E_x f_hat_x^2(Tx), exactly, via one transform per derivative."""
    total = 0.0
    m = 1 << tt.n
    for x in range(m):
        spec = wht(derivative_table(tt, x))
        total += spec.coefficient(T.mul_vec(x)) ** 2
    return total / m


def test_find_linear_map_exact_phase():
    rng = np.random.default_rng(0)
    n = 10
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    sam = PhiSampler(q.as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    params = choose_bsg_params(None, rng, r=12, s=12, t_edge=512)
    lm = find_linear_map(sam, params, rng)
    assert lm is not None
    assert lm.T == B  # full-rank span forces T = M + M^T everywhere
    assert exact_choice_quality(q.truth_table(), lm.T) > 1.0 - 1e-9


def test_find_linear_map_adversarial_sampler_bottoms():
    rng = np.random.default_rng(1)
    n = 8
    q = random_quadratic_phase(n, rng)
    sam = PhiSampler(q.as_oracle(), 0.15, 0.1, rng, **PRACTICAL_GL)
    # junk choice table: nothing can pass the additivity check reliably
    jrng = np.random.default_rng(99)
    for x in range(1 << n):
        sam.memo[x] = PhiRecord(int(jrng.integers(0, 1 << n)), 0.0, False)
    params = choose_bsg_params(None, rng, r=8, s=8, t_edge=256)
    assert find_linear_map(sam, params, rng, warmup=400) is None


def test_find_linear_map_noisy_quality():
    rng = np.random.default_rng(2)
    n = 10
    q = random_quadratic_phase(n, rng)
    nz = make_noisy_codeword(q, 0.3, rng)
    got = 0.0
    for trial in range(6):
        trng = np.random.default_rng(40 + trial)
        sam = PhiSampler(nz.as_oracle(), 0.15, 0.1, trng, **PRACTICAL_GL)
        params = choose_bsg_params(None, trng)
        lm = find_linear_map(sam, params, trng)
        if lm is not None:
            got = max(got, exact_choice_quality(nz, lm.T))
            if got >= 0.05:
                break
    assert got >= 0.05


def test_shift_dominance():
    # E_x f_hat_x^2(Tx + y) never beats y = 0 on phase-derived functions
    rng = np.random.default_rng(3)
    n = 6
    q = random_quadratic_phase(n, rng)
    tt = q.truth_table()
    specs = [wht(derivative_table(tt, x)) for x in range(1 << n)]

    def quality(T, y):
        return sum(s.coefficient(T.mul_vec(x) ^ y) ** 2
                   for x, s in enumerate(specs)) / (1 << n)

    for _ in range(20):
        T = MatF2.random(n, n, rng)
        y = int(rng.integers(1, 1 << n))
        assert quality(T, y) <= quality(T, 0) + 1e-12


def test_symmetrize_symmetric_input_is_identity():
    rng = np.random.default_rng(4)
    B = random_symmetric_zero_diag(8, rng)
    W, out = symmetrize(B)
    assert W.dim == 8  # whole space
    assert out == B


def test_symmetrize_exhaustive_small():
    # W equals the brute-force kernel-and-diagonal-fix set
    rng = np.random.default_rng(5)
    n = 4
    for _ in range(20):
        T = MatF2.random(n, n, rng)
        W, B = symmetrize(T)
        S = T + T.transpose()
        brute = [x for x in range(1 << n)
                 if S.mul_vec(x) == 0 and dot(x, T.mul_vec(x)) == 0]
        members = sorted(int(e) for e in W.enumerate_elements())
        assert members == sorted(brute)
        # B agrees with T as a map on W whenever the exact extension exists
        assert B.is_symmetric() and B.is_zero_diag()


def test_symmetrize_postcondition_always():
    rng = np.random.default_rng(6)
    for _ in range(50):
        T = MatF2.random(8, 8, rng)
        W, B = symmetrize(T)
        assert B.is_symmetric()
        assert B.is_zero_diag()
        for w in W.basis():
            assert B.mul_vec(w) == T.mul_vec(w)


def test_integrate_exact_and_sign():
    rng = np.random.default_rng(7)
    n = 9
    q = random_quadratic_phase(n, rng)
    B = q.symmetric_matrix()
    got = integrate(q.as_oracle(), B, 0.5, 0.05, rng,
                    gl_kwargs=dict(t_bucket=2048, t_leaf=2048, repeats=1))
    assert got == q
    neg = QuadraticPhase(q.M, q.alpha, q.c ^ 1, n)
    got2 = integrate(neg.as_oracle(), B, 0.5, 0.05, rng,
                     gl_kwargs=dict(t_bucket=2048, t_leaf=2048, repeats=1))
    assert got2 == neg


def test_integrate_noisy_coefficient_bound():
    rng = np.random.default_rng(8)
    n = 10
    q = random_quadratic_phase(n, rng)
    nz = make_noisy_codeword(q, 0.3, rng)
    B = q.symmetric_matrix()
    got = integrate(nz.as_oracle(), B, 0.2, 0.05, rng,
                    gl_kwargs=dict(t_bucket=8192, t_leaf=8192, repeats=1))
    assert got is not None
    corr = correlation_exact(got.truth_table(), nz)
    assert corr >= 0.2 - 0.1  # estimated coefficient minus gamma/2


def test_find_quadratic_exact_first_attempt():
    rng = np.random.default_rng(9)
    q = random_quadratic_phase(8, rng)
    res = find_quadratic(q.truth_table().as_oracle(), 0.5, 0.05, rng)
    assert res is not None and res.attempts == 1
    assert res.phase == q
    assert res.correlation_estimate >= 0.05  # accept-branch audit


def test_find_quadratic_random_table_bottoms_via_gate():
    # premise verified with the exact norm: 3 eps/4 clears the random floor
    hits = 0
    for trial in range(5):
        rng = np.random.default_rng(600 + trial)
        f = random_boolean_table(12, rng)
        eps = 0.7
        assert exact_u3(f) < 3 * eps / 4
        res = find_quadratic(f.as_oracle(), eps, 0.05, rng)
        hits += res is None
    assert hits >= 4


def test_find_quadratic_noisy_small():
    rng = np.random.default_rng(10)
    n = 10
    q = random_quadratic_phase(n, rng)
    nz = make_noisy_codeword(q, 0.25, rng)
    res = find_quadratic(nz.as_oracle(), 0.25, 0.05, rng, tau_accept=0.12)
    assert res is not None
    corr = correlation_exact(res.phase.truth_table(), nz)
    assert corr >= 0.1
    assert res.correlation_estimate >= 0.12


@pytest.mark.parametrize("n, attempts, overrides, budget", [
    (6, 1, {}, 18097878000),
    (8, 3, {}, 70611395024),
    (10, 1, {}, 73968647664),
    (8, 2, dict(epsilon=0.25, r=12, k_cap=128), 16300915680),
])
def test_practical_query_budget_pinned(n, attempts, overrides, budget):
    # the budget reads the settings that are constants where they are
    # used; a changed constant moves it
    assert practical_query_budget(n, attempts, **overrides) == budget


def test_query_budget_reads_its_owners_defaults(monkeypatch):
    # each default the budget counts is a named constant its owner also
    # uses: the owner's default is that constant, and the budget moves
    # when the constant does
    params = choose_bsg_params(0.1, np.random.default_rng(0))
    assert (params.r, params.s, params.t_edge) == \
        (bsg.PRACTICAL_R, bsg.PRACTICAL_S, bsg.PRACTICAL_T_EDGE)
    assert signature(screen_anchor).parameters["max_tries"].default \
        == recovery.SCREEN_TRIES
    assert signature(fourier.u3_power_gate).parameters["t_cap"].default \
        == fourier.GATE_T_CAP == recovery.GATE_T_CAP
    base = practical_query_budget(8, 1)
    for name in ("PRACTICAL_R", "PRACTICAL_S", "PRACTICAL_T_EDGE",
                 "SCREEN_TRIES", "GATE_T_CAP"):
        with monkeypatch.context() as m:
            m.setattr(recovery, name, getattr(recovery, name) + 1)
            assert practical_query_budget(8, 1) > base, name
    # find_linear_map draws at most linear_map_cap(n) points by default
    rng = np.random.default_rng(3)
    q = random_quadratic_phase(6, rng)
    sampler = PhiSampler(q.truth_table().as_oracle(), 0.15, 0.1, rng,
                         **PRACTICAL_GL)
    params = choose_bsg_params(None, rng, r=4, s=4, t_edge=256)
    with monkeypatch.context() as m:
        m.setattr(recovery, "linear_map_cap", lambda n: 9)
        assert practical_query_budget(8, 1) < base
        lm = find_linear_map(sampler, params, rng, t_min=1)
    assert lm is not None and lm.sampled <= 9


def test_query_budget_audit():
    rng = np.random.default_rng(11)
    q = random_quadratic_phase(8, rng)
    orc = q.truth_table().as_oracle()
    res = find_quadratic(orc, 0.5, 0.05, rng)
    assert res is not None
    assert res.queries <= practical_query_budget(8, res.attempts)


def test_validation_threshold_is_respected():
    # returned estimates always clear tau_accept, even when raised
    rng = np.random.default_rng(12)
    q = random_quadratic_phase(8, rng)
    res = find_quadratic(q.truth_table().as_oracle(), 0.5, 0.05, rng,
                         tau_accept=0.9)
    assert res is None or res.correlation_estimate >= 0.9


def test_all_accepted_harvest_does_not_stop_below_rank_n():
    # fq-callable-n7 instance (702, 35): every draw of the harvest is
    # accepted, and eight in a row land in one hyperplane at rank 6 of 7;
    # stopping there completed the basis with an invented column and
    # returned a phase off by a rank-2 form (exact correlation 0.5)
    ss = np.random.SeedSequence(702, spawn_key=(zlib.crc32(b"fq-callable-n7"), 35))
    plant, solve = ss.spawn(2)
    q = random_quadratic_phase(7, np.random.default_rng(plant))
    res = find_quadratic(q.as_oracle(), 0.5, 0.05, np.random.default_rng(solve),
                         tau_accept=0.05)
    assert res is not None and res.phase == q


# settings that are constants where they are read, so no finder takes
# them as knobs
REMOVED_KNOBS = ("phi_gamma", "gate_cap", "anchors_per_sampler", "interval",
                 "int_t_bucket", "bog_noise_z", "sigma", "presample")


@pytest.mark.parametrize("finder, name", [
    pytest.param(finder, name, id=finder.__name__ + (name and "-" + name))
    for finder in (find_quadratic, find_quadratic_average)
    for name in ("",) + REMOVED_KNOBS])
def test_unknown_knob_is_refused_before_any_query(finder, name):
    # the bare case is a misspelt knob
    name = name or "tau_acept"
    q = random_quadratic_phase(5, np.random.default_rng(13))
    orc = q.as_oracle()
    with pytest.raises(ValueError, match=name):
        finder(orc, 0.5, 0.05, np.random.default_rng(0), **{name: 0.99})
    assert orc.query_count == 0


def test_find_quadratic_takes_linear_map_knobs():
    # t_min and k_cap size find_linear_map; the averages finder has no
    # linear-map harvest and refuses them
    q = random_quadratic_phase(5, np.random.default_rng(13))
    res = find_quadratic(q.as_oracle(), 0.5, 0.05, np.random.default_rng(1),
                         t_min=6, k_cap=128)
    assert res is not None and res.phase == q
    with pytest.raises(ValueError, match="k_cap"):
        find_quadratic_average(q.as_oracle(), 0.5, 0.05,
                               np.random.default_rng(1), k_cap=128)
    with pytest.raises(ValueError, match="bogus"):
        practical_query_budget(8, 1, bogus=1)


def finder_fingerprints(kind: str, seeds) -> str:
    """Digest of (truth table, estimate, attempts, queries) per seed."""
    h = hashlib.sha256()
    for s in seeds:
        rng = np.random.default_rng(s)
        if kind == "noisy-n6":
            # a bar of 0.3 fails some validated attempts, so later ones
            # propose both the pool's map and their own
            nz = make_noisy_codeword(random_quadratic_phase(6, rng), 0.25, rng)
            res = find_quadratic(nz.as_oracle(), 0.25, 0.05, rng, tau_accept=0.3)
            obj = res and res.phase
        elif kind == "callable-n7":
            q = random_quadratic_phase(7, rng)
            res = find_quadratic(q.as_oracle(), 0.5, 0.05, rng)
            obj = res and res.phase
        else:
            Q = coherent_quadratic_average(6, 2, rng)
            tt = Q.truth_table()
            tt.values[rng.random(64) < 0.2] *= -1.0
            res = find_quadratic_average(tt.as_oracle(), 0.25, 0.05, rng,
                                         tau_accept=0.12, complexity_cap=4)
            obj = res and res.average
        if res is None:
            h.update(b"bottom")
            continue
        h.update(obj.truth_table().values.tobytes())
        h.update(f"{res.correlation_estimate!r} {res.attempts} "
                 f"{res.queries}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind, seeds, digest", [
    # 13, 7, 3 and 3 attempts: the sampler rotates every 6
    ("noisy-n6", (1008, 1011, 1014, 1018),
     "a77ff44b2c15d9e58f435bc48caada9f06c378d309af7bbd7cae1cf9076a5dde"),
    ("callable-n7", (1000, 1001, 1002, 1003),
     "698aa307faf58a0c435649c252e9e7c9b1932fa42f5ce2287d770aad68289333"),
    # 9, 11, 20 and 13 attempts: the sampler rotates every 4
    ("codim2-average-n6", (1005, 1008, 1041, 1057),
     "2485b4b7be8d84eddb1aab4bf231c62d82a24c98efd831765e160809ba958220"),
])
def test_finders_seeded_output_pinned(kind, seeds, digest):
    # pinned before both finders shared one attempt loop: any change of
    # the rng order (propose, validate, redraw) moves some digest
    assert finder_fingerprints(kind, seeds) == digest
