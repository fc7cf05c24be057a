"""Truncation loop, Boolean rounding, and the end-to-end decomposition."""

import hashlib
import importlib
import json

import numpy as np
import pytest

from f2quad.functions import (MAX_TABLE_N, QuadraticAverage, TableOracle,
                              TruthTable, coherent_quadratic_average,
                              correlation_exact, estimate_correlation,
                              make_noisy_codeword, rand_points,
                              random_boolean_table, random_quadratic_phase)
from f2quad.fourier import exact_u3
from f2quad.decompose import (Decomposition, RoundedBooleanOracle, decompose,
                              decompose_full, step_inequality_slack)
from f2quad.serialize import average_to_dict, phase_to_dict


def dictionary_finder(candidates, threshold, gamma=0.02, delta=0.01):
    """Estimation-based finder over a fixed candidate list: returns the
    best candidate whose estimated correlation clears the threshold,
    sign-corrected, else None.  Exercises the loop contract without a
    sampling pipeline behind it."""
    def finder(oracle, rng):
        best = None
        for cand in candidates:
            est = estimate_correlation(oracle, cand.as_oracle(), gamma,
                                       delta, rng)
            if abs(est) >= threshold and (best is None or
                                          abs(est) > abs(best[1])):
                best = (cand, est)
        if best is None:
            return None
        cand, est = best
        return cand if est > 0 else cand.negated()
    return finder


def exact_exit_quantities(dec, gv, n, bound):
    xs = np.arange(1 << n, dtype=np.uint64)
    raw = dec.residual_oracle().raw_many(xs)
    f_vals = np.clip(raw, -bound, bound)
    e_vals = raw - f_vals
    recon = dec.reconstruction_many(xs)
    return recon, f_vals, e_vals


def test_rounding_extremes_and_consistency():
    n = 10
    const = TableOracle(np.full(1 << n, 3.0), n, bound=3.0)
    f = RoundedBooleanOracle(const, 3.0, seed=5)
    xs = np.arange(1 << n, dtype=np.uint64)
    assert np.all(f.query_many(xs) == 1.0)
    rng = np.random.default_rng(0)
    g = RoundedBooleanOracle(TableOracle(rng.uniform(-2, 2, 1 << n), n, 2.0),
                             2.0, seed=9)
    v1 = g.query_many(xs)
    for _ in range(5):
        assert np.array_equal(g.query_many(xs), v1)
    one_point = np.full(100, 37, dtype=np.uint64)
    assert len(set(g.query_many(one_point))) == 1


def splitmix_uniform(xs, seed):
    """The rounding draw written out: splitmix64 of x keyed by the seed,
    as a float in [0, 1)."""
    out = []
    for x in xs:
        z = ((int(x) * 0x9E3779B97F4A7C15) % (1 << 64)) ^ seed
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % (1 << 64)
        out.append(float(np.uint64(z ^ (z >> 31))) / float(1 << 64))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 5, 16, 17])
def test_rounding_draw_table_matches_hash(n):
    rng = np.random.default_rng(40 + n)
    f = RoundedBooleanOracle(TableOracle(np.zeros(1 << n), n, 2.0), 2.0,
                             seed=(1 << 62) + n)
    xs = np.concatenate((np.array([0, (1 << n) - 1], dtype=np.uint64),
                         rand_points(rng, n, 200)))
    draws = splitmix_uniform(xs, (1 << 62) + n)
    assert np.array_equal(f._hash_uniform(xs), draws)
    # a zero base rounds to +1 exactly where the draw is below 1/2
    got = f.query_many(xs)
    assert np.array_equal(got, np.where(draws < 0.5, 1.0, -1.0))
    # once 2^n points have been asked for (up to MAX_TABLE_N) the table
    # of rounded values answers, with the same values
    assert (f._table.values is None) == (n > MAX_TABLE_N or xs.size < 1 << n)
    f.query_many(np.arange(1 << n, dtype=np.uint64))
    assert (f._table.values is None) == (n > MAX_TABLE_N)
    assert np.array_equal(f.query_many(xs), got)
    # the draw reads the low n bits only
    stray = xs | (rng.integers(1, 1 << (64 - n), size=xs.size,
                               dtype=np.uint64) << np.uint64(n))
    assert np.array_equal(f._hash_uniform(stray), draws)


def test_rounding_zero_mean():
    n = 14
    zero = TableOracle(np.zeros(1 << n), n, bound=2.0)
    f = RoundedBooleanOracle(zero, 2.0, seed=11)
    rng = np.random.default_rng(1)
    xs = rng.integers(0, 1 << n, size=4096, dtype=np.uint64)
    assert abs(float(np.mean(f.query_many(xs)))) <= 0.05


def test_rounding_bound_check():
    n = 6
    big = TableOracle(np.full(1 << n, 5.0), n, bound=5.0)
    f = RoundedBooleanOracle(big, 2.0, seed=1)
    with pytest.raises(ValueError):
        f.query_many(np.arange(4, dtype=np.uint64))


# settings that are constants where they are read, so no finder takes
# them as knobs
REMOVED_KNOBS = ("phi_gamma", "gate_cap", "anchors_per_sampler", "interval",
                 "int_t_bucket", "bog_noise_z", "sigma", "presample")


@pytest.mark.parametrize("mode, name", [
    pytest.param(mode, name, id=mode + (name and "-" + name))
    for mode in ("phases", "averages") for name in ("",) + REMOVED_KNOBS])
def test_decompose_full_passes_knobs_to_the_finder(mode, name):
    # finder knobs pass through by name; a misspelt one (the bare case)
    # or a removed one is refused
    name = name or "tau_acept"
    g = TableOracle(random_quadratic_phase(4, np.random.default_rng(2))
                    .truth_table().values, 4)
    with pytest.raises(ValueError, match=name):
        decompose_full(g, 0.3, 2.0, 0.05, np.random.default_rng(3), mode=mode,
                       **{name: 0.3})
    assert g.query_count == 0  # refused on entry, before the loop gate


def test_rounding_rejects_nan():
    n = 6
    vals = np.zeros(1 << n)
    vals[9] = np.nan
    f = RoundedBooleanOracle(TableOracle(vals, n, bound=2.0), 2.0, seed=1)
    with pytest.raises(ValueError, match="NaN"):
        f.query_many(np.arange(1 << n, dtype=np.uint64))


def test_decompose_full_rejects_nan_input():
    # a NaN entry is an input error at the first gate stage, not a gate
    # reject after tens of millions of queries
    n = 4
    rng = np.random.default_rng(21)
    vals = 0.5 * (random_quadratic_phase(n, rng).truth_table().values
                  + random_quadratic_phase(n, rng).truth_table().values)
    vals[5] = np.nan
    g = TableOracle(vals, n)
    with pytest.raises(ValueError, match="NaN"):
        decompose_full(g, 0.3, 2.0, 0.05, np.random.default_rng(22))
    assert g.query_count <= 1 << 18


def test_rounding_expectation_tracks_base():
    n = 12
    rng = np.random.default_rng(2)
    vals = rng.uniform(-2, 2, 1 << n)
    base = TableOracle(vals, n, bound=2.0)
    f = RoundedBooleanOracle(base, 2.0, seed=3)
    xs = np.arange(1 << n, dtype=np.uint64)
    got = f.query_many(xs)
    # per-point expectation is vals/B; check in coarse buckets
    order = np.argsort(vals)
    for chunk in np.array_split(order, 8):
        assert abs(float(np.mean(got[chunk]))
                   - float(np.mean(vals[chunk])) / 2.0) < 0.15


def test_decompose_two_phase_mix_contract():
    # the desk-scale loop contract: reconstruction, k, l1, residual norm
    rng = np.random.default_rng(3)
    n = 10
    q1 = random_quadratic_phase(n, rng)
    q2 = random_quadratic_phase(n, rng)
    gv = 0.5 * q1.truth_table().values + 0.5 * q2.truth_table().values
    g = TableOracle(gv, n, bound=1.0)
    dec = decompose(g, 0.3, 2.0, 0.05,
                    dictionary_finder([q1, q2], 0.3), rng, eta=0.5)
    assert 1 <= dec.k <= 4
    recon, f_vals, e_vals = exact_exit_quantities(dec, gv, n, 2.0)
    assert np.max(np.abs(recon - gv)) <= 1e-9
    assert float(np.mean(np.abs(e_vals))) <= 1.0 / (2 * 2.0)
    assert exact_u3(TruthTable(f_vals, n)) <= 0.3
    assert all(abs(c) <= 1.0 for c, _ in dec.terms)


def test_decompose_potential_monotonicity():
    rng = np.random.default_rng(4)
    n = 10
    q1 = random_quadratic_phase(n, rng)
    q2 = random_quadratic_phase(n, rng)
    gv = 0.5 * q1.truth_table().values + 0.5 * q2.truth_table().values
    g = TableOracle(gv, n, bound=1.0)
    eta = 0.5
    dec = decompose(g, 0.3, 2.0, 0.05,
                    dictionary_finder([q1, q2], 0.3), rng, eta=eta)
    xs = np.arange(1 << n, dtype=np.uint64)
    h = gv.copy()
    potential = float(np.mean(np.clip(h, -2, 2) ** 2))
    for coeff, obj in dec.terms:
        f_t = np.clip(h, -2, 2)
        h_next = h - coeff * obj.eval_many(xs)
        f_next = np.clip(h_next, -2, 2)
        slack = step_inequality_slack(f_t, f_next, h, h_next,
                                      obj.eval_many(xs), coeff)
        assert float(slack.min()) >= -1e-12  # pointwise step inequality
        d_t = float(np.mean(f_t * (h - f_t)))
        d_next = float(np.mean(f_next * (h_next - f_next)))
        pot_t = float(np.mean(f_t ** 2)) + 2 * abs(d_t)
        pot_next = float(np.mean(f_next ** 2)) + 2 * abs(d_next)
        # each accepted step lowers the potential by at least eta^2 when
        # the finder's correlation promise holds (it does, by validation)
        assert pot_next <= pot_t - coeff ** 2 + 1e-9
        h = h_next
    # aggregate: k eta^2 + ||f_k||_2^2 + 2||Delta_k||_1 <= 1
    f_k = np.clip(h, -2, 2)
    delta_k = float(np.mean(np.abs(f_k * (h - f_k))))
    agg = sum(c * c for c, _ in dec.terms) + float(np.mean(f_k ** 2)) \
        + 2 * delta_k
    assert agg <= 1.0 + 1e-9


def test_decompose_low_norm_input_no_terms():
    # exact U^3 below the gate: the loop never subtracts anything
    rng = np.random.default_rng(5)
    n = 12
    g_tt = random_boolean_table(n, rng)
    eps = 0.7
    assert exact_u3(g_tt) < 3 * eps / 4  # premise via the exact oracle
    calls = dict(n=0)

    def never_called(oracle, rng_):
        calls["n"] += 1
        return None

    dec = decompose(g_tt.as_oracle(), eps, 2.0, 0.05, never_called, rng)
    assert dec.k == 0 and calls["n"] == 0
    xs = np.arange(1 << n, dtype=np.uint64)
    raw = dec.residual_oracle().raw_many(xs)
    assert np.array_equal(raw, g_tt.values)  # f = g, e = 0


def test_decompose_finder_bottom_is_exit():
    rng = np.random.default_rng(6)
    n = 10
    q = random_quadratic_phase(n, rng)
    g = q.truth_table().as_oracle()
    dec = decompose(g, 0.3, 2.0, 0.05, lambda o, r: None, rng)
    assert dec.k == 0
    assert any("finder=bottom" in ln for ln in dec.steps_log)


def test_decompose_k_cap_forced():
    # a finder that always returns a fresh random phase cannot loop past
    # ceil(1/eta^2) steps
    rng = np.random.default_rng(7)
    n = 8
    g = random_quadratic_phase(n, rng).truth_table().as_oracle()

    def stubborn(oracle, rng_):
        return random_quadratic_phase(n, rng_)

    dec = decompose(g, 0.05, 2.0, 0.05, stubborn, rng, eta=0.5)
    assert dec.k <= 4


def test_decompose_full_exact_phase_measured():
    rng = np.random.default_rng(8)
    n = 10
    q = random_quadratic_phase(n, rng)
    g = TableOracle(q.truth_table().values, n, bound=1.0)
    dec = decompose_full(g, 0.3, 2.0, 0.1, rng, mode="phases",
                         coefficient_mode="measured", tau_accept=0.3,
                         m_attempts=24)
    direction = sum(c for c, obj in dec.terms
                    if obj == q or obj == q.negated())
    assert direction >= 0.5
    xs = np.arange(1 << n, dtype=np.uint64)
    f_vals = np.clip(dec.residual_oracle().raw_many(xs), -2.0, 2.0)
    assert exact_u3(TruthTable(f_vals, n)) < 0.3
    assert any("non-standard" in ln for ln in dec.steps_log)


def test_decompose_full_delta_budget_logged(monkeypatch):
    # every finder call receives an equal share delta / (k_max + 1)
    decompose_mod = importlib.import_module("f2quad.decompose")
    calls = []
    real = decompose_mod.find_quadratic

    def spy(f, epsilon, delta, rng, **knobs):
        calls.append(delta)
        return real(f, epsilon, delta, rng, **knobs)

    monkeypatch.setattr(decompose_mod, "find_quadratic", spy)
    rng = np.random.default_rng(9)
    n = 8
    q = random_quadratic_phase(n, rng)
    g = TableOracle(q.truth_table().values, n, bound=1.0)
    decompose_full(g, 0.3, 2.0, 0.1, rng, mode="phases",
                   coefficient_mode="measured", tau_accept=0.3)
    k_max = 4
    assert 1 <= len(calls) <= k_max + 1
    assert all(d == 0.1 / (k_max + 1) for d in calls)


def decomposition_digest(dec):
    terms = [[coeff, average_to_dict(obj) if isinstance(obj, QuadraticAverage)
              else phase_to_dict(obj)] for coeff, obj in dec.terms]
    blob = json.dumps([terms, dec.steps_log, dec.residual_u3_estimate,
                       dec.e_l1_estimate], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("mode, seed, queries, digest", [
    ("phases", 1, 29574760, "5ee00fb97a65298c"),
    ("phases", 2, 20301416, "0bd4811de1248a72"),
    ("phases", 3, 72443496, "f99a9e136b584e33"),
    ("averages", 1, 60271464, "c7ae967e97161dd0"),
    ("averages", 2, 46697320, "766a54608b04b78b"),
])
def test_decompose_full_seeded_counts_pinned(mode, seed, queries, digest):
    # pinned before the residual and rounding oracles served their values
    # from tables: the root's query count and every term, estimate and
    # log line stay as they were; phases on the n=4 two-phase mixture,
    # averages on a coherent codim-2 average at n=6
    rng = np.random.default_rng(seed)
    if mode == "phases":
        n = 4
        vals = 0.5 * (random_quadratic_phase(n, rng).truth_table().values
                      + random_quadratic_phase(n, rng).truth_table().values)
    else:
        n = 6
        vals = coherent_quadratic_average(n, 2, rng).truth_table().values
    g = TableOracle(vals, n)
    dec = decompose_full(g, 0.3, 2.0, 0.05, rng, mode=mode)
    assert dec.k == 4
    assert g.query_count == queries
    assert decomposition_digest(dec) == digest
