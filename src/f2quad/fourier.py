"""Walsh-Hadamard analysis over F_2^n.

Exact transform and uniformity norms for truth tables, plus the two
sampling workhorses: the U^3 estimator (average of 8-point products
over random 3-dimensional parallelepipeds) and the Goldreich-Levin
linear decomposition, implemented as the prefix-bucket estimation tree
(estimate the squared Fourier weight of each bucket of characters by
pair sampling and recurse on buckets whose estimated weight clears
gamma^2/2).  Both are available globally and relative to a subspace.
Every Goldreich-Levin estimate is a signed mean of samples against a
set of masks (`_signed_means`); the sampled words lie below 2^level
(buckets) or 2^n (leaves), so when there are at least as many samples
as words the samples are first summed per word and the parity matrix
spans the words, not the samples.

When the oracle hands over a ``unit_table`` (all 2^n values, each -1, 0
or 1; n <= 16) and the cells a draw falls in number no more than the
sample count t (2^(n+level) pairs for a bucket level, 2^n points for the
leaves), the draws are instead binned into those cells with one
np.bincount and each cell's count multiplies the table's value there.
The draws, their order and the queries charged are those of the sampled
path, and on such a table every per-word sum is an exact integer below
2^24, so the float32 arithmetic that follows gives bit-identical
estimates; the noise floor's standard deviation is taken from the same
per-sample values, gathered from the cells.  The binned path allocates
no array larger than the t-entry sample arrays it replaces.  The
sampled path stays the reference and serves everything else: subspace
Goldreich-Levin, real-valued or NaN-holding tables, the levels where
2^(n+level) > t, and n > 16.

The U^3 estimator draws its parallelepipeds 2^20 at a time, into four
uint64 arrays plus one float64 product array (about 40 MB), and
evaluates them in blocks of 2^12, one oracle call per block.  Like
``query_product``, it assumes a pointwise oracle.

Conventions: f_hat(alpha) = E_x f(x) (-1)^(<alpha, x>); the butterfly
is unnormalized, so applying it twice yields 2^n f.  Exact-arithmetic
comparisons should use absolute tolerance 1e-9 (exact routines only
add +-1 values scaled by powers of two).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .gf2 import SubspaceF2, combine_many, solve_linear_system
from .functions import (FunctionOracle, TruthTable, hoeffding_samples,
                        query_product, rand_points, unit_table)

EXACT_TOL = 1e-9
U3_EXACT_MAX_N = 14
U3_DRAW_CHUNK = 1 << 20  # parallelepipeds per draw; part of the rng stream
U3_BLOCK = 1 << 12  # parallelepipeds per oracle call: 8 x 32 KB of points
LinearTermList = list  # [(alpha, coeff)], alphas distinct
_EXACT_DTYPES = (np.dtype(np.int64), np.dtype(object))


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized butterfly along the last axis, on a copy; O(n 2^n).

    int64 and object (Python int) inputs keep their dtype, so integer
    transforms stay exact; every other input is computed in float64.
    """
    a = np.asarray(values)
    a = np.array(a, dtype=a.dtype if a.dtype in _EXACT_DTYPES else np.float64,
                 copy=True)
    m = a.shape[-1]
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    lead = a.shape[:-1]
    h = 1
    while h < m:
        a = a.reshape(lead + (-1, 2, h))
        lo = a[..., 0, :].copy()
        hi = a[..., 1, :]
        a[..., 0, :] = lo + hi
        a[..., 1, :] = lo - hi
        a = a.reshape(lead + (m,))
        h <<= 1
    return a


@dataclass(frozen=True)
class FourierSpectrum:
    """Dense spectrum: coefficients[alpha] = f_hat(alpha)."""

    n: int
    coefficients: np.ndarray

    def parseval_sum(self) -> float:
        return float(np.sum(self.coefficients ** 2))

    def coefficient(self, alpha: int) -> float:
        return float(self.coefficients[alpha])

    def above(self, gamma: float) -> list[tuple[int, float]]:
        idx = np.flatnonzero(np.abs(self.coefficients) >= gamma)
        out = [(int(a), float(self.coefficients[a])) for a in idx]
        out.sort(key=lambda t: (-abs(t[1]), t[0]))
        return out


def wht(f: TruthTable) -> FourierSpectrum:
    """Full spectrum f_hat(alpha) = E_x f(x) (-1)^(<alpha,x>)."""
    return FourierSpectrum(f.n, fwht(f.values) / (1 << f.n))


def spectrum_to_table(spec: FourierSpectrum) -> TruthTable:
    """Inverse transform: f(x) = sum_alpha f_hat(alpha) (-1)^(<alpha,x>)."""
    return TruthTable(fwht(spec.coefficients), spec.n)


def derivative_table(f: TruthTable, x: int) -> TruthTable:
    idx = np.arange(1 << f.n, dtype=np.uint64)
    return TruthTable(f.values * f.values[idx ^ np.uint64(x)], f.n)


def exact_u2(f: TruthTable) -> float:
    """U^2 norm as the l4 norm of the spectrum."""
    c = wht(f).coefficients
    return float(np.sum(c ** 4) ** 0.25)


def exact_u3(f: TruthTable) -> float:
    """U^3 via the inductive route: ||f||_{U3}^8 = E_x ||f_x||_{U2}^4.

    Cost ~ n 4^n (one transform per derivative, processed in blocks).
    """
    if f.n > U3_EXACT_MAX_N:
        raise ValueError(f"exact U^3 refuses n > {U3_EXACT_MAX_N}")
    m = 1 << f.n
    idx = np.arange(m, dtype=np.uint64)
    total = 0.0
    block = max(1, (1 << 22) // m)
    for start in range(0, m, block):
        xs = np.arange(start, min(start + block, m), dtype=np.uint64)
        derivs = f.values[np.newaxis, :] * f.values[xs[:, None] ^ idx[None, :]]
        spec = fwht(derivs) / m
        total += float(np.sum(spec ** 4))
    return (total / m) ** 0.125


def exact_u_norm(f: TruthTable, k: int) -> float:
    if k == 2:
        return exact_u2(f)
    if k == 3:
        return exact_u3(f)
    raise ValueError("only k in {2, 3} supported")


def u3_sample_count(gamma: float, delta: float, norm_floor: float = 0.45) -> int:
    """Parallelepiped samples for |estimate - U^3| <= gamma at 1 - delta.

    The mean of 8-point products is the eighth power of the norm, so an
    additive guarantee on the norm itself costs a derivative factor:
    near a norm value u the root map stretches errors by 1/(8 u^7).
    The count is the plain Hoeffding count at accuracy
    gamma_8 = 8 * norm_floor^7 * gamma, valid whenever the true norm is
    at least norm_floor.  Below the floor no sampling budget can give an
    additive-gamma handle on the root (its derivative diverges at 0).
    """
    gamma8 = 8.0 * norm_floor ** 7 * gamma
    return hoeffding_samples(min(gamma8, 0.999), delta)


def u3_power_mean(f: FunctionOracle, t: int, rng) -> float:
    """Mean of t products of f over random 3-dimensional parallelepipeds
    {x + w . h : w in {0,1}^3}; 8t queries of a pointwise oracle.

    The parallelepipeds are drawn U3_DRAW_CHUNK at a time (x, h1, h2, h3
    in that order, which fixes the rng stream) and evaluated U3_BLOCK at
    a time: the 8 corner sets of a block go to the oracle in one call on
    an (8, m) array, and the corner values are multiplied into the
    chunk's product array in the order w = 0..7, so the mean is the same
    float whatever the block size.  Raises ValueError when a chunk's
    products sum to NaN.
    """
    if t < 1:
        raise ValueError(f"U^3 sample count must be at least 1, got {t}")
    total = 0.0
    done = 0
    while done < t:
        b = min(U3_DRAW_CHUNK, t - done)
        x = rand_points(rng, f.n, b)
        h1 = rand_points(rng, f.n, b)
        h2 = rand_points(rng, f.n, b)
        h3 = rand_points(rng, f.n, b)
        prod = np.empty(b, dtype=np.float64)
        for lo in range(0, b, U3_BLOCK):
            hi = min(lo + U3_BLOCK, b)
            pts = np.empty((2, 2, 2, hi - lo), dtype=np.uint64)  # [w2, w1, w0]
            pts[...] = x[lo:hi]
            pts[:, :, 1] ^= h1[lo:hi]
            pts[:, 1] ^= h2[lo:hi]
            pts[1] ^= h3[lo:hi]
            vals = f.query_many(pts.reshape(-1)).reshape(8, -1)
            p = prod[lo:hi]
            p[...] = vals[0]
            for w in range(1, 8):
                p *= vals[w]
        s = float(np.sum(prod))
        if math.isnan(s):
            raise ValueError("the oracle returned NaN on a U^3 sample")
        total += s
        done += b
    return total / t


def estimate_u3(f: FunctionOracle, gamma: float, delta: float, rng, *,
                samples: int | None = None, norm_floor: float = 0.45) -> float:
    """Sampled U^3: estimate the eighth-power mean, clamp at zero, take
    the eighth root.  Monotonicity of the root turns the two-sided
    Hoeffding guarantee on the mean into one on the norm (with the
    adjusted constant from u3_sample_count).  Query count is exactly
    8 * t for t samples."""
    t = samples if samples is not None else u3_sample_count(gamma, delta, norm_floor)
    mean = u3_power_mean(f, t, rng)
    return max(mean, 0.0) ** 0.125


GATE_T_CAP = 1 << 26  # the gate's default cap on parallelepiped samples


def u3_power_gate(f: FunctionOracle, threshold_norm: float, rng, *,
                  t_start: int = 1 << 14, t_cap: int = GATE_T_CAP,
                  margin_z: float = 4.0) -> bool:
    """Sequential test of ||f||_{U3}^8 >= threshold_norm^8.

    Doubles the sample count until the estimate clears the threshold by
    margin_z standard errors on either side; at the cap it compares
    outright.  Resolving the eighth power rather than the norm is what
    makes the reject side of the gate meaningful for desk dimensions.
    """
    if t_start < 1 or t_cap < 1:
        raise ValueError(f"U^3 gate sample counts must be at least 1, got "
                         f"t_start={t_start}, t_cap={t_cap}")
    tau8 = threshold_norm ** 8
    total = 0.0
    t_done = 0
    t_next = t_start
    while True:
        batch = t_next - t_done
        total += u3_power_mean(f, batch, rng) * batch
        t_done = t_next
        if total == 0.0 and \
                not np.any(f.query_many(rand_points(rng, f.n, 1 << 12))):
            return False  # residual vanishes on every probe
        mean = total / t_done
        se = 1.0 / math.sqrt(t_done)
        if mean >= tau8 + margin_z * se:
            return True
        if mean <= tau8 - margin_z * se:
            return False
        if t_done >= t_cap:
            return mean >= tau8
        t_next = min(2 * t_done, t_cap)


# -- Goldreich-Levin -----------------------------------------------------------

MAX_GL_SAMPLES = 1 << 24  # _signed_means is exact below this many samples


def _parities(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """(-1)^<word, mask> as the float32 bit <word, mask>, words x masks."""
    return (np.bitwise_count(words[:, None] & masks[None, :])
            & np.uint8(1)).astype(np.float32)


def _word_means(mean32, sums: np.ndarray, masks: np.ndarray,
                t: int) -> np.ndarray:
    """The signed means of t samples from their float32 mean and the
    float64 sum of the samples at each word 0 .. len(sums) - 1."""
    words = np.arange(len(sums), dtype=np.uint64)
    return (mean32 - 2.0 * (sums.astype(np.float32) @ _parities(words, masks))
            / t).astype(np.float64)


def _binned_mean32(total: float, t: int):
    """The float32 mean numpy takes of t float32 samples whose sum is the
    exact integer `total`: numpy divides the float32 sum by an intp
    count, in float64, and rounds the quotient to float32."""
    return np.float32(total / t)


def _signed_means(vals: np.ndarray, words: np.ndarray, masks: np.ndarray,
                  bits: int) -> np.ndarray:
    """mean_t vals[t] * (-1)^(<words[t], masks[j]>) for every mask j, with
    every word below 2^bits, as one parity matrix and one BLAS product.

    With S_j the sum of the samples of odd parity against mask j, the
    mean is mean(vals) - 2 S_j / t.  When 2^bits <= t the samples that
    share a word are summed first (np.bincount, in float64), and the
    parity matrix spans the 2^bits distinct words instead of the t
    samples, so it never exceeds min(t, 2^bits) x len(masks) entries.
    Integer-valued samples (+-1 or 0/1) give exact S_j on both paths
    while t < 2^24, and the final float32 arithmetic is shared, so the
    estimates are bit-identical to the per-sample product.
    """
    t = len(vals)
    v32 = vals.astype(np.float32)
    if (1 << bits) <= t:
        sums = np.bincount(words.astype(np.intp), weights=vals,
                           minlength=1 << bits)
        return _word_means(v32.mean(), sums, masks, t)
    return (v32.mean() - 2.0 * (v32 @ _parities(words, masks)) / t
            ).astype(np.float64)


def _bucket_weight_estimates(query, n, level, buckets, t, rng, *,
                             oracle=None, spread=False):
    """Estimated squared Fourier mass of each bucket at one tree level,
    and the standard deviation of the samples when `spread` is set.

    Bucket (level, a) holds the characters whose low `level` bits equal
    a.  One shared draw serves every bucket: with x, y agreeing above
    the level and random below, E f(x) f(y) (-1)^(<a, x^y>) is exactly
    the bucket weight.  A pair is fixed by x and the low bits of y, so
    when the oracle gives a ``unit_table`` over those 2^(n+level) cells,
    the same draws are folded in place into one cell index per pair and
    binned, and each cell's count multiplies the table's f(x) f(y): the
    same floats as the sampled path, with the same 2t queries charged.
    """
    lo = np.uint64(level)
    b = np.asarray(buckets, dtype=np.uint64)
    table = None if oracle is None else unit_table(oracle, n + level, t)
    if table is None:
        xl = rng.integers(0, 1 << level, size=t, dtype=np.uint64)
        yl = rng.integers(0, 1 << level, size=t, dtype=np.uint64)
        zh = rng.integers(0, 1 << (n - level), size=t, dtype=np.uint64) << lo \
            if level < n else np.zeros(t, dtype=np.uint64)
        vals = query_product(query, xl | zh, yl | zh)
        return (_signed_means(vals, xl ^ yl, b, level),
                float(np.std(vals)) if spread else None)
    cells = rng.integers(0, 1 << level, size=t, dtype=np.uint64)  # x low
    cells <<= lo
    cells |= rng.integers(0, 1 << level, size=t, dtype=np.uint64)  # y low
    if level < n:
        high = rng.integers(0, 1 << (n - level), size=t, dtype=np.uint64)
        high <<= np.uint64(2 * level)
        cells |= high
        del high
    cells = cells.view(np.intp)  # x << level | y low, below 2^(n+level)
    oracle._charge(2 * t)
    side = 1 << level
    blocks = table.reshape(-1, side)
    pairs = blocks[:, :, None] * blocks[:, None, :]  # f(x) f(y) per cell
    counts = np.bincount(cells, minlength=1 << (n + level))
    by_low = (counts.reshape(pairs.shape) * pairs).sum(axis=0)
    low = np.arange(side)
    sums = np.bincount((low[:, None] ^ low[None, :]).ravel(),
                       weights=by_low.ravel(), minlength=side)
    est = _word_means(_binned_mean32(sums.sum(), t), sums, b, t)
    return est, float(np.std(pairs.ravel()[cells])) if spread else None


def _coefficient_estimates(query, n, alphas, t, rng, *, oracle=None):
    xs = rand_points(rng, n, t)
    masks = np.asarray(alphas, dtype=np.uint64)
    table = None if oracle is None else unit_table(oracle, n, t)
    if table is None:
        return _signed_means(query(xs), xs, masks, n)
    oracle._charge(t)
    sums = np.bincount(xs.view(np.intp), minlength=1 << n) * table
    return _word_means(_binned_mean32(sums.sum(), t), sums, masks, t)


def _gl_defaults(n, gamma, delta, bound):
    """Sample counts forced by Hoeffding at the tree's union bound."""
    live_cap = max(8, math.ceil(8.0 * bound * bound / (gamma * gamma)))
    events = max(2, 2 * (n + 1) * live_cap)
    delta_each = delta / events
    t_bucket = hoeffding_samples(min(gamma * gamma / 4.0, 0.5), delta_each)
    t_leaf = hoeffding_samples(gamma / 2.0, delta_each)
    return live_cap, t_bucket, t_leaf


def _reject_nan(est):
    # a NaN sample makes every estimate NaN (each one includes the mean
    # of all the samples), so the first entry tells
    if math.isnan(est[0]):
        raise ValueError("the oracle returned NaN on a Goldreich-Levin sample")


def _gl_tree(query, n, gamma, delta, rng, *, bound=1.0, t_bucket=None,
             t_leaf=None, repeats=None, live_cap=None, noise_floor_z=0.0,
             oracle=None):
    """Shared Goldreich-Levin core over an arbitrary query map on F_2^n;
    `oracle`, when given, is the oracle whose query_many `query` is, and
    its table may serve the estimates.

    A NaN estimate raises ``ValueError``: it would fail every threshold
    comparison and end the search with a silently empty list."""
    if not (0 < gamma and 0 < delta < 1):
        raise ValueError("gamma must be positive and delta in (0, 1)")
    cap_d, tb_d, tl_d = _gl_defaults(n, min(gamma, 1.0), delta, bound)
    live_cap = live_cap or cap_d
    t_bucket = t_bucket or tb_d
    t_leaf = t_leaf or tl_d
    if max(t_bucket, t_leaf) >= MAX_GL_SAMPLES:
        raise ValueError(
            f"Goldreich-Levin at gamma={gamma:g} needs t_bucket={t_bucket} "
            f"and t_leaf={t_leaf} samples, at or above 2^24 (where "
            f"the float32 means stop being exact); raise gamma or pass "
            f"smaller counts")
    if repeats is None:
        repeats = max(1, math.ceil(math.log2(1.0 / gamma))) if gamma < 1 else 1
    threshold = gamma * gamma / 2.0

    candidates: set[int] = set()
    for _ in range(repeats):
        live = [0]
        for level in range(1, n + 1):
            children = []
            for a in live:
                children.append(a)
                children.append(a | (1 << (level - 1)))
            est, sd = _bucket_weight_estimates(
                query, n, level, children, t_bucket, rng, oracle=oracle,
                spread=noise_floor_z > 0.0)
            _reject_nan(est)
            keep = threshold
            if noise_floor_z > 0.0:
                se = sd / math.sqrt(t_bucket)
                keep = max(keep, noise_floor_z * se)
            order = np.argsort(-est, kind="stable")
            live = [children[i] for i in order[:live_cap] if est[i] >= keep]
            if not live:
                break
        candidates.update(live)

    if not candidates:
        return []
    alphas = sorted(candidates)
    coeffs = _coefficient_estimates(query, n, alphas, t_leaf, rng,
                                    oracle=oracle)
    _reject_nan(coeffs)
    out = [(a, float(c)) for a, c in zip(alphas, coeffs) if abs(c) >= gamma / 2.0]
    out.sort(key=lambda t_: (-abs(t_[1]), t_[0]))
    return out


def goldreich_levin(f: FunctionOracle, gamma: float, delta: float, rng, *,
                    t_bucket=None, t_leaf=None, repeats=None, live_cap=None,
                    noise_floor_z=0.0) -> LinearTermList:
    """Linear decomposition f ~ sum_i c_i (-1)^(<alpha_i, x>) + f'.

    With the default (Hoeffding-forced) sample counts, with probability
    at least 1 - delta every alpha with |f_hat(alpha)| >= gamma appears
    in the list, every reported coefficient is within gamma/2 of the
    true one, and the list length is O(1/gamma^2).  The tree repeats
    O(log 1/gamma) times and unions the candidates, so the completeness
    guarantee holds for all large characters simultaneously.  Callers
    chasing speed over guarantees pass smaller counts explicitly.
    """
    return _gl_tree(f.query_many, f.n, gamma, delta, rng, bound=f.bound,
                    t_bucket=t_bucket, t_leaf=t_leaf, repeats=repeats,
                    live_cap=live_cap, noise_floor_z=noise_floor_z, oracle=f)


def goldreich_levin_subspace(f: FunctionOracle, W: SubspaceF2, gamma: float,
                             delta: float, rng, *, t_bucket=None, t_leaf=None,
                             repeats=None, live_cap=None,
                             noise_floor_z=0.0) -> LinearTermList:
    """Goldreich-Levin relative to a subspace.

    Characters are correlations over W: <f, chi_alpha>_W = E_{x in W}
    f(x) (-1)^(<alpha, x>).  Sampling x in W draws random coefficient
    vectors over a stored basis of W; the tree runs in coordinates and
    each found character is mapped back to a representative alpha,
    inside W whenever the Gram form permits (always possible when W
    meets its orthogonal complement trivially).
    """
    basis = W.basis()
    d = len(basis)
    if d == 0:
        return []

    def query(us):
        return f.query_many(combine_many(us, basis))

    found = _gl_tree(query, d, gamma, delta, rng, bound=f.bound,
                     t_bucket=t_bucket, t_leaf=t_leaf, repeats=repeats,
                     live_cap=live_cap, noise_floor_z=noise_floor_z)
    gram = [sum(((basis[i] & basis[j]).bit_count() & 1) << j for j in range(d))
            for i in range(d)]
    out = []
    for beta, c in found:
        coeffs = solve_linear_system(gram, [(beta >> i) & 1 for i in range(d)], d)
        if coeffs is not None:
            alpha = 0
            for i in range(d):
                if (coeffs >> i) & 1:
                    alpha ^= basis[i]
        else:
            # no representative inside W induces this character; fall back
            # to any global alpha with <alpha, w_i> = beta_i (solvable:
            # the w_i are independent)
            alpha = solve_linear_system(basis, [(beta >> i) & 1 for i in range(d)],
                                        W.n)
        out.append((alpha, c))
    # distinct alphas: merge duplicates (possible when W meets W^perp)
    merged: dict[int, float] = {}
    for a, c in out:
        if a not in merged or abs(c) > abs(merged[a]):
            merged[a] = c
    result = sorted(merged.items(), key=lambda t_: (-abs(t_[1]), t_[0]))
    return result
