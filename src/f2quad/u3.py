"""The sampled Gowers U^3 norm.

The estimator averages products of f over the 8 corners {x + w . h :
w in {0,1}^3} of random 3-dimensional parallelepipeds, and the gate
doubles its sample count until the eighth-power mean clears a threshold
(the exact norm is ``fourier.exact_u3``).

The parallelepipeds are drawn 2^20 at a time (x, h1, h2, h3, one uint64
array each).  When the oracle hands over a table and the 2^(4n) cells
x | h1 << n | h2 << 2n | h3 << 3n number no more than the draws (n <= 4
for a whole chunk, n = 5 for exactly 2^20 draws), each array is folded
into one cell index as it is drawn, the cells are binned with one
np.bincount, and the counts are dotted with the 2^(4n) parallelepiped
products of the table, built once per table array with the corners
multiplied in the sampled order.  The path is taken only when every sum
of at most 2^20 products is exact in float64 (P 2^s integral with max
|P| 2^s < 2^33 for some s: true of +-1 tables and of ``decompose``'s
residuals, whose values are multiples of 1/2), so it returns the
sampled path's float; it holds two 2^20 uint64 draw arrays plus the
products and the counts.  Otherwise the parallelepipeds are evaluated
in blocks of 2^12, one oracle call each, from the four draw arrays and
one 2^20 float64 product array (about 40 MB); that path stays the
reference.  Like ``query_product``, the sampler assumes a pointwise
oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .functions import FunctionOracle, hoeffding_samples, rand_points

U3_DRAW_CHUNK = 1 << 20  # parallelepipeds per draw; part of the rng stream
U3_BLOCK = 1 << 12  # parallelepipeds per oracle call: 8 x 32 KB of points
# binned U^3 sums are exact when every product is an integer multiple of
# 2^-s below 2^33 2^-s: a chunk's 2^20 of them then stay below 2^53 2^-s
U3_EXACT_PRODUCT = 33


def u3_sample_count(gamma: float, delta: float) -> int:
    """Parallelepiped samples for |estimate - U^3| <= gamma at 1 - delta.

    The mean of 8-point products is the eighth power of the norm, so an
    additive guarantee on the norm itself costs a derivative factor:
    near a norm value u the root map stretches errors by 1/(8 u^7).
    The count is the plain Hoeffding count at accuracy
    gamma_8 = 8 * 0.45^7 * gamma, valid whenever the true norm is at
    least 0.45.  Below that floor no sampling budget can give an
    additive-gamma handle on the root (its derivative diverges at 0).
    """
    gamma8 = 8.0 * 0.45 ** 7 * gamma
    return hoeffding_samples(min(gamma8, 0.999), delta)


def u3_power_mean(f: FunctionOracle, t: int, rng) -> float:
    """Mean of t products of f over random 3-dimensional parallelepipeds
    {x + w . h : w in {0,1}^3}; 8t queries of a pointwise oracle.

    The parallelepipeds are drawn U3_DRAW_CHUNK at a time (x, h1, h2, h3
    in that order, which fixes the rng stream).  A chunk of b draws is
    binned against ``_u3_products`` when 2^(4n) <= b and those exist,
    and is evaluated U3_BLOCK at a time otherwise; both give the same
    float (see the module docstring).  Raises ValueError when a chunk's
    products sum to NaN.
    """
    if t < 1:
        raise ValueError(f"U^3 sample count must be at least 1, got {t}")
    total = 0.0
    done = 0
    while done < t:
        b = min(U3_DRAW_CHUNK, t - done)
        products = _u3_products(f) if 1 << (4 * f.n) <= b else None
        if products is None:
            s = _u3_blocked_sum(f, b, rng)
        else:
            s = _u3_binned_sum(f, products, b, rng)
        if math.isnan(s):
            raise ValueError("the oracle returned NaN on a U^3 sample")
        total += s
        done += b
    return total / t


def _u3_blocked_sum(f, b, rng):
    """The sum of b parallelepiped products, evaluated U3_BLOCK at a
    time: the 8 corner sets of a block go to the oracle in one call on
    an (8, m) array, and the corner values are multiplied into the
    chunk's product array in the order w = 0..7."""
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
    return float(np.sum(prod))


def _u3_binned_sum(f, products, b, rng):
    """The same sum from the same draws, each folded into the cell index
    x | h1 << n | h2 << 2n | h3 << 3n as it is drawn and binned; the
    8b queries are charged without evaluating."""
    cells = rand_points(rng, f.n, b)  # x
    for k in (1, 2, 3):
        h = rand_points(rng, f.n, b)
        h <<= np.uint64(k * f.n)
        cells |= h
        del h  # two draw arrays live at most
    f._charge(8 * b)
    counts = np.bincount(cells.view(np.intp), minlength=len(products))
    return float(np.dot(counts, products))


def _u3_products(f):
    """The 2^(4n) products f(x + w . h) over w = 0..7 of f's table,
    indexed by the cell x | h1 << n | h2 << 2n | h3 << 3n and multiplied
    in the sampler's order, when every sum of at most U3_DRAW_CHUNK of
    them is exact in float64; else None (also when f gives no table).
    Built and checked once per table array."""
    values = f.table()
    if values is None:
        return None
    if f._u3_checked is not None and f._u3_checked[0] is values:
        return f._u3_checked[1]
    x = np.arange(len(values))
    hs = (x[:, None], x[:, None, None], x[:, None, None, None])  # h1, h2, h3
    prod = np.empty((len(values),) * 4)  # axes h3, h2, h1, x
    prod[...] = values
    for w in range(1, 8):
        corner = x
        for k, h in enumerate(hs):
            if w >> k & 1:
                corner = corner ^ h
        prod *= values[corner]
    top = float(np.max(np.abs(prod)))
    s = U3_EXACT_PRODUCT - math.frexp(top)[1]  # top 2^s < 2^33
    exact = math.isfinite(top)
    if exact:
        scaled = np.ldexp(prod, s)
        exact = bool(np.all(scaled == np.rint(scaled)))
    f._u3_checked = (values, prod.ravel() if exact else None)
    return f._u3_checked[1]


def estimate_u3(f: FunctionOracle, gamma: float, delta: float, rng, *,
                samples: int | None = None) -> float:
    """Sampled U^3: estimate the eighth-power mean, clamp at zero, take
    the eighth root.  Monotonicity of the root turns the two-sided
    Hoeffding guarantee on the mean into one on the norm (with the
    adjusted constant from u3_sample_count).  Query count is exactly
    8 * t for t samples."""
    t = samples if samples is not None else u3_sample_count(gamma, delta)
    mean = u3_power_mean(f, t, rng)
    return max(mean, 0.0) ** 0.125


GATE_T_CAP = 1 << 26  # the gate's default cap on parallelepiped samples
GATE_MARGIN_Z = 4.0  # standard errors the gate's estimate must clear


def u3_power_gate(f: FunctionOracle, threshold_norm: float, rng, *,
                  t_start: int = 1 << 14, t_cap: int = GATE_T_CAP) -> bool:
    """Sequential test of ||f||_{U3}^8 >= threshold_norm^8.

    Doubles the sample count until the estimate clears the threshold by
    GATE_MARGIN_Z standard errors on either side; at the cap it compares
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
        if mean >= tau8 + GATE_MARGIN_Z * se:
            return True
        if mean <= tau8 - GATE_MARGIN_Z * se:
            return False
        if t_done >= t_cap:
            return mean >= tau8
        t_next = min(2 * t_done, t_cap)
