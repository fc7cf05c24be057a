"""Somewhat-linear choice functions and the sandwich membership test.

For a Boolean f, the derivative f_x tends to concentrate its Fourier
mass on few characters when f is quadratically structured.  The choice
sampler draws, independently per point x, a character phi(x) of f_x
with probability the squared coefficient from a Goldreich-Levin run
(and an arbitrary fresh uniform value with the leftover probability),
memoizing the draw so phi is a genuine function.

On the graph over pairs (x, phi(x)) whose edges require exact
additivity phi(x) + phi(y) = phi(x+y) plus coefficient thresholds, the
sandwich test approximates membership in the trimmed neighborhood T(u)
of an anchor vertex u: answers of 1 land inside a set of small
doubling, answers of 0 land outside a large subset, so the accepted
points behave like the dense, structured subset that additive
combinatorics promises, without ever materializing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import parity_many
from .functions import (FunctionOracle, hoeffding_samples, query_product,
                        rand_points, unit_table)
from .fourier import goldreich_levin


@dataclass(frozen=True)
class PhiRecord:
    alpha: int
    coeff: float     # estimated coefficient of the drawn character (0 for junk)
    from_list: bool  # drawn from the decomposition list, not the fallback


class PhiSampler:
    """Memoized sampler for the random choice function phi.

    phi(x) is drawn on first query: run the linear decomposition of the
    derivative f_x at (gamma_gl, delta_gl), pick alpha_i with
    probability c_i^2, otherwise answer a fresh uniform point.  Repeat
    queries return the memoized value and cost no new oracle queries.
    """

    def __init__(self, f: FunctionOracle, gamma_gl: float, delta_gl: float,
                 rng, *, t_bucket=None, t_leaf=None, repeats=None,
                 live_cap=None):
        self.f = f
        self.n = f.n
        self.gamma_gl = gamma_gl
        self.delta_gl = delta_gl
        self.rng = rng
        self.gl_kwargs = dict(t_bucket=t_bucket, t_leaf=t_leaf,
                              repeats=repeats, live_cap=live_cap)
        self.memo: dict[int, PhiRecord] = {}
        self.gl_calls = 0

    def record(self, x: int) -> PhiRecord:
        x = int(x)
        rec = self.memo.get(x)
        if rec is not None:
            return rec
        from .functions import DerivativeOracle
        terms = goldreich_levin(DerivativeOracle(self.f, x), self.gamma_gl,
                                self.delta_gl, self.rng, **self.gl_kwargs)
        self.gl_calls += 1
        u = float(self.rng.random())
        acc = 0.0
        rec = None
        for alpha, c in terms:
            acc += min(1.0, c * c)
            if u < acc:
                rec = PhiRecord(int(alpha), float(c), True)
                break
        if rec is None:
            rec = PhiRecord(int(self.rng.integers(0, 1 << self.n)), 0.0, False)
        self.memo[x] = rec
        return rec

    def sample(self, x: int) -> int:
        return self.record(x).alpha

    def vertex(self, x: int) -> tuple[int, int]:
        return (int(x), self.sample(x))

    def materialize(self) -> np.ndarray:
        """Full table of phi (samples every point; desk dimensions only)."""
        return np.array([self.sample(x) for x in range(1 << self.n)],
                        dtype=np.uint64)


def estimate_derivative_coefficient(f: FunctionOracle, x: int, alpha: int,
                                    t: int, rng) -> float:
    """Empirical f_hat_x(alpha) = E_y f(y) f(x+y) (-1)^(<alpha,y>) from
    t samples (2t queries to f).

    When f gives a ``unit_table`` and 2^n <= t, the draws are binned per
    point and summed against the table's products f(y) f(x+y): the same
    float as the per-sample sums, which are exact integers there."""
    ys = rand_points(rng, f.n, t)
    table = unit_table(f, f.n, t)
    if table is None:
        vals = query_product(f.query_many, ys, ys ^ np.uint64(x))
        par = parity_many(ys & np.uint64(alpha)).astype(np.float64)
        return float(vals.mean() - 2.0 * (vals @ par) / t)
    f._charge(2 * t)
    points = np.arange(1 << f.n, dtype=np.uint64)
    sums = np.bincount(ys.view(np.intp), minlength=1 << f.n) \
        * (table * table[(points ^ np.uint64(x)).view(np.intp)])
    return float(sums.sum() / t
                 - 2.0 * (sums @ parity_many(points & np.uint64(alpha))) / t)


@dataclass(frozen=True)
class BsgParams:
    """Thresholds and sample counts for the sandwich test.

    gamma1 = gamma3 = gamma + mu/2 and gamma2 = gamma - mu/2 where
    [gamma - mu, gamma + mu] is a random sub-interval of the master
    interval; rho1 and rho2 trim neighborhoods at the rho^3 and rho^2
    scales.  The paper profile instantiates every quantity from eps
    (rho = eps^16/4, master interval [eps^16/180, eps^16/18], 4/rho^2
    sub-intervals, rho1 = 21 rho^3/20, rho2 = 19 rho^2/20, and r, s,
    t_edge sized by Hoeffding for estimate error rho^3/100) and is
    far beyond desk-scale sampling budgets; the practical profile keeps
    the same structural relations with user-set scales.
    """

    rho: float
    gamma: float
    mu: float
    gamma1: float
    gamma2: float
    gamma3: float
    rho1: float
    rho2: float
    r: int
    s: int
    t_edge: int
    interval: tuple[float, float]
    profile: str = "practical"

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo <= self.gamma - self.mu and self.gamma + self.mu <= hi + 1e-12):
            raise ValueError("[gamma - mu, gamma + mu] must lie in the master interval")
        if abs(self.gamma1 - (self.gamma + self.mu / 2)) > 1e-12 or \
           abs(self.gamma3 - (self.gamma + self.mu / 2)) > 1e-12 or \
           abs(self.gamma2 - (self.gamma - self.mu / 2)) > 1e-12:
            raise ValueError("threshold structure violated")


# the practical profile's sample counts: outer and inner sandwich draws, and
# samples per coefficient estimate
PRACTICAL_R, PRACTICAL_S, PRACTICAL_T_EDGE = 24, 24, 2048


def choose_bsg_params(epsilon: float | None, rng, profile: str = "practical", *,
                      rho: float | None = None,
                      r: int | None = None, s: int | None = None,
                      t_edge: int | None = None,
                      delta: float = 0.05) -> BsgParams:
    """Draw test parameters: pick a random sub-interval [gamma - mu,
    gamma + mu] of the master interval and derive the thresholds."""
    if profile == "paper":
        if epsilon is None or not 0 < epsilon < 1:
            raise ValueError("paper profile needs epsilon in (0, 1)")
        rho_default = epsilon ** 16 / 4.0
        rho_v = rho if rho is not None else rho_default
        lo, hi = epsilon ** 16 / 180.0, epsilon ** 16 / 18.0
        err = min(rho_v ** 3 / 100.0, 0.999)
        r_v = r if r is not None else hoeffding_samples(err, delta)
        s_v = s if s is not None else hoeffding_samples(err, delta)
        t_v = t_edge if t_edge is not None else hoeffding_samples(err, delta)
    elif profile == "practical":
        if epsilon is not None and not 0 < epsilon < 1:
            raise ValueError("epsilon out of range")
        rho_v = rho if rho is not None else 0.2
        lo, hi = 0.05, 0.15
        r_v = r if r is not None else PRACTICAL_R
        s_v = s if s is not None else PRACTICAL_S
        t_v = t_edge if t_edge is not None else PRACTICAL_T_EDGE
    else:
        raise ValueError(f"unknown profile {profile!r}")
    n_sub = max(1, round(4.0 / rho_v ** 2))
    width = (hi - lo) / n_sub
    i = int(rng.integers(0, n_sub))
    g_lo, g_hi = lo + i * width, lo + (i + 1) * width
    gamma = (g_lo + g_hi) / 2.0
    mu = width / 2.0
    return BsgParams(rho=rho_v, gamma=gamma, mu=mu,
                     gamma1=gamma + mu / 2, gamma2=gamma - mu / 2,
                     gamma3=gamma + mu / 2,
                     rho1=21.0 * rho_v ** 3 / 20.0,
                     rho2=19.0 * rho_v ** 2 / 20.0,
                     r=r_v, s=s_v, t_edge=t_v, interval=(lo, hi),
                     profile=profile)


def edge_test(sampler: PhiSampler, u: tuple[int, int], v: tuple[int, int],
              gamma: float, t_edge: int, rng, *,
              coeff_cache: dict | None = None) -> int:
    """1 iff phi(x) + phi(y) = phi(x+y) and the estimated coefficients
    |f_hat| at x, y and x+y all reach gamma.

    The conjunction is evaluated lazily (cheap failures first); since
    every conjunct is computed from fresh independent samples, the
    evaluation order does not change the output distribution.  A
    per-call cache may be passed so one vertex is estimated once within
    a composite test.
    """
    f = sampler.f
    x, phix = int(u[0]), int(u[1])
    y, phiy = int(v[0]), int(v[1])

    def coeff(p, alpha):
        if coeff_cache is not None and p in coeff_cache:
            return coeff_cache[p]
        c = abs(estimate_derivative_coefficient(f, p, alpha, t_edge, rng))
        if coeff_cache is not None:
            coeff_cache[p] = c
        return c

    if coeff(y, phiy) < gamma:
        return 0
    if coeff(x, phix) < gamma:
        return 0
    phixy = sampler.sample(x ^ y)
    if phix ^ phiy != phixy:
        return 0
    if coeff(x ^ y, phixy) < gamma:
        return 0
    return 1


def bsg_test(sampler: PhiSampler, u: tuple[int, int], v: tuple[int, int],
             params: BsgParams, rng) -> int:
    """Approximate test of v in T(u) with the sandwich guarantee:
    an answer of 1 places v in the doubling-controlled superset, an
    answer of 0 outside the dense subset (each up to the estimate
    error absorbed by the threshold gaps).

    Structure: reject unless (u, v) passes the edge test at gamma1;
    sample r points z_i and s points w_j per i; X_i tests (u, z_i) at
    gamma2, Y_ij tests (v, w_j) and Z_ij tests (z_i, w_j) at gamma3.
    B_i = 1 when the fraction (1/s) sum_j Y_ij Z_ij is at most rho1;
    accept iff (1/r) sum_i X_i B_i is at most rho2.  Inner sampling is
    skipped whenever X_i = 0 (the product is 0 regardless), which does
    not change the output.
    """
    cache: dict[int, float] = {}
    if edge_test(sampler, u, v, params.gamma1, params.t_edge, rng,
                 coeff_cache=cache) == 0:
        return 0
    acc = 0.0
    for i in range(params.r):
        # forced verdicts: summands are nonnegative, so a partial sum
        # over rho2 r settles 0, and too few remaining terms settle 1
        if acc > params.rho2 * params.r:
            return 0
        if acc + (params.r - i) <= params.rho2 * params.r:
            break
        z = int(rng.integers(0, 1 << sampler.n))
        zv = (z, sampler.sample(z))
        x_i = edge_test(sampler, u, zv, params.gamma2, params.t_edge, rng,
                        coeff_cache=cache)
        if x_i == 0:
            continue
        inner = 0.0
        for _ in range(params.s):
            if inner > params.rho1 * params.s:
                break  # B_i already forced to 0
            w = int(rng.integers(0, 1 << sampler.n))
            wv = (w, sampler.sample(w))
            y_ij = edge_test(sampler, v, wv, params.gamma3, params.t_edge, rng,
                             coeff_cache=cache)
            if y_ij == 0:
                continue
            z_ij = edge_test(sampler, zv, wv, params.gamma3, params.t_edge, rng,
                             coeff_cache=cache)
            inner += y_ij * z_ij
        b_i = 1 if (inner / params.s) <= params.rho1 else 0
        acc += x_i * b_i
    return 1 if (acc / params.r) <= params.rho2 else 0
