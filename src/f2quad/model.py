"""Local refinement: quadratic averages on cosets of a subspace.

The global route pays an exponential correlation loss when it wraps the
accepted set in a spanning subspace.  The local route instead finds a
subspace inside the 4-fold sumset of the accepted set (Bogolyubov),
after restricting acceptance through a random linear model map Gamma so
that the choice function behaves like a Freiman 8-homomorphism there.
Sampled quadruples then define a linear map on a subspace V, a coset of
V carrying most of the structure is found by majority, the symmetry
argument runs relative to V, and per-coset linear parts are recovered
with the subspace Goldreich-Levin, assembling a quadratic average whose
complexity is the codimension of the final subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .gf2 import (MAX_ENUM_N, MatF2, SpanBuilder, SubspaceF2,
                  complete_basis_full_rank_projection, dot, graph_linear_map,
                  reduce_mod_basis, row_reduce, solve_linear_system,
                  symmetric_split)
from .functions import (CallableOracle, FunctionOracle, QuadraticAverage,
                        QuadraticPhase, estimate_correlation)
from .fourier import goldreich_levin, goldreich_levin_subspace, u3_power_gate
from .bsg import BsgParams, PhiSampler, bsg_test, edge_test
from .recovery import (_symmetric_extension, attempt_loop, resolve_knobs,
                       screen_anchor)


@dataclass(frozen=True)
class ModelParams:
    """Random linear restriction Gamma(phi(y)) = c cutting the accepted
    set down to a sheet on which the choice function is additively
    consistent.  The paper's m = 2 ceil(log2(1/theta')) is far beyond
    desk scale (see paper_model_scales); the drivers use a small m."""

    gamma_map: MatF2
    c: int
    m: int


def paper_model_log2_scales(epsilon: float) -> tuple[float, float, int]:
    """Log2 of the paper-profile model scales, exactly:
    log2(theta') = -(487 + 2448 log2(1/eps)),
    log2(theta)  = -(977 + log2 3 + 4912 log2(1/eps)),
    m = 2 ceil(log2(1/theta')).  These quantities underflow any float
    long before eps gets interesting, so audits run in log space."""
    log2_inv_tp = 487.0 + 2448.0 * math.log2(1.0 / epsilon)
    log2_inv_t = 977.0 + math.log2(3.0) + 4912.0 * math.log2(1.0 / epsilon)
    return -log2_inv_t, -log2_inv_tp, 2 * math.ceil(log2_inv_tp)


def paper_model_scales(epsilon: float) -> tuple[float, float, int]:
    """Best-effort float values of the paper model scales (0.0 on
    underflow); m is computed from the exact log form."""
    log2_t, log2_tp, m = paper_model_log2_scales(epsilon)
    theta = 2.0 ** log2_t if log2_t > -1020 else 0.0
    theta_prime = 2.0 ** log2_tp if log2_tp > -1020 else 0.0
    return theta, theta_prime, m


def choose_model_params(n: int, rng, *, m: int = 4,
                        c: int | None = None) -> ModelParams:
    gamma_map = MatF2.random(m, n, rng) if m > 0 else MatF2([], n)
    c_v = int(rng.integers(0, 1 << m)) if c is None and m > 0 else int(c or 0)
    return ModelParams(gamma_map=gamma_map, c=c_v, m=m)


def model_test(sampler: PhiSampler, u: tuple[int, int], v: tuple[int, int],
               params: BsgParams, model: ModelParams, rng) -> int:
    """1 iff the sandwich test accepts v AND Gamma(phi(y)) = c.

    The linear restriction is checked first (it is free once phi(y) is
    drawn); the conjunction's value does not depend on the order."""
    y, phiy = int(v[0]), int(v[1])
    if model.m > 0 and model.gamma_map.mul_vec(phiy) != model.c:
        return 0
    return bsg_test(sampler, u, v, params, rng)


class ModelMembership:
    """Dense memo of model_test verdicts: h(x) in {0, 1}.

    Memoization makes h a fixed function of x (first verdict wins), so
    the Bogolyubov run and the quadruple/coset sampling stages all see
    the same restriction; at desk dimensions the expensive verdicts are
    paid at most once per point.
    """

    def __init__(self, sampler: PhiSampler, u, bsg_params: BsgParams,
                 model: ModelParams, rng):
        self.sampler = sampler
        self.u = u
        self.params = bsg_params
        self.model = model
        self.rng = rng
        self.n = sampler.n
        self._memo = np.full(1 << self.n, -1, dtype=np.int8)
        self._values = None  # the verdicts as floats, once all are decided
        self.evaluations = 0

    def query(self, x: int) -> int:
        x = int(x)
        if self._memo[x] < 0:
            v = (x, self.sampler.sample(x))
            self._memo[x] = model_test(self.sampler, self.u, v, self.params,
                                       self.model, self.rng)
            self.evaluations += 1
        return int(self._memo[x])

    def query_many(self, xs: np.ndarray) -> np.ndarray:
        """Verdicts at xs, as floats; the undecided points among xs are
        decided first, in increasing order."""
        got = self._memo[xs]
        undecided = got < 0
        if undecided.any():
            miss = xs[undecided]
            for x in np.unique(miss):
                self.query(int(x))
            got[undecided] = self._memo[miss]
        return got.astype(np.float64)

    def table(self) -> np.ndarray | None:
        """Every verdict as 0.0/1.0 once all 2^n points are decided, else
        None (deciding a point draws from the rng)."""
        if self._values is None and self.evaluations == len(self._memo):
            self._values = self._memo.astype(np.float64)
        return self._values

    def as_oracle(self) -> FunctionOracle:
        return CallableOracle(self.query_many, self.n, bound=1.0,
                              table=self.table)

    def accepted(self) -> np.ndarray:
        return np.flatnonzero(self._memo == 1).astype(np.uint64)


def bogolyubov(h, rho: float, delta: float, rng, *, gamma: float | None = None,
               t_bucket=None, t_leaf=None, repeats=None, live_cap=None,
               noise_floor_z: float = 0.0) -> SubspaceF2:
    """Subspace V inside the 4-fold sumset of the set h indicates.

    Runs the linear decomposition of h at gamma = rho^(3/2)/4 and
    returns the joint kernel of the characters found: on it the 4-fold
    convolution h*h*h*h exceeds rho^4/2 (with probability 1 - delta),
    because the kernel kills the found characters' oscillation and the
    remaining spectrum is uniformly below gamma.  Codimension is at
    most the list length, O(rho^-3).
    """
    if gamma is None:
        gamma = rho ** 1.5 / 4.0
    orc = h if isinstance(h, FunctionOracle) else h.as_oracle()
    terms = goldreich_levin(orc, gamma, delta, rng, t_bucket=t_bucket,
                            t_leaf=t_leaf, repeats=repeats, live_cap=live_cap,
                            noise_floor_z=noise_floor_z)
    alphas = [a for a, _ in terms if a != 0]
    return SubspaceF2(alphas, orc.n)


@dataclass(frozen=True)
class LocalChoiceResult:
    """Affine local choice: E_{x in c1+V} f_hat_x^2(Tx + Tc1 + c2) is
    large on good draws."""

    V: SubspaceF2
    T: MatF2
    c1: int
    c2: int
    quadruples: int
    coset_votes: int


def local_linear_choice(f: FunctionOracle, sampler: PhiSampler,
                        u: tuple[int, int], bsg_params: BsgParams,
                        model: ModelParams, delta: float, rng, *,
                        bog_gl: dict | None = None,
                        draw_cap: int | None = None
                        ) -> LocalChoiceResult | None:
    """Subspace V, linear map T and coset anchor (c1, c2) from the
    model-restricted accepted set.

    Stages: (1) Bogolyubov on the membership function h gives V0 inside
    the 4-fold sumset of the accepted sheet.  (2) Accepted quadruples
    with sum in V0 are stored as (y, zeta(y)); additive consistency of
    the restricted choice function makes zeta linear, so the stored
    points span V and extend to a map T.  (3) The coset of
    Z = {(x, Tx)} holding the most accepted probes supplies (c1, c2).
    Sampling stops once 4 quadruples are stored and the last 6 left the
    span unchanged.  None on sample starvation at any stage (a bad draw;
    driver retries).
    """
    n = f.n
    mem = ModelMembership(sampler, u, bsg_params, model, rng)
    # measure the accepted density: the structured part of the
    # membership spectrum lives at that scale, and the verdicts are
    # memoized so the probes are reused by every later stage
    probes = rng.integers(0, 1 << n, size=min(512, 1 << n), dtype=np.uint64)
    dens = float(np.mean(mem.query_many(probes)))
    rho = max(dens, 4.0 / (1 << n))
    v0 = bogolyubov(mem.as_oracle(), rho, delta / 20.0, rng,
                    gamma=max(0.55 * rho, 1.5 / (1 << n)), **(bog_gl or {}))
    if v0.dim == 0:
        return None

    cap = draw_cap if draw_cap is not None else 40 << n
    pool: list[int] = []
    draws = 0

    def draw_accepted():
        nonlocal draws
        while draws < cap:
            draws += 1
            x = int(rng.integers(0, 1 << n))
            if mem.query(x):
                pool.append(x)
                return x
        return None

    span = SpanBuilder()
    stored: list[tuple[int, int]] = []
    stalled = 0
    quad_tries = 0
    while draws < cap:
        quad_tries += 1
        xs = []
        ok = True
        for _ in range(3):
            if len(pool) > 8 and rng.random() < 0.5:
                xs.append(int(pool[int(rng.integers(0, len(pool)))]))
            else:
                x = draw_accepted()
                if x is None:
                    ok = False
                    break
                xs.append(x)
        if not ok:
            break
        y = v0.random_element(rng)
        x4 = xs[0] ^ xs[1] ^ xs[2] ^ y
        if not mem.query(x4):
            continue
        zeta = 0
        for x in (*xs, x4):
            zeta ^= sampler.sample(x)
        stored.append((y, zeta))
        if span.add(y | (zeta << n)):
            stalled = 0
        else:
            stalled += 1
        if len(stored) >= 4 and stalled >= 6:
            break
    if len(stored) < 4:
        return None

    V = SubspaceF2.from_span([y for y, _ in stored], n)
    ext = complete_basis_full_rank_projection(span.basis(), n)
    T = graph_linear_map(ext, n)

    # identify the heaviest coset of Z = {(x, Tx) : x in V} among
    # accepted probes, bucketing by canonical representative
    z_basis, _ = row_reduce([v | (T.mul_vec(v) << n) for v in V.basis()])
    votes: dict[int, tuple[int, int]] = {}
    counts: dict[int, int] = {}
    probes = list(dict.fromkeys(pool))
    while len(probes) < 48:
        x = draw_accepted()
        if x is None:
            break
        probes = list(dict.fromkeys(pool))
    for x in probes:
        vec = x | (sampler.sample(x) << n)
        key = reduce_mod_basis(vec, z_basis)
        counts[key] = counts.get(key, 0) + 1
        votes.setdefault(key, (x, sampler.sample(x)))
    if not counts:
        return None
    best_key = max(counts, key=lambda k: (counts[k], -k))
    c1, c2 = votes[best_key]
    return LocalChoiceResult(V=V, T=T, c1=c1, c2=c2,
                             quadruples=len(stored),
                             coset_votes=counts[best_key])


def local_symmetrize(V: SubspaceF2, T: MatF2, c1: int, z_c: int,
                     n: int) -> tuple[SubspaceF2, MatF2, int]:
    """Symmetry argument relative to V.

    W' = {x in V : (T + T^T)x perp V}; on W' the map acts as a
    symmetric form, whose diagonal vector v solves <w, v> = <w, Tw> on
    a basis.  The support of x -> f_hat_{x+c1}^2(T(x+c1) + z_c)
    requires <x, v + Sc1 + z_c> = <c1, Tc1> + <c1, z_c>; W is cut by
    that hyperplane and, when the right-hand bit is 1, the coset anchor
    c1 is shifted into the affine solution set.  Returns (W, B, c1')
    with B globally symmetric, zero diagonal, agreeing with T on W.
    """
    S = T + T.transpose()
    constraints = list(V.ortho_basis) + [S.mul_vec(w) for w in V.basis()]
    W1 = SubspaceF2(constraints, n)
    kb = W1.basis()
    v = solve_linear_system(list(kb), [dot(w, T.mul_vec(w)) for w in kb], n) \
        if kb else 0
    if v is None:
        v = T.diag_vector()
    u_vec = v ^ S.mul_vec(c1) ^ z_c
    b = dot(c1, T.mul_vec(c1)) ^ dot(c1, z_c)
    W = SubspaceF2(constraints + [u_vec], n)
    c1_adj = c1
    if b == 1:
        x0 = next((w for w in kb if dot(w, u_vec) == 1), None)
        if x0 is not None:
            c1_adj = c1 ^ x0
        # else: the support condition is unsatisfiable on W1; the caller's
        # validation will reject this attempt
    B = _symmetric_extension(T, W)
    return W, B, c1_adj


def find_linear_parts(f: FunctionOracle, W: SubspaceF2, A: MatF2, B: MatF2,
                      sigma: float, delta: float, rng, *,
                      gl_kwargs: dict | None = None,
                      est_gamma: float = 0.02, max_codim: int = 16,
                      info: dict | None = None) -> QuadraticAverage:
    """Per-coset linear parts for the shared quadratic part A.

    For each coset representative y of W, the shifted product
    h_y^y(x) = f(x+y) (-1)^(<x+y, A(x+y)> + <x+y, By>) is decomposed
    over W at threshold sigma/2; the best character r gives
    l_y = By + r and the sign fixes c_y.  Cosets where the list comes
    back empty keep l_y = By and get a common constant, chosen by
    estimating the assembled average with both constants and keeping
    the larger (their contribution is then nonnegative).
    """
    if W.codim > max_codim:
        raise ValueError(f"refusing to enumerate 2^{W.codim} cosets")
    if B != A + A.transpose():
        raise ValueError("B must equal A + A^T")
    n = f.n
    terms: dict[int, tuple[int, int]] = {}
    undecided: list[int] = []
    for y in W.coset_reps():
        y = int(y)
        by = B.mul_vec(y)
        phase = QuadraticPhase.canonical(A, by, 0)

        def h_shift(xs, _y=np.uint64(y), _phase=phase):
            pts = xs ^ _y
            return f.query_many(pts) * _phase.eval_many(pts)

        orc = CallableOracle(h_shift, n, bound=f.bound)
        found = goldreich_levin_subspace(orc, W, sigma / 2.0, delta, rng,
                                         **(gl_kwargs or {}))
        if found:
            r, coeff = found[0]
            c_y = (0 if coeff > 0 else 1) ^ dot(r, y)
            terms[y] = (by ^ r, c_y)
        else:
            undecided.append(y)
    if undecided:
        trials = []
        for cbit in (0, 1):
            trial = dict(terms)
            for y in undecided:
                trial[y] = (B.mul_vec(y), cbit)
            Q = QuadraticAverage(W, A, trial, n)
            est = estimate_correlation(f, Q.as_oracle(), est_gamma, delta, rng)
            trials.append((est, Q))
        trials.sort(key=lambda t: -t[0])
        if info is not None:
            info["undecided"] = list(undecided)
            info["sign_trial_estimates"] = [t[0] for t in trials]
        return trials[0][1]
    if info is not None:
        info["undecided"] = []
    return QuadraticAverage(W, A, terms, n)


@dataclass(frozen=True)
class FindAverageResult:
    average: QuadraticAverage
    correlation_estimate: float
    attempts: int
    queries: int

    @property
    def complexity(self) -> int:
        return self.average.complexity


# the override knobs of find_quadratic_average; None leaves the choice to
# choose_bsg_params
AVERAGE_DEFAULTS = dict(
    tau_accept=0.1, m_attempts=24,
    # accepted sheets here are far sparser than the choice graph of a
    # noisy codeword; a larger rho scale keeps the neighborhood trimming
    # from rejecting sheet members on spurious empty-sample events
    rho=0.45, r=None, s=None, t_edge=None,
    # the model map narrows the accepted sheet by up to 2^-m; desk-sized
    # sheets only tolerate a thin cut, so the driver default is small
    # (ModelParams itself defaults to the documented m = 4)
    model_m=1, complexity_cap=None,
)

# Goldreich-Levin counts of the Bogolyubov and linear-parts steps
BOGOLYUBOV_GL = dict(t_bucket=1 << 17, t_leaf=1 << 17, live_cap=48, repeats=1,
                     noise_floor_z=3.0)
PARTS_GL = dict(t_bucket=4096, t_leaf=4096, live_cap=64, repeats=1)
SIGMA = 0.25         # find_linear_parts' threshold scale
PRESAMPLE = 160      # draws that vote for the model value c
ANCHOR_GAMMA = 0.2   # floor of the anchor's coefficient


def find_quadratic_average(f: FunctionOracle, epsilon: float, delta: float,
                           rng, **overrides) -> FindAverageResult | None:
    """Either a quadratic average correlating with f, or bottom (None).

    The attempt loop over draws of (choice function, anchor, thresholds,
    model map Gamma, value c): local linear choice -> local symmetry
    argument -> per-coset linear parts -> validation of the estimated
    correlation against tau_accept.  c is the majority model value over
    a presample of promising points (a uniformly random c would hit the
    sheet with probability about 2^-m and be re-drawn anyway), and
    attempts whose complexity exceeds the configured cap are rejected.

    The model-membership memo is a dense 2^n table, so the dimension is
    capped at MAX_ENUM_N; a larger f, or an unknown knob name, is
    refused before any query.
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if f.n > MAX_ENUM_N:
        raise ValueError(f"find_quadratic_average refuses n > {MAX_ENUM_N} "
                         f"(dense 2^n membership memo), got n = {f.n}")
    knobs = resolve_knobs(AVERAGE_DEFAULTS, overrides)
    start_queries = f.query_count
    if not u3_power_gate(f, 3.0 * epsilon / 4.0, rng):
        return None
    cap = knobs["complexity_cap"]

    def propose(sampler, params):
        u = screen_anchor(sampler, max(params.gamma1, ANCHOR_GAMMA), rng)
        if u is None:
            return
        # model draw; c is voted as the majority model value over points
        # whose edge test against the anchor passes (those are the sheet
        # the restriction should keep)
        model = choose_model_params(f.n, rng, m=knobs["model_m"])
        if model.m > 0:
            votes: dict[int, int] = {}
            tries = 0
            hits = 0
            while hits < 12 and tries < PRESAMPLE:
                tries += 1
                y = int(rng.integers(0, 1 << f.n))
                rec = sampler.record(y)
                if not (rec.from_list and abs(rec.coeff) >= params.gamma1):
                    continue
                if edge_test(sampler, u, (y, rec.alpha), params.gamma1,
                             params.t_edge, rng):
                    key = model.gamma_map.mul_vec(rec.alpha)
                    votes[key] = votes.get(key, 0) + 1
                    hits += 1
            if votes:
                c_major = max(votes, key=lambda k: (votes[k], -k))
                model = ModelParams(model.gamma_map, c_major, model.m)
        lc = local_linear_choice(f, sampler, u, params, model, delta, rng,
                                 bog_gl=BOGOLYUBOV_GL)
        if lc is None:
            return
        z_c = lc.T.mul_vec(lc.c1) ^ lc.c2
        W, B, c1 = local_symmetrize(lc.V, lc.T, lc.c1, z_c, f.n)
        if (cap is not None and W.codim > cap) or W.codim > 16:
            return
        A = symmetric_split(B)
        yield find_linear_parts(f, W, A, B, SIGMA, delta / 4.0, rng,
                                gl_kwargs=PARTS_GL)

    found = attempt_loop(f, epsilon, rng, knobs, propose, anchors=4)
    if found is None:
        return None
    Q, est, attempt = found
    return FindAverageResult(average=Q, correlation_estimate=est,
                             attempts=attempt,
                             queries=f.query_count - start_queries)
