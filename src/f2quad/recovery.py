"""Recovering a correlated quadratic phase from oracle access.

Pipeline: screen the U^3 mass; draw a choice function and sandwich-test
parameters; collect accepted pairs (x, phi(x)) until they span a stable
subspace of F_2^{2n}; read a linear map T off the completed basis;
restrict to the subspace where T acts as a symmetric zero-diagonal form
and extract a matching global matrix B; integrate: with M + M^T = B,
the product f(x) (-1)^(<x,Mx>) carries a large linear character whose
index and sign give the linear part.  The assembled phase is validated
by a correlation estimate before being returned; failures at any stage
surface as a retry of the whole attempt with fresh randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .gf2 import (MatF2, SpanBuilder, SubspaceF2,
                  complete_basis_full_rank_projection, dot, graph_linear_map,
                  row_reduce, solve_linear_system, symmetric_split)
from .functions import (FunctionOracle, ProductOracle, QuadraticPhase,
                        estimate_correlation, hoeffding_samples)
from .fourier import GATE_T_CAP, goldreich_levin, u3_power_gate
from .bsg import (PRACTICAL_R, PRACTICAL_S, PRACTICAL_T_EDGE, BsgParams,
                  PhiSampler, bsg_test, choose_bsg_params)


@dataclass(frozen=True)
class LinearChoiceMap:
    """A linear map T whose graph covers the accepted sample span."""

    T: MatF2
    u: tuple[int, int]
    sampled: int
    accepted: int
    span_rank: int
    vectors: tuple[int, ...] = ()


@dataclass(frozen=True)
class FindQuadraticResult:
    phase: QuadraticPhase
    correlation_estimate: float
    attempts: int
    queries: int


SCREEN_TRIES = 400  # anchor draws screen_anchor makes at most


def linear_map_cap(n: int) -> int:
    """find_linear_map's default cap on draws: beyond a few multiples of
    2^n the memoized choice pool is exhausted and further draws only
    repeat it."""
    return min(12000, 4 << n)


def screen_anchor(sampler: PhiSampler, gamma: float, rng, *,
                  max_tries: int = SCREEN_TRIES, streak_abort: int = 48,
                  best_of: int = 8):
    """Draw an anchor vertex u = (x, phi(x)) whose character came from
    the decomposition list with coefficient estimate >= gamma, keeping
    the largest-coefficient candidate among the first few that qualify.

    Doomed anchors (junk phi draws) make every later edge test fail, so
    screening collapses retries the driver would burn anyway.  Returns
    None after a long streak of empty decomposition lists (junk input)
    or when the try budget runs out.
    """
    empty_streak = 0
    found: list[tuple[float, int, int]] = []
    for _ in range(max_tries):
        x = int(rng.integers(0, 1 << sampler.n))
        rec = sampler.record(x)
        if rec.from_list and abs(rec.coeff) >= gamma:
            found.append((abs(rec.coeff), x, rec.alpha))
            if len(found) >= best_of:
                break
        if rec.from_list:
            empty_streak = 0
        else:
            empty_streak += 1
            if empty_streak >= streak_abort and not found:
                return None
    if not found:
        return None
    _, x, alpha = max(found)
    return (x, alpha)


def find_linear_map(sampler: PhiSampler, params: BsgParams, rng, *,
                    u: tuple[int, int] | None = None, t_min: int | None = None,
                    k_cap: int | None = None, stall: int = 8,
                    warmup: int = 2000) -> LinearChoiceMap | None:
    """Sample points, keep those the sandwich test accepts against the
    anchor u, and read a linear map off the span of the accepted pairs.

    Sampling is adaptive: stop once the accepted span's rank has stalled
    past t_min acceptances (below rank n only if some draw was
    rejected), abort when a warm-up window accepts nothing, cap the
    total draws.  None signals a bad draw of phi, u or the thresholds;
    the driver retries.
    """
    n = sampler.n
    # a small accepted harvest is still useful to the pooling driver;
    # the floor only rejects draws that accept close to nothing
    t_req = t_min if t_min is not None else 6
    cap = k_cap if k_cap is not None else linear_map_cap(n)
    warmup = min(warmup, cap)
    if u is None:
        u = screen_anchor(sampler, params.gamma1, rng)
        if u is None:
            return None

    span = SpanBuilder()
    vectors: list[int] = []
    accepted = 0
    stalled = 0
    sampled = 0
    while sampled < cap:
        sampled += 1
        y = int(rng.integers(0, 1 << n))
        rec = sampler.record(y)
        v = (y, rec.alpha)
        if bsg_test(sampler, u, v, params, rng) == 1:
            accepted += 1
            vec = y | (rec.alpha << n)
            if span.add(vec):
                vectors.append(vec)
                stalled = 0
            else:
                stalled += 1
            # a harvest that rejected no draw has no evidence that phi is
            # linear only on a proper subset: a span below rank n there
            # means `stall` uniform draws in a row fell in one hyperplane
            # (chance 2^-stall), and stopping would invent the missing column
            if accepted >= t_req and stalled >= stall and \
                    (span.rank >= n or accepted < sampled):
                break
        if sampled == warmup and accepted == 0:
            return None
    if accepted < t_req:
        return None
    ext = complete_basis_full_rank_projection(span.basis(), n)
    T = graph_linear_map(ext, n)
    return LinearChoiceMap(T=T, u=u, sampled=sampled, accepted=accepted,
                           span_rank=span.rank, vectors=tuple(vectors))


# -- symmetry argument ----------------------------------------------------------

def _symmetric_extension(T: MatF2, W: SubspaceF2) -> MatF2:
    """Symmetric zero-diagonal matrix agreeing with T on W.

    First solve B w = T w on a basis of W over the strictly-upper
    unknowns (exact agreement as a linear map).  If that system is
    inconsistent, fall back to the Gram construction B = D^T G D with
    G the restricted form and D a coordinate map (D w_i = e_i), which
    agrees with T as a quadratic form on W and is always symmetric
    with zero diagonal.
    """
    n = T.n_cols
    basis = W.basis()
    if not basis:
        return MatF2.zeros(n, n)
    pos = {}
    m = 0
    for i in range(n):
        for j in range(i + 1, n):
            pos[(i, j)] = m
            m += 1
    rows, rhs = [], []
    for w in basis:
        tw = T.mul_vec(w)
        for i in range(n):
            r = 0
            for j in range(n):
                if j != i and (w >> j) & 1:
                    r |= 1 << pos[(min(i, j), max(i, j))]
            rows.append(r)
            rhs.append((tw >> i) & 1)
    sol = solve_linear_system(rows, rhs, m)
    if sol is not None:
        out = [0] * n
        for (i, j), k in pos.items():
            if (sol >> k) & 1:
                out[i] |= 1 << j
                out[j] |= 1 << i
        return MatF2(out, n)
    d = len(basis)
    gram = [sum(dot(basis[i], T.mul_vec(basis[j])) << j for j in range(d))
            for i in range(d)]
    # a zero-diagonal symmetric matrix has an identically vanishing
    # quadratic form, so an odd diagonal of the restricted form can never
    # be matched; clear it (the per-coset character search downstream
    # works modulo exactly this freedom)
    gram = [r & ~(1 << i) for i, r in enumerate(gram)]
    sym = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            bit = ((gram[i] >> j) | (gram[j] >> i)) & 1
            if bit:
                sym[i] |= 1 << j
                sym[j] |= 1 << i
    d_rows = [solve_linear_system(list(basis),
                                  [1 if i == k else 0 for i in range(d)], n)
              for k in range(d)]
    D = MatF2(d_rows, n)       # d x n, D w_i = e_i
    G = MatF2(sym, d)          # symmetrized, zero diagonal
    return D.transpose() @ G @ D


def symmetrize(T: MatF2) -> tuple[SubspaceF2, MatF2]:
    """Subspace W on which T acts as a symmetric zero-diagonal form,
    plus a globally symmetric zero-diagonal B agreeing with T there.

    W starts from the kernel of T + T^T; the diagonal-fixing vector v
    is solved from <w, v> = <w, T w> on a kernel basis (so <x, Tx> =
    <x, v> there) and W is cut down to v's orthogonal hyperplane.  The
    postcondition (B symmetric, zero diagonal) holds unconditionally;
    W may be small, in which case downstream validation rejects.
    """
    n = T.n_cols
    S = T + T.transpose()
    kernel = SubspaceF2(list(S.rows), n)  # Sx = 0 iff x perp every row
    kb = kernel.basis()
    v = solve_linear_system(list(kb), [dot(w, T.mul_vec(w)) for w in kb], n) \
        if kb else 0
    if v is None:
        v = T.diag_vector()
    W = SubspaceF2(list(S.rows) + [v], n)
    return W, _symmetric_extension(T, W)


def integrate(f: FunctionOracle, B: MatF2, eta_sq_threshold: float, delta: float,
              rng, *, gl_kwargs: dict | None = None) -> QuadraticPhase | None:
    """Assemble the phase: split B = M + M^T, decompose
    f(x) (-1)^(<x,Mx>) into linear characters at the given threshold,
    and take the largest-coefficient character as the linear part (ties
    to the smallest index); its sign fixes the constant bit.  None when
    the list comes back empty (driver retries)."""
    M = symmetric_split(B)
    h = QuadraticPhase(M, 0, 0, B.n_cols)
    fh = ProductOracle(f, h.as_oracle())
    terms = goldreich_levin(fh, eta_sq_threshold, delta, rng,
                            **(gl_kwargs or {}))
    if not terms:
        return None
    alpha, coeff = terms[0]
    return QuadraticPhase(M, alpha, 0 if coeff > 0 else 1, B.n_cols)


# -- driver ----------------------------------------------------------------------

# the override knobs of find_quadratic; None leaves the choice to
# choose_bsg_params (rho, r, s, t_edge) or to find_linear_map (t_min, k_cap)
PRACTICAL_DEFAULTS = dict(tau_accept=0.05, m_attempts=50, rho=None, r=None,
                          s=None, t_edge=None, t_min=None, k_cap=None)

# Goldreich-Levin threshold and counts of the integration step
INTEGRATE_GAMMA = 0.1
INTEGRATE_GL = dict(t_bucket=8192, t_leaf=8192, repeats=1, live_cap=128)
# the correlation estimate every candidate is validated by
VALIDATE_GAMMA, VALIDATE_DELTA = 0.02, 0.01


def resolve_knobs(defaults: dict, overrides: dict) -> dict:
    """The defaults updated by the overrides.  A name that is not a
    default raises ValueError, so a misspelt knob is refused before any
    query instead of ignored."""
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ValueError(f"unknown knob(s): {', '.join(unknown)}")
    return {**defaults, **overrides}


def phi_knobs(epsilon: float) -> tuple[float, float, dict]:
    """(gamma, delta, Goldreich-Levin counts) of the choice sampler.  The
    choice decomposition must see derivative coefficients down to
    roughly the correlation scale the driver is asked about, so the
    threshold scales with epsilon and the bucket counts follow it."""
    gamma = min(0.15, max(0.08, epsilon))
    tb = math.ceil(34.0 / gamma ** 2)
    return gamma, 0.1, dict(t_bucket=tb, t_leaf=math.ceil(2 * tb / 3),
                            repeats=1, live_cap=20)


def practical_query_budget(n: int, attempts: int, **overrides) -> int:
    """Documented worst-case oracle-query budget of find_quadratic, for
    counter audits (`epsilon` defaults to 0.1).

    Per attempt: the choice sampler answers at most min(2^(n+1), 2 k_cap
    + screen) distinct decompositions, each costing at most
    4 (n t_bucket + t_leaf) queries (derivative samples pay double);
    every draw additionally runs at most (2 + r + 2 r s) edge tests of
    3 coefficient estimates at 2 t_edge queries each; integration and
    validation add one decomposition at the integration counts plus the
    correlation samples.  The gate contributes at most 8 doubled stages
    of its default cap, GATE_T_CAP.  Every default above is read from the
    constant its owner uses.
    """
    epsilon = overrides.pop("epsilon", 0.1)
    k = resolve_knobs(PRACTICAL_DEFAULTS, overrides)
    _, _, gl = phi_knobs(epsilon)
    r = k["r"] or PRACTICAL_R
    s = k["s"] or PRACTICAL_S
    t_edge = k["t_edge"] or PRACTICAL_T_EDGE
    k_cap = k["k_cap"] or linear_map_cap(n)
    gl_cost = 4 * (n * gl["t_bucket"] * gl["repeats"] + gl["t_leaf"])
    gl_calls = min(1 << (n + 1), 2 * k_cap + SCREEN_TRIES)
    per_draw_tests = (2 + r + 2 * r * s) * 3 * 2 * t_edge
    int_cost = 4 * (n * INTEGRATE_GL["t_bucket"] * INTEGRATE_GL["repeats"]
                    + INTEGRATE_GL["t_leaf"])
    validate = hoeffding_samples(VALIDATE_GAMMA, VALIDATE_DELTA) * 2
    per_attempt = gl_calls * gl_cost \
        + (k_cap + SCREEN_TRIES) * per_draw_tests + 2 * int_cost + 2 * validate
    gate = 16 * GATE_T_CAP * 8
    return gate + attempts * per_attempt


def attempt_loop(f: FunctionOracle, epsilon: float, rng, knobs: dict, propose,
                 anchors: int):
    """The randomized attempts both finders make, after their U^3 gate.

    Attempt i serves a choice sampler that is fresh every `anchors`
    attempts, draws sandwich-test parameters and calls
    propose(sampler, params), a generator of candidate objects.
    Each candidate is validated by a correlation estimate as it is
    yielded (negated when the estimate is negative), so the rng order
    stays propose -> validate -> propose.  Returns (candidate, estimate,
    attempt) for the attempt's best candidate once it reaches
    tau_accept, or None after m_attempts attempts.
    """
    phi_gamma, phi_delta, gl_phi = phi_knobs(epsilon)
    bsg_over = {k: knobs[k] for k in ("rho", "r", "s", "t_edge")}
    sampler = None
    for attempt in range(1, knobs["m_attempts"] + 1):
        if sampler is None or (attempt - 1) % anchors == 0:
            sampler = PhiSampler(f, phi_gamma, phi_delta, rng, **gl_phi)
        params = choose_bsg_params(epsilon, rng, **bsg_over)
        best = None
        for cand in propose(sampler, params):
            est = estimate_correlation(f, cand.as_oracle(), VALIDATE_GAMMA,
                                       VALIDATE_DELTA, rng)
            if est < 0:
                cand, est = cand.negated(), -est
            if best is None or est > best[1]:
                best = (cand, est)
        if best is not None and best[1] >= knobs["tau_accept"]:
            return (*best, attempt)
    return None


def find_quadratic(f: FunctionOracle, epsilon: float, delta: float, rng,
                   **overrides) -> FindQuadraticResult | None:
    """Either a quadratic phase correlating with f, or bottom (None).

    Gate first: reject unless the estimated U^3 mass clears 3 eps/4
    (the gate compares eighth powers with a sequential decisive-margin
    test, the scale a sampling test can resolve).  Then the attempt
    loop: linear map -> symmetrization -> integration -> validation
    against tau_accept.  Accepted graph vectors are pooled across
    attempts, and each attempt proposes the pool's map and its own.  A
    phase whose validation estimate falls below tau_accept is never
    returned.  Unknown knob names raise ValueError before any query.
    """
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    knobs = resolve_knobs(PRACTICAL_DEFAULTS, overrides)
    start_queries = f.query_count
    if not u3_power_gate(f, 3.0 * epsilon / 4.0, rng):
        return None
    pool: list[int] = []  # accepted graph vectors across attempts: every
    # clean acceptance lies on the same graph {(y, By)}, so pooling them
    # lets a handful of good points per choice draw add up to full rank;
    # validation still gates what is returned
    pool_misses = 0

    def propose(sampler, params):
        nonlocal pool, pool_misses
        lm = find_linear_map(sampler, params, rng, t_min=knobs["t_min"],
                             k_cap=knobs["k_cap"])
        if lm is None:
            return
        pool.extend(lm.vectors)
        candidates = [graph_linear_map(
            complete_basis_full_rank_projection(row_reduce(pool)[0], f.n), f.n)]
        if candidates[0] != lm.T:
            candidates.append(lm.T)
        for T in candidates:
            _, B = symmetrize(T)
            q = integrate(f, B, INTEGRATE_GAMMA, delta / 4.0, rng,
                          gl_kwargs=INTEGRATE_GL)
            if q is not None:
                yield q
        # reached once the candidates are validated; after an accepted
        # attempt the loop returns and the pool is never read again
        pool_misses += 1
        if pool_misses >= 4 and row_reduce(pool)[1] >= f.n:
            # the pool already determines a full map yet nothing validates:
            # that is a contamination signal, not slow accretion; shed it
            pool = list(lm.vectors)
            pool_misses = 0

    # anchor/threshold redraws served by one memoized choice draw before
    # the next fresh sampler: redraws cost almost nothing once the memo
    # is warm, while a fresh sampler pays for the whole table again
    found = attempt_loop(f, epsilon, rng, knobs, propose, anchors=6)
    if found is None:
        return None
    phase, est, attempt = found
    return FindQuadraticResult(phase=phase, correlation_estimate=est,
                               attempts=attempt,
                               queries=f.query_count - start_queries)
