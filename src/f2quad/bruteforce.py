"""Ground-truth oracles for property tests: exhaustive quadratic search,
exact convolutions and sumsets, direct-definition uniformity norms, and
additive-quadruple counting.

Everything here is a trusted reference: routines hard-refuse above
their documented dimension caps instead of degrading, since a silently
approximate oracle would poison the tests that rely on it.
"""

from __future__ import annotations

import numpy as np

from .gf2 import MatF2, SubspaceF2, parity_many, sign_many
from .functions import QuadraticPhase, TruthTable
from .fourier import fwht

BEST_QUADRATIC_MAX_N = 6
CONVOLUTION_MAX_N = 16
QUADRUPLE_MAX_N = 14
T_SET_MAX_N = 12


class SetF2:
    """Subset of F_2^n as a dense membership array."""

    __slots__ = ("n", "flags")

    def __init__(self, flags, n: int):
        if n > 20:
            raise ValueError("SetF2 refuses n > 20")
        flags = np.asarray(flags, dtype=bool)
        if flags.shape != (1 << n,):
            raise ValueError("membership array must have 2^n entries")
        self.n = n
        self.flags = flags

    @classmethod
    def from_members(cls, members, n: int) -> "SetF2":
        flags = np.zeros(1 << n, dtype=bool)
        for m in members:
            flags[int(m)] = True
        return cls(flags, n)

    @classmethod
    def from_subspace(cls, S: SubspaceF2) -> "SetF2":
        return cls.from_members(S.enumerate_elements(), S.n)

    def members(self) -> np.ndarray:
        return np.flatnonzero(self.flags).astype(np.uint64)

    @property
    def size(self) -> int:
        return int(self.flags.sum())

    def density(self) -> float:
        return self.size / (1 << self.n)

    def indicator_table(self) -> TruthTable:
        return TruthTable(self.flags.astype(np.float64), self.n)

    def __eq__(self, other):
        return (isinstance(other, SetF2) and self.n == other.n
                and np.array_equal(self.flags, other.flags))

    def __repr__(self):
        return f"SetF2(n={self.n}, size={self.size})"


def _indicator_ints(h: TruthTable) -> np.ndarray:
    flags = np.rint(h.values).astype(np.int64)
    if not np.all((flags == 0) | (flags == 1)) or \
            not np.allclose(h.values, flags):
        raise ValueError("expected a 0/1-valued table")
    return flags


def convolution_power(h: TruthTable, k: int) -> TruthTable:
    """Exact k-fold self-convolution of a 0/1 table, normalized:
    (h*h)(x) = E_y h(y) h(x+y); k-fold is supported on the k-fold
    sumset.  Computed spectrally (the transform diagonalizes
    convolution); intermediate sums switch to arbitrary-precision
    integers when int64 would overflow, so results are exact.
    """
    if h.n > CONVOLUTION_MAX_N:
        raise ValueError(f"refusing n > {CONVOLUTION_MAX_N}")
    if k not in (2, 4):
        raise ValueError("k must be 2 or 4")
    m = 1 << h.n
    raw = fwht(_indicator_ints(h))
    if (k + 1) * h.n <= 62:
        powered = raw ** k
    else:
        powered = raw.astype(object) ** k
    counts = fwht(powered)  # m * count_k(x), integer-exact
    vals = np.array([int(c) // m for c in counts], dtype=np.float64)
    return TruthTable(vals / float(m) ** (k - 1), h.n)


def convolution_power_direct(h: TruthTable, k: int) -> TruthTable:
    """Direct counting route (quadratic time per fold), for cross-checks."""
    m = 1 << h.n
    idx = np.arange(m, dtype=np.uint64)
    out = np.array(h.values, dtype=np.float64)
    for _ in range(k - 1):
        nxt = np.empty(m, dtype=np.float64)
        for x in range(m):
            nxt[x] = float(np.mean(out * h.values[np.uint64(x) ^ idx]))
        out = nxt
    return TruthTable(out, h.n)


def sumset(A: SetF2, k: int) -> SetF2:
    """Exact k-fold sumset kA via iterated support-of-convolution."""
    if A.n > CONVOLUTION_MAX_N or not 1 <= k <= 16:
        raise ValueError("sumset supports n <= 16 and k <= 16")
    m = 1 << A.n
    base = fwht(A.flags.astype(np.int64))
    cur = A.flags.astype(np.int64)
    for _ in range(k - 1):
        counts = fwht(fwht(cur) * base)  # m * pair counts
        cur = (counts > 0).astype(np.int64)
    return SetF2(cur.astype(bool), A.n)


def count_additive_quadruples(A: SetF2) -> int:
    """Exact number of (a1, a2, a3, a4) in A^4 with a1+a2 = a3+a4.

    Equals sum_x r(x)^2 with r(x) = #{(a, b) in A^2 : a+b = x}.  The
    raw integer is returned; divide by |A|^3 for the usual quadruple
    density.
    """
    if A.n > QUADRUPLE_MAX_N:
        raise ValueError(f"refusing n > {QUADRUPLE_MAX_N}")
    raw = fwht(A.flags.astype(np.int64))
    r = fwht(raw * raw) >> A.n  # integer-exact: divisible by 2^n
    return int(np.sum(r.astype(object) ** 2))


def best_quadratic_correlation(f: TruthTable) -> tuple[QuadraticPhase, float]:
    """Global maximizer of |<f, (-1)^q>| over all quadratic phases.

    Enumerates all 2^(n(n-1)/2) strictly-upper matrices; for each, one
    transform of f * (-1)^(<x,Mx>) maximizes over the linear part and
    sign.  Ties break toward the smallest (matrix code, alpha).
    """
    if f.n > BEST_QUADRATIC_MAX_N:
        raise ValueError(f"refusing n > {BEST_QUADRATIC_MAX_N}")
    n = f.n
    m = 1 << n
    xs = np.arange(m, dtype=np.uint64)
    pair_bits = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pair_bits)
    pair_par = np.stack([(((xs >> np.uint64(i)) & (xs >> np.uint64(j)))
                          & np.uint64(1)).astype(np.int64)
                         for (i, j) in pair_bits]) if npairs else \
        np.zeros((0, m), dtype=np.int64)
    best_val = -1.0
    best = (0, 0, 0)
    chunk = 1 << 12
    for start in range(0, 1 << npairs, chunk):
        codes = np.arange(start, min(start + chunk, 1 << npairs), dtype=np.int64)
        sel = ((codes[:, None] >> np.arange(npairs)[None, :]) & 1)
        forms = (sel @ pair_par) & 1  # quadratic-form bits, chunk x m
        tables = f.values[None, :] * (1.0 - 2.0 * forms)
        spec = fwht(tables) / m
        flat = np.abs(spec)
        local = np.unravel_index(np.argmax(flat), flat.shape)
        v = float(flat[local])
        if v > best_val + 1e-15:
            best_val = v
            code = int(codes[local[0]])
            alpha = int(local[1])
            cbit = 0 if spec[local] >= 0 else 1
            best = (code, alpha, cbit)
    code, alpha, cbit = best
    rows = [0] * n
    for kk, (i, j) in enumerate(pair_bits):
        if (code >> kk) & 1:
            rows[i] |= 1 << j
    return QuadraticPhase(MatF2(rows, n), alpha, cbit, n), best_val


def best_quadratic_correlation_naive(f: TruthTable) -> tuple[QuadraticPhase, float]:
    """Second, independent implementation: loop phases one at a time and
    take exact correlations directly (no transform).  n <= 4."""
    if f.n > 4:
        raise ValueError("naive search refuses n > 4")
    n = f.n
    m = 1 << n
    best_val, best_q = -1.0, None
    pair_bits = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for code in range(1 << len(pair_bits)):
        rows = [0] * n
        for kk, (i, j) in enumerate(pair_bits):
            if (code >> kk) & 1:
                rows[i] |= 1 << j
        M = MatF2(rows, n)
        for alpha in range(m):
            for c in (0, 1):
                q = QuadraticPhase(M, alpha, c, n)
                corr = float(np.mean(f.values * q.truth_table().values))
                if corr > best_val + 1e-15:
                    best_val, best_q = corr, q
    return best_q, best_val


def u2_direct(f: TruthTable) -> float:
    """U^2 from the parallelepiped average, no transform involved."""
    fv = f.values
    m = len(fv)
    idx = np.arange(m, dtype=np.uint64)
    total = 0.0
    for h1 in range(m):
        u = fv * fv[idx ^ np.uint64(h1)]
        total += float(np.mean(u)) ** 2
    return (total / m) ** 0.25


def u3_direct(f: TruthTable) -> float:
    """U^3 from the full average over 3-dimensional parallelepipeds,
    grouped by the direction pair (h1, h2); no transform and no
    spectral identity anywhere.

    For fixed directions, the average over (x, h3) of the 8-point
    product is the square of the 4-point average (substitute
    z = x + h3).  Quadratic cost in the table size per direction pair.
    """
    if f.n > 8:
        raise ValueError("direct U^3 oracle refuses n > 8")
    fv = f.values
    m = len(fv)
    idx = np.arange(m, dtype=np.uint64)
    grid = (idx[:, None] ^ idx[None, :])
    total = 0.0
    for h1 in range(m):
        u = fv * fv[idx ^ np.uint64(h1)]
        g = (u[grid] * u[None, :]).mean(axis=1)  # g[h2] = E_x u(x) u(x+h2)
        total += float(np.mean(g * g))
    return (total / m) ** 0.125


# -- exhaustive choice-graph machinery ------------------------------------------

def exhaustive_coefficients(f: TruthTable, phi: np.ndarray) -> np.ndarray:
    """Exact |f_hat_x(phi(x))| for every x, given a materialized choice
    table phi."""
    m = 1 << f.n
    idx = np.arange(m, dtype=np.uint64)
    coeff = np.empty(m, dtype=np.float64)
    for x in range(m):
        deriv = f.values * f.values[np.uint64(x) ^ idx]
        signs = sign_many(parity_many(idx & np.uint64(phi[x])))
        coeff[x] = abs(float(np.mean(deriv * signs)))
    return coeff


def exhaustive_adjacency(f: TruthTable, phi: np.ndarray, gamma: float,
                         coeff: np.ndarray | None = None) -> np.ndarray:
    """Exact adjacency of the choice graph at threshold gamma:
    (a, b) is an edge iff phi(a) + phi(b) = phi(a+b) and the
    coefficients |f_hat_.(phi(.))| at a, b and a+b all reach gamma."""
    if f.n > T_SET_MAX_N:
        raise ValueError(f"refusing n > {T_SET_MAX_N}")
    if coeff is None:
        coeff = exhaustive_coefficients(f, phi)
    m = 1 << f.n
    idx = np.arange(m)
    xor = idx[:, None] ^ idx[None, :]
    phi_u = np.asarray(phi, dtype=np.uint64)
    lin = (phi_u[:, None] ^ phi_u[None, :]) == phi_u[xor]
    ok = coeff >= gamma - 1e-12
    return lin & ok[:, None] & ok[None, :] & ok[xor]


def exhaustive_t_set(f: TruthTable, phi: np.ndarray, u: int, gamma1: float,
                     gamma2: float, gamma3: float, rho1: float, rho2: float,
                     coeff: np.ndarray | None = None) -> SetF2:
    """Exact trimmed-neighborhood set T(u) of the choice graph.

    T(u) keeps the gamma1-neighbors v of u such that the fraction of
    vertices v1 that are gamma2-neighbors of u AND share at most a
    rho1-fraction of gamma3-neighborhood with v stays at most rho2.
    All probabilities run over the full vertex set; this is the set the
    sampling sandwich test approximates.
    """
    if coeff is None:
        coeff = exhaustive_coefficients(f, phi)
    m = 1 << f.n
    a1 = exhaustive_adjacency(f, phi, gamma1, coeff)
    a2 = a1 if gamma2 == gamma1 else exhaustive_adjacency(f, phi, gamma2, coeff)
    a3 = a1 if gamma3 == gamma1 else exhaustive_adjacency(f, phi, gamma3, coeff)
    af = a3.astype(np.float32)
    common = (af @ af.T) / m
    bad = common <= rho1 + 1e-12
    frac = (bad.astype(np.float32) @ a2[u].astype(np.float32)) / m
    flags = a1[u] & (frac <= rho2 + 1e-12)
    return SetF2(flags, f.n)
