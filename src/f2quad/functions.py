"""Oracle-access functions on F_2^n, truth tables, and quadratic objects.

Oracles are query-counted and support batched evaluation: every query
goes through ``FunctionOracle.query_many`` on a uint64 point array, so
sampling estimators can run vectorized.  Truth-table-backed oracles are
immutable and replay-deterministic.  The oracle stack handles n up to
MAX_ORACLE_N (points are packed in single machine words); the gf2 core
alone goes higher.

Counting is separate from evaluation.  ``query_many`` charges each point
to the oracle asked and, through the class attribute ``reads`` (the
oracles a class reads and how many times per point), to every oracle
beneath it: a derivative charges its base twice per point, a product
each factor once.  Evaluation below the top reads the lower oracles'
``_evaluate`` and counts nothing, so an oracle that answers from a value
table (below) is charged exactly as one that reads its base each time,
and building a table is not a query.

Quadratic phases and averages share one vectorized kernel for the form
<x, Mx> + <alpha, x> = parity(x & (Mx ^ alpha)).  Mx is the XOR over the
8-bit chunks of x of ``tables[k][chunk_k(x)]``, where ``tables[k][v]`` is
M applied to v placed in chunk k: 256 uint64 entries per chunk (2^(n mod
8) for a short last chunk), so one evaluation costs ceil(n/8) gathers and
the tables take at most 16 KB at n = 63.  Each object builds its tables
on first evaluation and keeps them in its instance dict, outside the
dataclass fields, so equality and hashing are unaffected.  The form
ignores bits of x at or above n.

A quadratic object, and the residual and rounding oracles of the
decomposition loop, also keep a ``ValueTable``: once the points they
have been asked for reach 2^n in total, and if n <= MAX_TABLE_N (16),
the kernel fills a table of its own outputs at all 2^n points, 8 * 2^n
bytes (at most 512 KB), and every later call is one gather on the low n
bits of each point, so the values are those of the kernel bit for bit.
Building only then bounds the kernel work of an object by twice the
points it is asked for, and an object asked for fewer than 2^n points (a
one-off validation at n = 15 or 16, say) never builds one.  Above n = 16
the kernel answers every call, and it stays the reference the tests
compare the tables against.

A ``TableOracle`` answers the points 0 .. 2^n - 1 and raises IndexError
for every point at or above 2^n; an oracle built over one keeps that
error, because it leaves such points to the oracles beneath it.

``FunctionOracle.table`` hands the sampled estimators all 2^n values at
once, when they can be had without side effects: from a table oracle, a
quadratic phase or average behind ``as_oracle``, and a derivative,
product, residual or rounding oracle whose every input gives one.  A
``CallableOracle`` over an arbitrary function gives none.  Reading a
table is not a query; ``unit_table`` is the one accessor the estimators
use (see ``fourier``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math

import numpy as np

from .gf2 import (MAX_ENUM_N, MatF2, SubspaceF2, check_dim, dot, dot_many,
                  parity_many, sign_many, symmetric_split)

MAX_ORACLE_N = 63
MAX_TABLE_N = 16  # value tables of 2^n float64 entries, at most 512 KB


def rand_points(rng, n: int, size: int) -> np.ndarray:
    """size uniform points of F_2^n as uint64."""
    return rng.integers(0, 1 << n, size=size, dtype=np.uint64)


def hoeffding_samples(gamma: float, delta: float) -> int:
    """Samples for additive accuracy gamma at confidence 1 - delta.

    Uses t = ceil(2 ln(2/delta) / gamma^2), the C = 2 convention: for
    means of [-1,1]-valued samples, P(|mean - mu| > gamma) is at most
    2 exp(-t gamma^2 / 2) <= delta at this t.
    """
    if not (0 < gamma < 1 and 0 < delta < 1):
        raise ValueError("gamma and delta must lie in (0, 1)")
    return math.ceil(2.0 * math.log(2.0 / delta) / (gamma * gamma))


# -- oracles -------------------------------------------------------------------

class FunctionOracle:
    """Query-counted oracle access to a map F_2^n -> [-B, B].

    Subclasses implement ``_evaluate`` and declare ``reads``: the
    (attribute, queries per point) pairs of the oracles their
    ``_evaluate`` reads, empty for a leaf.  ``query_count`` increments
    once per queried point, and once per point and read for every oracle
    beneath.
    """

    reads: tuple[tuple[str, int], ...]  # no default: every class declares
    _unit_checked = None  # the last table unit_table accepted

    def __init__(self, n: int, bound: float = 1.0):
        check_dim(n, MAX_ORACLE_N)
        self.n = n
        self.bound = float(bound)
        self.query_count = 0

    def __call__(self, x: int) -> float:
        return float(self.query_many(np.asarray([x], dtype=np.uint64))[0])

    def query_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.uint64)
        self._charge(xs.size)
        return self._evaluate(xs)

    def _charge(self, points: int) -> None:
        self.query_count += points
        for name, times in self.reads:
            getattr(self, name)._charge(times * points)

    def _evaluate(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def table(self) -> np.ndarray | None:
        """The values at 0 .. 2^n - 1, equal to ``_evaluate`` there, or
        None when they cannot be had without side effects.  Counts
        nothing."""
        return None


class TableOracle(FunctionOracle):
    reads = ()

    def __init__(self, values: np.ndarray, n: int, bound: float = 1.0):
        super().__init__(n, bound)
        self._values = values

    def _evaluate(self, xs):
        # numpy reads a uint64 index through intp, so 2^64 - 1 would wrap
        # to the last entry; range-check, then gather through an intp view
        # (the faster index type)
        if xs.size and int(xs.max()) >> self.n:
            raise IndexError(f"point out of range for n = {self.n}")
        return self._values[xs.view(np.int64)]

    def table(self):
        return self._values


class CallableOracle(FunctionOracle):
    """Oracle from a vectorized evaluator ``fn(uint64 array) -> float64``.

    A leaf: whatever ``fn`` queries is counted by ``fn`` itself.  It
    gives a table only through ``table``, a function returning fn's
    2^n values (or None), which the owner of a pure ``fn`` passes."""

    reads = ()

    def __init__(self, fn, n: int, bound: float = 1.0, table=None):
        super().__init__(n, bound)
        self._fn = fn
        self._values_of = table

    def _evaluate(self, xs):
        return np.asarray(self._fn(xs), dtype=np.float64)

    def table(self):
        return None if self._values_of is None else self._values_of()


class DerivativeOracle(FunctionOracle):
    """f_x(y) = f(y) f(x + y): the multiplicative derivative of f at x.

    Each query is two base queries (counted on the base oracle).  Its
    values fill a ``ValueTable`` once the points asked for reach 2^n, or
    when ``table`` is read and the base gives one.
    """

    reads = (("base", 2),)

    def __init__(self, base: FunctionOracle, shift: int):
        super().__init__(base.n, base.bound ** 2)
        self.base = base
        self.shift = int(shift)
        self._table = ValueTable(self.n)

    def _product(self, xs):
        return query_product(self.base._evaluate, xs, xs ^ np.uint64(self.shift))

    def _evaluate(self, xs):
        return tabled(self, self._product, xs)

    def table(self):
        if self.base.table() is None:
            return None
        return self._table.full(self._product)


class ProductOracle(FunctionOracle):
    reads = (("f", 1), ("g", 1))

    def __init__(self, f: FunctionOracle, g: FunctionOracle):
        if f.n != g.n:
            raise ValueError("dimension mismatch")
        super().__init__(f.n, f.bound * g.bound)
        self.f = f
        self.g = g

    def _evaluate(self, xs):
        return self.f._evaluate(xs) * self.g._evaluate(xs)

    def table(self):
        f, g = self.f.table(), self.g.table()
        return None if f is None or g is None else f * g


def derivative(f: FunctionOracle, x: int) -> DerivativeOracle:
    return DerivativeOracle(f, x)


def query_product(query, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """query(xs) * query(ys) from one call on the concatenated points:
    same values and query count for a pointwise query map.
    (``ModelMembership`` decides unseen points in sorted order per call;
    there the two agree when every undecided point of ys is in xs.)
    """
    vals = query(np.concatenate((xs, ys)))
    return vals[:len(xs)] * vals[len(xs):]


# -- truth tables --------------------------------------------------------------

class TruthTable:
    """Dense table of 2^n values indexed by the integer encoding of x
    (first coordinate = least significant bit)."""

    __slots__ = ("n", "values")

    def __init__(self, values, n: int):
        check_dim(n, MAX_ENUM_N)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} entries, got {values.shape}")
        self.n = n
        self.values = values

    def is_boolean(self) -> bool:
        return bool(np.all(np.abs(np.abs(self.values) - 1.0) < 1e-12))

    def as_oracle(self) -> TableOracle:
        bound = float(np.max(np.abs(self.values))) if self.values.size else 1.0
        return TableOracle(self.values, self.n, bound=max(bound, 1.0))

    def copy(self) -> "TruthTable":
        return TruthTable(self.values.copy(), self.n)

    def __eq__(self, other):
        return (isinstance(other, TruthTable) and self.n == other.n
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"TruthTable(n={self.n})"


def correlation_exact(f: TruthTable, g: TruthTable) -> float:
    """<f, g> = E_x f(x) g(x), exactly."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return float(np.mean(f.values * g.values))


def estimate_correlation(f: FunctionOracle, g: FunctionOracle, gamma: float,
                         delta: float, rng) -> float:
    """Empirical <f, g> from t = hoeffding_samples(gamma, delta) draws.

    |estimate - <f,g>| <= gamma with probability >= 1 - delta for
    [-1,1]-bounded oracles; each oracle is queried exactly t times.
    """
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    t = hoeffding_samples(gamma, delta)
    xs = rand_points(rng, f.n, t)
    return float(np.mean(f.query_many(xs) * g.query_many(xs)))


# -- value tables --------------------------------------------------------------

class ValueTable:
    """The values of a kernel that reads only the low n bits of a point,
    served from a table of all 2^n of them once the points asked for
    reach 2^n (and n <= MAX_TABLE_N); the kernel answers until then."""

    def __init__(self, n: int):
        self.n = n
        self.values: np.ndarray | None = None
        self._asked = 0

    def __call__(self, kernel, xs: np.ndarray) -> np.ndarray:
        if self.values is None:
            self._asked += xs.size
            if self.n > MAX_TABLE_N or self._asked < 1 << self.n:
                return kernel(xs)
            self.full(kernel)
        return self.values[(xs & np.uint64(len(self.values) - 1)).view(np.int64)]

    def full(self, kernel) -> np.ndarray | None:
        """All 2^n values, filling the table now if it is empty; None
        above MAX_TABLE_N."""
        if self.values is None and self.n <= MAX_TABLE_N:
            self.values = kernel(np.arange(1 << self.n, dtype=np.uint64))
        return self.values


def tabled(oracle, kernel, xs: np.ndarray) -> np.ndarray:
    """kernel(xs) through the oracle's value table ``_table``.  A point at
    or above 2^n bypasses the table, so the oracles beneath decide what
    it means (a ``TableOracle`` root raises IndexError)."""
    if xs.size and int(xs.max()) >> oracle.n:
        return kernel(xs)
    return oracle._table(kernel, xs)


def unit_table(f: FunctionOracle, bins: int, t: int) -> np.ndarray | None:
    """f's table, for an estimator that bins t draws over 2^bins cells,
    when 2^bins <= t, n <= MAX_TABLE_N and every value is -1, 0 or 1;
    else None.  On such a table every sum of at most 2^24 sample
    products is an exact integer, in float32 as in float64, so binned
    sums equal the per-sample ones bit for bit.  A NaN anywhere in the
    table leaves the sampled path, which raises only when a draw reads
    it.  The check runs once per table array: tables are not written
    after they are handed out."""
    if (1 << bins) > t or f.n > MAX_TABLE_N:
        return None
    values = f.table()
    if values is not None and values is not f._unit_checked:
        mag = np.abs(values)
        if not np.all((mag == 1.0) | (mag == 0.0)):
            return None
        f._unit_checked = values
    return values


# -- quadratic phases ----------------------------------------------------------

def chunk_tables(M: MatF2) -> tuple[np.ndarray, ...]:
    """tables[k][v] = M (v << 8k) for every value v of the k-th 8-bit
    chunk of x (the last chunk keeps only the columns below n)."""
    cols = [M.column(j) for j in range(M.n_cols)]
    tables = []
    for lo in range(0, M.n_cols, 8):
        t = np.zeros(1, dtype=np.uint64)
        for col in cols[lo:lo + 8]:
            t = np.concatenate((t, t ^ np.uint64(col)))
        tables.append(t)
    return tuple(tables)


def quadratic_form_bits(xs: np.ndarray, tables, alpha: int) -> np.ndarray:
    """<x, Mx> + <alpha, x> over GF(2) per point, as uint8 bits, with M
    given by its ``chunk_tables``."""
    mx = tables[0][xs & np.uint64(len(tables[0]) - 1)]
    for k in range(1, len(tables)):
        t = tables[k]
        mx ^= t[(xs >> np.uint64(8 * k)) & np.uint64(len(t) - 1)]
    if alpha:
        mx ^= np.uint64(alpha)
    return parity_many(xs & mx)


@dataclass(frozen=True)
class QuadraticPhase:
    """(-1)^(<x, Mx> + <alpha, x> + c) with M strictly upper triangular.

    The representation is canonical: over GF(2) x_i^2 = x_i, so any
    diagonal folds into alpha, and only M_ij + M_ji matters off the
    diagonal.  Phase equality is field equality of the canonical form.
    """

    M: MatF2
    alpha: int
    c: int
    n: int

    def __post_init__(self):
        if self.M.n_rows != self.n or self.M.n_cols != self.n:
            raise ValueError("matrix shape must be n x n")
        for i, r in enumerate(self.M.rows):
            if r & ((1 << (i + 1)) - 1):
                raise ValueError("M must be strictly upper triangular; "
                                 "use QuadraticPhase.canonical")

    @classmethod
    def canonical(cls, M: MatF2, alpha: int = 0, c: int = 0) -> "QuadraticPhase":
        """Canonicalize an arbitrary square M: fold the diagonal into
        alpha and keep M_ij ^ M_ji strictly above the diagonal."""
        n = M.n_cols
        alpha ^= M.diag_vector()
        mt = M.transpose()
        rows = [(M.rows[i] ^ mt.rows[i]) & ~((1 << (i + 1)) - 1) for i in range(n)]
        return cls(MatF2(rows, n), alpha & ((1 << n) - 1), c & 1, n)

    @classmethod
    def zero(cls, n: int) -> "QuadraticPhase":
        return cls(MatF2.zeros(n, n), 0, 0, n)

    def symmetric_matrix(self) -> MatF2:
        """B = M + M^T, the symmetric zero-diagonal form of the phase."""
        return self.M + self.M.transpose()

    def form_bit(self, x: int) -> int:
        return dot(x, self.M.mul_vec(x)) ^ dot(self.alpha, x) ^ self.c

    def eval(self, x: int) -> float:
        return 1.0 - 2.0 * self.form_bit(x)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        return chunk_tables(self.M)

    @cached_property
    def _table(self) -> ValueTable:
        return ValueTable(self.n)

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        bits = quadratic_form_bits(xs, self._tables, self.alpha)
        return sign_many(bits ^ np.uint8(self.c))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return self._table(self._kernel, xs)

    def values(self) -> np.ndarray | None:
        """All 2^n values from the value table (None above MAX_TABLE_N)."""
        return self._table.full(self._kernel)

    def truth_table(self) -> TruthTable:
        xs = np.arange(1 << self.n, dtype=np.uint64)
        return TruthTable(self.eval_many(xs), self.n)

    def as_oracle(self) -> CallableOracle:
        return CallableOracle(self.eval_many, self.n, bound=1.0,
                              table=self.values)

    def negated(self) -> "QuadraticPhase":
        return QuadraticPhase(self.M, self.alpha, self.c ^ 1, self.n)


def eval_quadratic_phase(q: QuadraticPhase, x: int) -> float:
    if x >> q.n:
        raise ValueError("point has bits beyond the phase dimension")
    return q.eval(x)


# -- quadratic averages --------------------------------------------------------

@dataclass(frozen=True)
class QuadraticAverage:
    """Sum over cosets y+W of 1_{y+W}(x) (-1)^(<x,Ax> + <l_y,x> + c_y).

    All cosets share the quadratic part A and differ in the linear
    part; the value depends only on the coset of x.  Cosets are keyed
    by their canonical representative; missing cosets evaluate to 0.
    The complexity of the average is codim(W).
    """

    W: SubspaceF2
    A: MatF2
    coset_terms: dict  # canonical rep -> (l, c)
    n: int

    def __post_init__(self):
        if self.W.n != self.n or self.A.n_cols != self.n:
            raise ValueError("dimension mismatch")
        if len(self.coset_terms) > (1 << self.W.codim):
            raise ValueError("more coset terms than cosets")
        canon = {self.W.canonical_rep(y): lc for y, lc in self.coset_terms.items()}
        object.__setattr__(self, "coset_terms", canon)

    @property
    def complexity(self) -> int:
        return self.W.codim

    def eval(self, x: int) -> float:
        x = int(x) & ((1 << self.n) - 1)  # bits at or above n are ignored
        y = self.W.canonical_rep(x)
        term = self.coset_terms.get(y)
        if term is None:
            return 0.0
        l, c = term
        bit = dot(x, self.A.mul_vec(x)) ^ dot(l, x) ^ c
        return 1.0 - 2.0 * bit

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...]:
        return chunk_tables(self.A)

    @cached_property
    def _table(self) -> ValueTable:
        return ValueTable(self.n)

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return self._table(self._kernel, xs)

    def values(self) -> np.ndarray | None:
        """All 2^n values from the value table (None above MAX_TABLE_N)."""
        return self._table.full(self._kernel)

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        xs = xs & np.uint64((1 << self.n) - 1)
        reps = self.W.canonical_rep_many(xs)
        quad = quadratic_form_bits(xs, self._tables, 0)
        out = np.zeros(xs.shape, dtype=np.float64)
        for y, (l, c) in self.coset_terms.items():
            hit = reps == np.uint64(y)
            if not np.any(hit):
                continue
            out[hit] = sign_many(quad[hit] ^ dot_many(xs[hit], l) ^ np.uint8(c & 1))
        return out

    def truth_table(self) -> TruthTable:
        xs = np.arange(1 << self.n, dtype=np.uint64)
        return TruthTable(self.eval_many(xs), self.n)

    def as_oracle(self) -> CallableOracle:
        return CallableOracle(self.eval_many, self.n, bound=1.0,
                              table=self.values)

    def negated(self) -> "QuadraticAverage":
        flipped = {y: (l, c ^ 1) for y, (l, c) in self.coset_terms.items()}
        return QuadraticAverage(self.W, self.A, flipped, self.n)


# -- synthetic instances -------------------------------------------------------

def random_quadratic_phase(n: int, rng, density: float = 0.5) -> QuadraticPhase:
    rows = []
    for i in range(n):
        r = 0
        for j in range(i + 1, n):
            if rng.random() < density:
                r |= 1 << j
        rows.append(r)
    alpha = int(rng.integers(0, 1 << n))
    c = int(rng.integers(0, 2))
    return QuadraticPhase(MatF2(rows, n), alpha, c, n)


def _random_subspace(n: int, codim: int, rng) -> SubspaceF2:
    """W = the orthogonal complement of codim random nonzero vectors,
    redrawn until they are independent."""
    if not 0 <= codim <= n:  # no draw could ever reach this codimension
        raise ValueError(f"codim must lie in [0, n] = [0, {n}], got {codim}")
    while True:
        ortho = [int(rng.integers(1, 1 << n)) for _ in range(codim)]
        W = SubspaceF2(ortho, n)
        if W.codim == codim:
            return W


def random_quadratic_average(n: int, codim: int, rng) -> QuadraticAverage:
    """Random average with a shared quadratic part and a full set of
    per-coset linear terms."""
    W = _random_subspace(n, codim, rng)
    A = symmetric_split(random_symmetric_zero_diag(n, rng))
    terms = {}
    for y in W.coset_reps():
        terms[int(y)] = (int(rng.integers(0, 1 << n)), int(rng.integers(0, 2)))
    return QuadraticAverage(W, A, terms, n)


def coherent_quadratic_average(n: int, codim: int, rng) -> QuadraticAverage:
    """Planted average whose per-coset linear parts form an affine
    pattern (l_y = l_0 + L y) while the sign bits do not.

    Every derivative of such an average keeps its Fourier mass on a
    single character, so the choice-function machinery can actually
    sample the structure.  This is the recoverable benchmark family:
    fully independent per-coset linear parts split every derivative's
    mass into 2^codim shards, which no sampling budget can chase at
    desk dimensions.  For codim >= 3 the non-affine sign pattern has
    degree codim on the coset quotient, so no single quadratic phase
    represents the function; at codim 2 a phase representation also
    exists (every function on a 2-dimensional quotient has degree at
    most 2), though the average presentation is what the recovery
    machinery sees and returns.
    """
    W = _random_subspace(n, codim, rng)
    A = symmetric_split(random_symmetric_zero_diag(n, rng))
    reps = [int(y) for y in W.coset_reps()]
    l0 = int(rng.integers(0, 1 << n))
    L = MatF2.random(n, n, rng)
    terms = {}
    for y in reps:
        terms[y] = (l0 ^ L.mul_vec(y), 0)
    if codim > 0:
        flip = reps[int(rng.integers(1, len(reps)))]
        terms[flip] = (terms[flip][0], 1)  # weight-1 sign pattern: non-affine
    return QuadraticAverage(W, A, terms, n)


def random_symmetric_zero_diag(n: int, rng) -> MatF2:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.integers(0, 2):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return MatF2(rows, n)


def random_boolean_table(n: int, rng) -> TruthTable:
    vals = rng.integers(0, 2, size=1 << n).astype(np.float64) * 2.0 - 1.0
    return TruthTable(vals, n)


def make_noisy_codeword(q: QuadraticPhase, epsilon: float, rng) -> TruthTable:
    """Truth table of (-1)^q with each entry flipped independently with
    probability 1/2 - epsilon; expected correlation with q is 2 epsilon.
    """
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    tt = q.truth_table()
    flips = rng.random(1 << q.n) < (0.5 - epsilon)
    tt.values[flips] *= -1.0
    return tt


def make_noisy_codeword_exact(q: QuadraticPhase, epsilon: float, rng) -> TruthTable:
    """Adversarial variant: flip a uniformly random subset of exact size
    round((1/2 - epsilon) 2^n), so the Hamming distance is fixed."""
    if not 0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    tt = q.truth_table()
    k = round((0.5 - epsilon) * (1 << q.n))
    idx = rng.permutation(1 << q.n)[:k]
    tt.values[idx] *= -1.0
    return tt


def planted_sign_mixture(n: int, terms: list[tuple[int, float]], rng=None) -> TruthTable:
    """Boolean table sign(sum_j w_j chi_{a_j}); zeros broken by a seeded
    coin so the result is always +-1.  Spectra are read off exactly with
    the transform, which is what tests compare against."""
    xs = np.arange(1 << n, dtype=np.uint64)
    acc = np.zeros(1 << n, dtype=np.float64)
    for a, w in terms:
        acc += w * sign_many(dot_many(xs, a))
    vals = np.sign(acc)
    zero = vals == 0.0
    if np.any(zero):
        if rng is None:
            rng = np.random.default_rng(0)
        vals[zero] = rng.integers(0, 2, size=int(zero.sum())) * 2.0 - 1.0
    return TruthTable(vals, n)
