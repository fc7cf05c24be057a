"""Bit-packed linear algebra over GF(2).

A vector in F_2^n is a plain Python integer: bit i holds coordinate i,
with the first coordinate in the least significant bit.  Addition is
XOR and the standard inner product <x, y> is the parity of ``x & y``.
Python integers keep their bits in machine words, so XOR/AND/popcount
are word-parallel at any dimension; the separate numpy helpers below
give a uint64 fast path for the dense, table-sized work (n <= 64).

Dimensions up to MAX_N are supported by the scalar routines.
Exhaustive enumeration helpers refuse to run above MAX_ENUM_N.
"""

from __future__ import annotations

import numpy as np

MAX_N = 4096
MAX_ENUM_N = 24


def check_dim(n: int, limit: int = MAX_N) -> None:
    if not 1 <= n <= limit:
        raise ValueError(f"dimension {n} outside supported range [1, {limit}]")


def parity(x: int) -> int:
    return x.bit_count() & 1


def dot(x: int, y: int) -> int:
    """Inner product <x, y> over GF(2)."""
    return (x & y).bit_count() & 1


def pivot_bit(x: int) -> int:
    """Index of the highest set bit (-1 for the zero vector)."""
    return x.bit_length() - 1


# -- numpy fast path (points packed in uint64, n <= 64) ----------------------

def parity_many(a: np.ndarray) -> np.ndarray:
    """Per-entry parity of uint64 words, as uint8 in {0, 1}."""
    return np.bitwise_count(a) & np.uint8(1)


def dot_many(xs: np.ndarray, y: int) -> np.ndarray:
    return parity_many(xs & np.uint64(y))


def sign_many(bits: np.ndarray) -> np.ndarray:
    """Map a 0/1 array to +1/-1 floats."""
    return 1.0 - 2.0 * bits.astype(np.float64)


def reduce_many(xs: np.ndarray, basis) -> np.ndarray:
    """Reduce each point modulo a reduced-echelon basis (vectorized)."""
    out = xs.astype(np.uint64, copy=True)
    for b in basis:
        p = pivot_bit(b)
        hit = (out >> np.uint64(p)) & np.uint64(1)
        out ^= np.uint64(b) * hit
    return out


def combine_many(coeffs: np.ndarray, basis) -> np.ndarray:
    """XOR-combine basis vectors selected by coefficient bits.

    ``coeffs`` holds one coefficient word per output point; bit i of a
    word selects basis[i].
    """
    out = np.zeros(coeffs.shape, dtype=np.uint64)
    for i, b in enumerate(basis):
        hit = (coeffs >> np.uint64(i)) & np.uint64(1)
        out ^= np.uint64(b) * hit
    return out


# -- elimination --------------------------------------------------------------

def row_reduce(vectors) -> tuple[list[int], int]:
    """Reduced echelon basis of the span of the given vectors.

    Pivots are the highest set bits; every pivot appears in exactly one
    basis vector.  Returns (basis sorted by descending pivot, rank).
    """
    basis: dict[int, int] = {}  # pivot bit -> row
    for v in vectors:
        v = int(v)
        while v:
            p = pivot_bit(v)
            if p in basis:
                v ^= basis[p]
            else:
                # clear any remaining pivot bits of v (one pass: stored
                # rows are themselves fully reduced), then back-substitute
                for q, row in basis.items():
                    if (v >> q) & 1:
                        v ^= row
                for q, row in list(basis.items()):
                    if (row >> p) & 1:
                        basis[q] = row ^ v
                basis[p] = v
                break
    rows = [basis[p] for p in sorted(basis, reverse=True)]
    return rows, len(rows)


def reduce_mod_basis(x: int, basis) -> int:
    """Canonical coset representative of x modulo span(basis).

    With a reduced echelon basis this clears every pivot bit, yielding
    the unique (minimal) representative of the coset.
    """
    for b in basis:
        if (x >> pivot_bit(b)) & 1:
            x ^= b
    return x


class SpanBuilder:
    """Incremental span with rank tracking (for adaptive sampling loops)."""

    def __init__(self):
        self._basis: dict[int, int] = {}

    def add(self, v: int) -> bool:
        """Insert v; True if the rank grew."""
        v = int(v)
        while v:
            p = pivot_bit(v)
            if p in self._basis:
                v ^= self._basis[p]
            else:
                self._basis[p] = v
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self._basis)

    def basis(self) -> list[int]:
        rows, _ = row_reduce(self._basis.values())
        return rows


def nullspace(rows, n: int) -> list[int]:
    """Basis of {x in F_2^n : <r, x> = 0 for every row r}."""
    check_dim(n)
    red, _ = row_reduce(rows)
    pivots = [pivot_bit(r) for r in red]
    pivot_set = set(pivots)
    out = []
    for f in range(n - 1, -1, -1):
        if f in pivot_set:
            continue
        v = 1 << f
        for r, p in zip(red, pivots):
            if (r >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def solve_linear_system(rows, rhs_bits, n_cols: int):
    """Solve A x = b over GF(2).

    ``rows`` are the packed rows of A, ``rhs_bits`` an iterable of 0/1.
    Returns a solution as a packed int, or None if inconsistent.
    """
    aug: dict[int, tuple[int, int]] = {}  # pivot -> (row, rhs bit)
    for r, b in zip(rows, rhs_bits):
        r, b = int(r), int(b) & 1
        while r:
            p = pivot_bit(r)
            if p in aug:
                ar, ab = aug[p]
                r ^= ar
                b ^= ab
            else:
                for q, (ar, ab) in aug.items():
                    if (r >> q) & 1:
                        r ^= ar
                        b ^= ab
                for q, (ar, ab) in list(aug.items()):
                    if (ar >> p) & 1:
                        aug[q] = (ar ^ r, ab ^ b)
                aug[p] = (r, b)
                break
        else:
            if b:
                return None
    # fully reduced: each row holds its pivot plus free bits; with free
    # coordinates set to zero the solution is the OR of pivots with b = 1
    x = 0
    for p, (_, b) in aug.items():
        if b:
            x |= 1 << p
    return x & ((1 << n_cols) - 1)


# -- matrices -----------------------------------------------------------------

class MatF2:
    """Dense GF(2) matrix with bit-packed rows (bit j of row i = entry ij)."""

    __slots__ = ("rows", "n_rows", "n_cols")

    def __init__(self, rows, n_cols: int):
        self.rows = tuple(int(r) for r in rows)
        self.n_rows = len(self.rows)
        self.n_cols = n_cols
        mask = (1 << n_cols) - 1
        if any(r & ~mask for r in self.rows):
            raise ValueError("row has bits beyond n_cols")

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "MatF2":
        return cls([0] * n_rows, n_cols)

    @classmethod
    def identity(cls, n: int) -> "MatF2":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def random(cls, n_rows: int, n_cols: int, rng) -> "MatF2":
        return cls([int(rng.integers(0, 1 << n_cols)) for _ in range(n_rows)], n_cols)

    def __eq__(self, other):
        return (isinstance(other, MatF2) and self.rows == other.rows
                and self.n_cols == other.n_cols)

    def __hash__(self):
        return hash((self.rows, self.n_cols))

    def __repr__(self):
        return f"MatF2({self.n_rows}x{self.n_cols})"

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def column(self, j: int) -> int:
        c = 0
        for i, r in enumerate(self.rows):
            c |= ((r >> j) & 1) << i
        return c

    def mul_vec(self, x: int) -> int:
        y = 0
        for i, r in enumerate(self.rows):
            y |= dot(r, x) << i
        return y

    def mul_vec_many(self, xs: np.ndarray) -> np.ndarray:
        ys = np.zeros(xs.shape, dtype=np.uint64)
        for i, r in enumerate(self.rows):
            ys |= dot_many(xs, r).astype(np.uint64) << np.uint64(i)
        return ys

    def transpose(self) -> "MatF2":
        return MatF2([self.column(j) for j in range(self.n_cols)], self.n_rows)

    def __add__(self, other: "MatF2") -> "MatF2":
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("shape mismatch")
        return MatF2([a ^ b for a, b in zip(self.rows, other.rows)], self.n_cols)

    def __matmul__(self, other: "MatF2") -> "MatF2":
        if self.n_cols != other.n_rows:
            raise ValueError("shape mismatch")
        cols = [other.column(j) for j in range(other.n_cols)]
        rows = []
        for r in self.rows:
            out = 0
            for j, c in enumerate(cols):
                out |= dot(r, c) << j
            rows.append(out)
        return MatF2(rows, other.n_cols)

    def is_symmetric(self) -> bool:
        return self.n_rows == self.n_cols and self.rows == self.transpose().rows

    def diag_vector(self) -> int:
        v = 0
        for i in range(min(self.n_rows, self.n_cols)):
            v |= self.entry(i, i) << i
        return v

    def is_zero_diag(self) -> bool:
        return self.diag_vector() == 0

    def rank(self) -> int:
        return row_reduce(self.rows)[1]


def symmetric_split(B: MatF2) -> MatF2:
    """Strictly upper triangular M with M + M^T = B.

    B must be symmetric with zero diagonal; anything else is an input
    error (the split is only defined there, and then it is forced).
    """
    if B.n_rows != B.n_cols:
        raise ValueError("B must be square")
    if not B.is_symmetric():
        raise ValueError("B must be symmetric")
    if not B.is_zero_diag():
        raise ValueError("B must have zero diagonal")
    rows = [r & ~((1 << (i + 1)) - 1) for i, r in enumerate(B.rows)]
    return MatF2(rows, B.n_cols)


# -- graph-basis completion ---------------------------------------------------

def complete_basis_full_rank_projection(vectors, n: int) -> list[int]:
    """Extend independent vectors of F_2^{2n} so the first-n projection
    has full rank.

    Points of F_2^{2n} pack the first half in bits [0, n) and the second
    half in bits [n, 2n).  The returned list starts with the input
    vectors and appends (e_j, 0) for every missing projection pivot.
    """
    vecs = [int(v) for v in vectors]
    lo_mask = (1 << n) - 1
    red, _ = row_reduce(v & lo_mask for v in vecs)
    have = {pivot_bit(r) for r in red}
    out = list(vecs)
    for j in range(n):
        if j not in have:
            out.append(1 << j)
    return out


def graph_linear_map(vectors, n: int) -> MatF2:
    """Read the linear map T off a basis whose span contains, for each i,
    a vector of the form (e_i, u_i); then column i of T is u_i.

    The input must have a full-rank projection onto the first n
    coordinates (see complete_basis_full_rank_projection).  Vectors of
    the form (0, w) in the span are ignored: they parametrize the
    freedom in T, and any consistent choice is returned.
    """
    lo_mask = (1 << n) - 1
    # eliminate by the low (first-n) part only
    rows: dict[int, int] = {}
    for v in vectors:
        v = int(v)
        while v & lo_mask:
            p = pivot_bit(v & lo_mask)
            if p in rows:
                v ^= rows[p]
            else:
                for q, row in rows.items():
                    if ((v & lo_mask) >> q) & 1:
                        v ^= row
                for q, row in list(rows.items()):
                    if ((row & lo_mask) >> p) & 1:
                        rows[q] = row ^ v
                rows[p] = v
                break
    if len(rows) < n:
        raise ValueError("projection onto the first n coordinates is rank deficient")
    cols = [rows[i] >> n for i in range(n)]  # u_i for x-part e_i
    t_rows = []
    for i in range(n):
        r = 0
        for j in range(n):
            r |= ((cols[j] >> i) & 1) << j
        t_rows.append(r)
    return MatF2(t_rows, n)


# -- subspaces ----------------------------------------------------------------

class SubspaceF2:
    """Subspace of F_2^n stored by a basis of its orthogonal complement.

    Membership is x in V iff <b, x> = 0 for every stored b.  A spanning
    basis of V itself is derived lazily (nullspace of the stored rows);
    coset representatives are canonicalized by reducing modulo that
    basis, which clears its pivot bits and yields the minimal element
    of the coset.
    """

    __slots__ = ("n", "ortho_basis", "coset_rep", "_basis")

    def __init__(self, ortho_basis, n: int, coset_rep: int | None = None):
        check_dim(n)
        rows, _ = row_reduce(ortho_basis)
        self.n = n
        self.ortho_basis = tuple(rows)
        self.coset_rep = coset_rep
        self._basis = None

    @classmethod
    def full_space(cls, n: int) -> "SubspaceF2":
        return cls([], n)

    @classmethod
    def from_span(cls, vectors, n: int) -> "SubspaceF2":
        return cls(nullspace(vectors, n), n)

    @property
    def codim(self) -> int:
        return len(self.ortho_basis)

    @property
    def dim(self) -> int:
        return self.n - self.codim

    def contains(self, x: int) -> bool:
        return all(dot(b, x) == 0 for b in self.ortho_basis)

    def contains_many(self, xs: np.ndarray) -> np.ndarray:
        ok = np.ones(xs.shape, dtype=bool)
        for b in self.ortho_basis:
            ok &= dot_many(xs, b) == 0
        return ok

    def basis(self) -> tuple[int, ...]:
        if self._basis is None:
            # re-echelonize: nullspace vectors are independent but their
            # top bits need not be distinct, and canonical_rep relies on
            # a fully reduced basis
            self._basis = tuple(row_reduce(nullspace(self.ortho_basis, self.n))[0])
        return self._basis

    def orthogonal_complement(self) -> "SubspaceF2":
        """V^perp; applying this twice returns a subspace equal to V."""
        return SubspaceF2(self.basis(), self.n)

    def same_subspace(self, other: "SubspaceF2") -> bool:
        return self.n == other.n and row_reduce(self.ortho_basis)[0] == \
            row_reduce(other.ortho_basis)[0]

    def is_subspace_of(self, other: "SubspaceF2") -> bool:
        """True if self <= other (every member of self lies in other)."""
        return all(other.contains(b) for b in self.basis())

    def canonical_rep(self, x: int) -> int:
        return reduce_mod_basis(x, self.basis())

    def canonical_rep_many(self, xs: np.ndarray) -> np.ndarray:
        return reduce_many(xs, self.basis())

    def random_element(self, rng) -> int:
        x = 0
        for b in self.basis():
            if rng.integers(0, 2):
                x ^= b
        return x

    def enumerate_elements(self) -> np.ndarray:
        if self.dim > MAX_ENUM_N:
            raise ValueError(f"refusing to enumerate a subspace of dimension {self.dim}")
        elems = np.zeros(1, dtype=np.uint64)
        for b in self.basis():
            elems = np.concatenate([elems, elems ^ np.uint64(b)])
        return elems

    def coset_reps(self) -> np.ndarray:
        """All canonical coset representatives (2^codim of them)."""
        if self.codim > MAX_ENUM_N:
            raise ValueError(f"refusing to enumerate 2^{self.codim} cosets")
        free = [j for j in range(self.n)
                if j not in {pivot_bit(b) for b in self.basis()}]
        reps = np.zeros(1, dtype=np.uint64)
        for j in free:
            reps = np.concatenate([reps, reps ^ np.uint64(1 << j)])
        return reps

    def __repr__(self):
        tag = "" if self.coset_rep is None else f", coset_rep={self.coset_rep:#x}"
        return f"SubspaceF2(n={self.n}, codim={self.codim}{tag})"
