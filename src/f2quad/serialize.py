"""File formats for truth tables, spectra and quadratic objects.

Truth tables (text): line 1 is "n=<int>", line 2 a string of 2^n
characters in {+,-} ordered by the integer encoding of x, least
significant bit first.  Truth tables (binary): 8-byte little-endian n,
then ceil(2^n/8) bytes, bit = 1 meaning value -1, bits packed least
significant first within each byte.

Quadratic phases (JSON): {"n": .., "M": [hex row strings, one per
row], "alpha": "hex", "c": 0|1}; row i's bit j (from the least
significant end of the hex value) is entry (i, j).  Quadratic averages
add {"W_ortho": [hex..], "A": [hex..], "cosets": [{"y": "hex",
"l": "hex", "c": 0|1}, ..]}.

Spectrum dumps (text): one line per character, "hex(alpha) coefficient".
"""

from __future__ import annotations

import json

import numpy as np

from .gf2 import MAX_ENUM_N, MatF2, SubspaceF2, check_dim
from .functions import QuadraticAverage, QuadraticPhase, TruthTable
from .fourier import FourierSpectrum


def _hex(v: int) -> str:
    return format(int(v), "x")


def _unhex(s: str) -> int:
    return int(s, 16)


# -- truth tables ----------------------------------------------------------------

def table_to_text(tt: TruthTable) -> str:
    if not tt.is_boolean():
        raise ValueError("text format stores Boolean tables only")
    chars = np.where(tt.values > 0, "+", "-")
    return f"n={tt.n}\n" + "".join(chars) + "\n"


def table_from_text(text: str) -> TruthTable:
    lines = text.strip().split("\n")
    if len(lines) < 2 or not lines[0].startswith("n="):
        raise ValueError("malformed truth-table text")
    n = int(lines[0][2:])
    check_dim(n, MAX_ENUM_N)  # before 1 << n can exhaust memory
    body = lines[1].strip()
    if len(body) != 1 << n or set(body) - {"+", "-"}:
        raise ValueError("truth-table body must be 2^n characters of +/-")
    vals = np.where(np.frombuffer(body.encode(), dtype=np.uint8) ==
                    ord("+"), 1.0, -1.0)
    return TruthTable(vals, n)


def table_to_binary(tt: TruthTable) -> bytes:
    if not tt.is_boolean():
        raise ValueError("binary format stores Boolean tables only")
    bits = (tt.values < 0).astype(np.uint8)  # bit = 1 means -1
    packed = np.packbits(bits, bitorder="little")
    return int(tt.n).to_bytes(8, "little") + packed.tobytes()


def table_from_binary(blob: bytes) -> TruthTable:
    if len(blob) < 8:
        raise ValueError("truncated binary truth table")
    n = int.from_bytes(blob[:8], "little")
    check_dim(n, MAX_ENUM_N)  # before 1 << n can exhaust memory
    m = 1 << n
    need = (m + 7) // 8
    if len(blob) < 8 + need:
        raise ValueError("truncated binary truth table")
    bits = np.unpackbits(np.frombuffer(blob[8:8 + need], dtype=np.uint8),
                         bitorder="little")[:m]
    return TruthTable(np.where(bits == 1, -1.0, 1.0), n)


def write_table(tt: TruthTable, path, binary: bool = False) -> None:
    if binary:
        with open(path, "wb") as fh:
            fh.write(table_to_binary(tt))
    else:
        with open(path, "w") as fh:
            fh.write(table_to_text(tt))


def read_table(path) -> TruthTable:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob.startswith(b"n="):
        return table_from_text(blob.decode())
    return table_from_binary(blob)


# -- spectra ----------------------------------------------------------------------

def spectrum_to_text(spec: FourierSpectrum, threshold: float = 0.0) -> str:
    lines = []
    for a in range(1 << spec.n):
        c = float(spec.coefficients[a])
        if abs(c) >= threshold:
            lines.append(f"{_hex(a)} {c!r}")
    return "\n".join(lines) + "\n"


# -- quadratic objects -------------------------------------------------------------

def phase_to_dict(q: QuadraticPhase) -> dict:
    return {"n": q.n, "M": [_hex(r) for r in q.M.rows],
            "alpha": _hex(q.alpha), "c": int(q.c)}


def phase_from_dict(d: dict) -> QuadraticPhase:
    n = int(d["n"])
    M = MatF2([_unhex(r) for r in d["M"]], n)
    return QuadraticPhase(M, _unhex(d["alpha"]), int(d["c"]) & 1, n)


def average_to_dict(Q: QuadraticAverage) -> dict:
    return {"n": Q.n,
            "W_ortho": [_hex(b) for b in Q.W.ortho_basis],
            "A": [_hex(r) for r in Q.A.rows],
            "cosets": [{"y": _hex(y), "l": _hex(l), "c": int(c)}
                       for y, (l, c) in sorted(Q.coset_terms.items())]}


def average_from_dict(d: dict) -> QuadraticAverage:
    n = int(d["n"])
    W = SubspaceF2([_unhex(b) for b in d["W_ortho"]], n)
    A = MatF2([_unhex(r) for r in d["A"]], n)
    terms = {_unhex(e["y"]): (_unhex(e["l"]), int(e["c"]) & 1)
             for e in d["cosets"]}
    return QuadraticAverage(W, A, terms, n)


def phase_to_json(q: QuadraticPhase) -> str:
    return json.dumps(phase_to_dict(q), sort_keys=True)


def phase_from_json(s: str) -> QuadraticPhase:
    return phase_from_dict(json.loads(s))


def average_to_json(Q: QuadraticAverage) -> str:
    return json.dumps(average_to_dict(Q), sort_keys=True)


def average_from_json(s: str) -> QuadraticAverage:
    return average_from_dict(json.loads(s))
