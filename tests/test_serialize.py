"""File-format round trips."""

import numpy as np
import pytest

from f2quad import serialize
from f2quad.functions import (random_boolean_table, random_quadratic_average,
                              random_quadratic_phase)


def test_text_round_trip():
    rng = np.random.default_rng(0)
    tt = random_boolean_table(9, rng)
    text = serialize.table_to_text(tt)
    lines = text.split("\n")
    assert lines[0] == "n=9" and len(lines[1]) == 512
    back = serialize.table_from_text(text)
    assert back == tt


def test_binary_round_trip():
    rng = np.random.default_rng(1)
    for n in (1, 3, 8, 11):
        tt = random_boolean_table(n, rng)
        blob = serialize.table_to_binary(tt)
        assert len(blob) == 8 + ((1 << n) + 7) // 8
        assert int.from_bytes(blob[:8], "little") == n
        assert serialize.table_from_binary(blob) == tt


def test_binary_bit_convention():
    # bit = 1 means value -1, least significant bit first
    tt = serialize.table_from_binary((3).to_bytes(8, "little") + bytes([0b00000101]))
    assert list(tt.values) == [-1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        serialize.table_from_text("n=2\n++-\n")
    with pytest.raises(ValueError):
        serialize.table_from_text("nope\n++++\n")


@pytest.mark.parametrize("n", [99999999999, 25, 0, -1])
def test_text_rejects_header_dimension(n):
    # checked before the body length 2^n is ever formed
    with pytest.raises(ValueError, match="dimension"):
        serialize.table_from_text(f"n={n}\n++\n")


@pytest.mark.parametrize("n", [1 << 62, (1 << 64) - 1, 25, 0])
def test_binary_rejects_header_dimension(n):
    with pytest.raises(ValueError, match="dimension"):
        serialize.table_from_binary(n.to_bytes(8, "little") + bytes(16))


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    tt = random_boolean_table(7, rng)
    p1 = tmp_path / "t.txt"
    p2 = tmp_path / "t.bin"
    serialize.write_table(tt, p1)
    serialize.write_table(tt, p2, binary=True)
    assert serialize.read_table(p1) == tt
    assert serialize.read_table(p2) == tt


def test_phase_json_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = random_quadratic_phase(10, rng)
        assert serialize.phase_from_json(serialize.phase_to_json(q)) == q


def test_average_json_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        Q = random_quadratic_average(8, 2, rng)
        back = serialize.average_from_json(serialize.average_to_json(Q))
        assert back.n == Q.n and back.A == Q.A
        assert back.W.same_subspace(Q.W)
        assert back.coset_terms == Q.coset_terms
        tt1, tt2 = Q.truth_table(), back.truth_table()
        assert np.array_equal(tt1.values, tt2.values)


def test_spectrum_dump_format():
    rng = np.random.default_rng(5)
    from f2quad.fourier import wht
    tt = random_boolean_table(4, rng)
    text = serialize.spectrum_to_text(wht(tt))
    lines = [ln for ln in text.strip().split("\n")]
    assert len(lines) == 16
    alpha, coeff = lines[3].split()
    assert int(alpha, 16) == 3
    float(coeff)
