"""Command-line interface: exit codes, formats, determinism."""

import hashlib
import json

import numpy as np
import pytest

from f2quad import serialize
from f2quad.cli import EXIT_BOTTOM, EXIT_INPUT, EXIT_OK, derive_rng, main
from f2quad.fourier import exact_u3
from f2quad.functions import correlation_exact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_then_find_quad_roundtrip(tmp_path, capsys):
    tab = tmp_path / "t.txt"
    meta = tmp_path / "meta.json"
    code, _ = run(capsys, "gen", "--n", "10", "--plant", "quad",
                  "--epsilon", "0.25", "--seed", "7", "--out", str(tab),
                  "--meta-out", str(meta))
    assert code == EXIT_OK
    code, out = run(capsys, "find-quad", "--in", str(tab), "--epsilon", "0.25",
                    "--seed", "3", "--tau-accept", "0.12")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["correlation_estimate"] >= 0.1
    assert payload["attempts"] >= 1 and payload["queries"] > 0
    # exact cross-check of the reported phase against the table
    tt = serialize.read_table(tab)
    q = serialize.phase_from_dict(payload)
    assert correlation_exact(q.truth_table(), tt) >= 0.1


def test_u3_exact_on_codeword(tmp_path, capsys):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "quad", "--seed", "1",
        "--out", str(tab))
    code, out = run(capsys, "u3", "--exact", "--in", str(tab))
    assert code == EXIT_OK
    assert float(out.strip()) == 1.0


def test_u3_sampled_output_pinned(tmp_path, capsys):
    # 3,302,398 parallelepipeds: four draw chunks, the last one partial
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "10", "--seed", "3", "--epsilon", "0.3",
        "--out", str(tab))
    code, out = run(capsys, "u3", "--in", str(tab), "--seed", "7")
    assert code == EXIT_OK
    assert out == "0.6079090719714701\n"


def test_find_quad_random_table_bottom(tmp_path, capsys):
    tab = tmp_path / "r.txt"
    run(capsys, "gen", "--n", "10", "--plant", "random", "--seed", "5",
        "--out", str(tab))
    # premise: the gate threshold clears the random-table norm floor
    assert exact_u3(serialize.read_table(tab)) < 0.75 * 0.8
    code, _ = run(capsys, "find-quad", "--in", str(tab), "--epsilon", "0.8",
                  "--seed", "2")
    assert code == EXIT_BOTTOM


def test_determinism_byte_identical(tmp_path, capsys):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "quad", "--seed", "9",
        "--out", str(tab))
    outs = []
    for _ in range(2):
        code, out = run(capsys, "find-quad", "--in", str(tab),
                        "--epsilon", "0.5", "--seed", "11")
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_gen_binary_and_text_agree(tmp_path, capsys):
    t1 = tmp_path / "a.txt"
    t2 = tmp_path / "a.bin"
    run(capsys, "gen", "--n", "9", "--plant", "random", "--seed", "4",
        "--out", str(t1))
    run(capsys, "gen", "--n", "9", "--plant", "random", "--seed", "4",
        "--out", str(t2), "--binary")
    assert serialize.read_table(t1) == serialize.read_table(t2)


def test_wht_dump(tmp_path, capsys):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "6", "--plant", "quad", "--seed", "3",
        "--out", str(tab))
    code, out = run(capsys, "wht", "--in", str(tab), "--threshold", "0.2")
    assert code == EXIT_OK
    for line in out.strip().split("\n"):
        a, c = line.split()
        int(a, 16)
        assert abs(float(c)) >= 0.2


def test_gl_report(tmp_path, capsys):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "random", "--seed", "12",
        "--out", str(tab))
    code, out = run(capsys, "gl", "--in", str(tab), "--gamma", "0.5")
    assert code == EXIT_OK


def test_find_avg_on_planted_average(tmp_path, capsys):
    tab = tmp_path / "avg.txt"
    run(capsys, "gen", "--n", "10", "--plant", "avg", "--codim", "2",
        "--seed", "6", "--out", str(tab))
    code, out = run(capsys, "find-avg", "--in", str(tab), "--epsilon", "0.3",
                    "--seed", "8", "--tau-accept", "0.2")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["complexity"] <= 6
    Q = serialize.average_from_dict(payload)
    tt = serialize.read_table(tab)
    assert correlation_exact(Q.truth_table(), tt) >= 0.15


def test_decompose_json(tmp_path, capsys):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "quad", "--seed", "13",
        "--out", str(tab))
    code, out = run(capsys, "decompose", "--in", str(tab), "--epsilon", "0.3",
                    "--bound", "2.0", "--seed", "21")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload) == {"eta", "terms", "residual_u3_estimate", "e_l1", "k"}
    assert payload["k"] == len(payload["terms"]) <= 4


@pytest.mark.parametrize("plant, mode, digest", [
    (["quad", "--epsilon", "0.3", "--seed", "4"], "phases",
     "bb1a5ec5575d89fab344aa3da09b4fcf17309215f040a7e0a90059f2c7afd75a"),
    (["avg", "--codim", "2", "--epsilon", "0.4", "--seed", "5"], "averages",
     "68a0b6ea7383f3e9c390e3d16261098de6e9921e834e3d6dce2e3891ec64066d"),
], ids=["phases", "averages"])
def test_decompose_seeded_output_pinned(tmp_path, capsys, plant, mode, digest):
    # pinned before the value tables of the quadratic objects and the
    # rounding draw: serving them from tables moves no query or draw
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "6", "--plant", *plant, "--out", str(tab))
    code, out = run(capsys, "decompose", "--in", str(tab), "--seed", "3",
                    "--mode", mode)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--seed", "2")
    assert code == EXIT_OK
    assert "[FAIL]" not in out and "[PASS]" in out


def test_missing_input_is_input_error(capsys):
    code, _ = run(capsys, "wht")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("blob", [b"n=99999999999\n+-\n",
                                  (1 << 62).to_bytes(8, "little") + bytes(8)])
def test_huge_header_is_input_error(tmp_path, capsys, blob):
    tab = tmp_path / "t.tab"
    tab.write_bytes(blob)
    code = main(["wht", "--in", str(tab)])
    assert code == EXIT_INPUT
    assert "outside supported range" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["find-quad", "find-avg"])
def test_missing_epsilon_is_input_error(tmp_path, capsys, cmd):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "4", "--plant", "random", "--out", str(tab))
    code = main([cmd, "--in", str(tab)])
    assert code == EXIT_INPUT
    assert "--epsilon is required" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eta", "--bound"])
def test_decompose_zero_parameter_is_input_error(tmp_path, capsys, flag):
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "4", "--plant", "random", "--out", str(tab))
    code = main(["decompose", "--in", str(tab), flag, "0"])
    assert code == EXIT_INPUT
    assert "B > 1 and eta > 0" in capsys.readouterr().err


@pytest.mark.parametrize("codim", ["9", "-1"])
def test_gen_avg_codim_out_of_range_is_input_error(tmp_path, capsys, codim):
    tab = tmp_path / "t.txt"
    code = main(["gen", "--n", "6", "--plant", "avg", "--codim", codim,
                 "--out", str(tab)])
    assert code == EXIT_INPUT
    assert "codim must lie in [0, n]" in capsys.readouterr().err
    assert not tab.exists()


@pytest.mark.parametrize("n", ["0", "25"])
def test_gen_n_out_of_range_is_input_error(tmp_path, capsys, n):
    # refused before the 2^n table is drawn or allocated
    tab = tmp_path / "t.txt"
    code = main(["gen", "--n", n, "--out", str(tab)])
    assert code == EXIT_INPUT
    assert "outside supported range [1, 24]" in capsys.readouterr().err
    assert not tab.exists()


@pytest.mark.parametrize("argv, msg", [
    (["--epsilon", "abc"], "invalid float value: 'abc'"),
    (["--epsilon", "0.5", "--bogus"], "unrecognized arguments: --bogus"),
    (["--epsilon", "0.5", "--m-attempts", "0"], "--m-attempts must be at least 1"),
    (["--epsilon", "0.5", "--rho", "0"], "rho must lie in (0, 1]"),
    (["--epsilon", "0.5", "--r", "0"], "r must be at least 1"),
    (["--epsilon", "0.5", "--s", "0"], "s must be at least 1"),
    (["--epsilon", "0.5", "--s", "-1"], "s must be at least 1"),
    (["--epsilon", "0.5", "--t-edge", "0"], "t_edge must be at least 1"),
    (["--epsilon", "0.5", "--t-edge", "-5"], "t_edge must be at least 1"),
])
def test_usage_errors_are_input_errors(tmp_path, capsys, argv, msg):
    # exit 2 means bottom, so a usage error must not exit with it
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "4", "--plant", "quad", "--out", str(tab))
    code = main(["find-quad", "--in", str(tab), *argv])
    assert code == EXIT_INPUT
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("argv, msg", [
    (["gl", "--gamma", "0.06"], "at or above 2^24"),
    (["gl", "--gamma", "0.1", "--delta", "1e-100"], "at or above 2^24"),
])
def test_unrunnable_sample_counts_are_input_errors(tmp_path, capsys, argv, msg):
    # Hoeffding counts past 2^24 samples are refused before any sampling,
    # whether a small gamma (gl: 35M per level at n=8) or a tiny delta at
    # a gamma that runs by default (77M per level) forces them
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "quad", "--seed", "1",
        "--out", str(tab))
    code = main([argv[0], "--in", str(tab), *argv[1:]])
    assert code == EXIT_INPUT
    assert msg in capsys.readouterr().err


@pytest.mark.parametrize("command", ["find-quad", "find-avg"])
def test_every_override_is_a_known_knob(tmp_path, capsys, command):
    # an unknown knob name would exit 1; 0 or 2 means every override resolved
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "5", "--plant", "quad", "--seed", "1",
        "--out", str(tab))
    code = main([command, "--in", str(tab), "--epsilon", "0.5", "--rho", "0.3",
                 "--t-edge", "256", "--r", "4", "--s", "4", "--tau-accept",
                 "0.05", "--m-attempts", "1"])
    assert code in (EXIT_OK, EXIT_BOTTOM), capsys.readouterr().err


def test_paper_profile_rejects_overrides(tmp_path, capsys):
    # with the profile gone, a profile name next to a knob override is
    # still refused as an input error, never silently run
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "quad", "--seed", "1",
        "--out", str(tab))
    code, _ = run(capsys, "find-quad", "--in", str(tab), "--epsilon", "0.5",
                  "--profile", "paper", "--rho", "0.3")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["find-quad", "find-avg"])
def test_profile_option_is_removed(tmp_path, capsys, command):
    # the paper driver profile could not run at any epsilon; its
    # constants survive only as audited formulas
    tab = tmp_path / "t.txt"
    run(capsys, "gen", "--n", "8", "--plant", "quad", "--seed", "1",
        "--out", str(tab))
    code = main([command, "--in", str(tab), "--epsilon", "0.5",
                 "--profile", "paper"])
    assert code == EXIT_INPUT
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


def test_derive_rng_separates_streams():
    a = derive_rng(5, "x", 0).integers(0, 1 << 30, size=8)
    b = derive_rng(5, "x", 1).integers(0, 1 << 30, size=8)
    c = derive_rng(5, "x", 0).integers(0, 1 << 30, size=8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
