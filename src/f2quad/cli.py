"""Command-line front end.

Subcommands: gen (plant and write a truth table), wht (spectrum dump),
u3 (exact or estimated norm), gl (linear decomposition report),
find-quad, find-avg, decompose (JSON outputs), verify (brute-force
cross-checks).  Timing lives in the benchmark (perfbench), not here.
All randomness derives from the single --seed through a documented scheme (seed, subcommand, attempt
index), so equal invocations produce byte-identical outputs.

Exit codes: 0 success, 1 input error (a usage error included), 2 bottom
result.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib

import numpy as np

from . import bruteforce, fourier, functions, serialize, u3
from .decompose import decompose_full
from .gf2 import MAX_ENUM_N, SubspaceF2, check_dim
from .model import find_quadratic_average
from .recovery import find_quadratic

EXIT_OK, EXIT_INPUT, EXIT_BOTTOM = 0, 1, 2


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Generator keyed by (seed, labels): labels hash through crc32 into
    a SeedSequence spawn key, so streams for different subcommands and
    attempt indices never collide."""
    key = [zlib.crc32(str(l).encode()) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=key))


def _write_out(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_table(args) -> functions.TruthTable:
    if not getattr(args, "infile", None):
        raise SystemExit2("--in is required", EXIT_INPUT)
    return serialize.read_table(args.infile)


class SystemExit2(Exception):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, the code for bottom here; a
    usage error is an input error."""

    def error(self, message):
        raise SystemExit2(f"{self.prog}: {message}", EXIT_INPUT)


def cmd_gen(args) -> int:
    n = args.n
    check_dim(n, MAX_ENUM_N)  # before the 2^n table is drawn
    if not args.out:
        raise SystemExit2("gen requires --out", EXIT_INPUT)
    rng = derive_rng(args.seed, "gen")
    if args.plant == "quad":
        q = functions.random_quadratic_phase(n, rng)
        eps = args.epsilon if args.epsilon is not None else 0.5
        tt = q.truth_table() if eps >= 0.5 else \
            functions.make_noisy_codeword(q, eps, rng)
        meta = serialize.phase_to_dict(q)
    elif args.plant == "avg":
        Q = functions.coherent_quadratic_average(n, args.codim, rng)
        tt = Q.truth_table()
        if args.epsilon is not None and args.epsilon < 0.5:
            flips = rng.random(1 << n) < (0.5 - args.epsilon)
            tt.values[flips] *= -1.0
        meta = serialize.average_to_dict(Q)
    elif args.plant == "random":
        tt = functions.random_boolean_table(n, rng)
        meta = {}
    else:
        raise SystemExit2(f"unknown plant {args.plant!r}", EXIT_INPUT)
    serialize.write_table(tt, args.out, binary=args.binary)
    if args.meta_out:
        with open(args.meta_out, "w") as fh:
            json.dump(meta, fh, sort_keys=True)
    return EXIT_OK


def cmd_wht(args) -> int:
    tt = _load_table(args)
    spec = fourier.wht(tt)
    _write_out(args, serialize.spectrum_to_text(spec, threshold=args.threshold))
    return EXIT_OK


def cmd_u3(args) -> int:
    tt = _load_table(args)
    if args.exact:
        val = fourier.exact_u3(tt)
    else:
        rng = derive_rng(args.seed, "u3")
        val = u3.estimate_u3(tt.as_oracle(), args.gamma, args.delta, rng)
    _write_out(args, f"{val!r}\n")
    return EXIT_OK


def cmd_gl(args) -> int:
    tt = _load_table(args)
    rng = derive_rng(args.seed, "gl")
    terms = fourier.goldreich_levin(tt.as_oracle(), args.gamma, args.delta, rng)
    lines = [f"{format(a, 'x')} {c!r}" for a, c in terms]
    _write_out(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def _overrides(args) -> dict:
    out = {}
    for name in ("rho", "t_edge", "r", "s", "tau_accept", "m_attempts"):
        v = getattr(args, name, None)
        if v is not None:
            out[name] = v
    if out.get("m_attempts", 1) < 1:
        raise SystemExit2("--m-attempts must be at least 1", EXIT_INPUT)
    return out


def _epsilon(args) -> float:
    if args.epsilon is None:
        raise SystemExit2("--epsilon is required", EXIT_INPUT)
    return args.epsilon


def cmd_find_quad(args) -> int:
    tt = _load_table(args)
    rng = derive_rng(args.seed, "find-quad", 0)
    res = find_quadratic(tt.as_oracle(), _epsilon(args), args.delta, rng,
                         **_overrides(args))
    if res is None:
        return EXIT_BOTTOM
    out = serialize.phase_to_dict(res.phase)
    out.update(correlation_estimate=res.correlation_estimate,
               attempts=res.attempts, queries=res.queries)
    _write_out(args, json.dumps(out, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_find_avg(args) -> int:
    tt = _load_table(args)
    rng = derive_rng(args.seed, "find-avg", 0)
    res = find_quadratic_average(tt.as_oracle(), _epsilon(args), args.delta,
                                 rng, **_overrides(args))
    if res is None:
        return EXIT_BOTTOM
    out = serialize.average_to_dict(res.average)
    out.update(correlation_estimate=res.correlation_estimate,
               attempts=res.attempts, queries=res.queries,
               complexity=res.complexity)
    _write_out(args, json.dumps(out, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_decompose(args) -> int:
    tt = _load_table(args)
    rng = derive_rng(args.seed, "decompose", 0)
    dec = decompose_full(tt.as_oracle(), args.epsilon, args.bound, args.delta,
                         rng, mode=args.mode, eta=args.eta)
    terms = []
    for coeff, obj in dec.terms:
        key = "phase" if isinstance(obj, functions.QuadraticPhase) else "average"
        enc = serialize.phase_to_dict(obj) if key == "phase" \
            else serialize.average_to_dict(obj)
        terms.append({"coeff": coeff, key: enc})
    out = {"eta": dec.step_eta, "terms": terms,
           "residual_u3_estimate": dec.residual_u3_estimate,
           "e_l1": dec.e_l1_estimate, "k": dec.k}
    _write_out(args, json.dumps(out, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Brute-force cross-checks at desk scale; prints pass/fail lines."""
    rng = derive_rng(args.seed, "verify")
    checks = []

    n = 8
    q = functions.random_quadratic_phase(n, rng)
    tt = q.truth_table()
    checks.append(("u3(quadratic phase) == 1",
                   abs(fourier.exact_u3(tt) - 1.0) < 1e-9))
    f = functions.random_boolean_table(n, rng)
    checks.append(("parseval within 1e-9",
                   abs(fourier.wht(f).parseval_sum() - 1.0) < 1e-9))
    checks.append(("inductive vs direct U3 within 1e-9",
                   abs(fourier.exact_u3(f) - bruteforce.u3_direct(f)) < 1e-9))
    checks.append(("U2 <= U3",
                   fourier.exact_u2(f) <= fourier.exact_u3(f) + 1e-9))
    f6 = functions.random_boolean_table(4, rng)
    b1 = bruteforce.best_quadratic_correlation(f6)[1]
    b2 = bruteforce.best_quadratic_correlation_naive(f6)[1]
    checks.append(("exhaustive search agrees with naive loop",
                   abs(b1 - b2) < 1e-12))
    S = SubspaceF2([int(rng.integers(1, 1 << n)) for _ in range(3)], n)
    A = bruteforce.SetF2.from_subspace(S)
    checks.append(("subspace quadruples == |A|^3",
                   bruteforce.count_additive_quadruples(A) == A.size ** 3))
    conv = bruteforce.convolution_power(A.indicator_table(), 4)
    s4 = bruteforce.sumset(A, 4)
    checks.append(("4A == support of 4-fold convolution",
                   bool(np.array_equal(conv.values > 0, s4.flags))))

    ok = True
    lines = []
    for name, good in checks:
        lines.append(f"[{'PASS' if good else 'FAIL'}] {name}")
        ok &= bool(good)
    _write_out(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="f2quad",
                description="quadratic Fourier analysis over F_2^n")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, eps=False, inp=False):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None)
        if inp:
            sp.add_argument("--in", dest="infile", default=None)
        if eps:
            sp.add_argument("--epsilon", type=float, default=None)
            sp.add_argument("--delta", type=float, default=0.05)
            for name in ("rho", "tau-accept"):
                sp.add_argument(f"--{name}", type=float, default=None,
                                dest=name.replace("-", "_"))
            for name in ("t-edge", "r", "s", "m-attempts"):
                sp.add_argument(f"--{name}", type=int, default=None,
                                dest=name.replace("-", "_"))

    sp = sub.add_parser("gen", help="plant an instance and write its table")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--plant", choices=("quad", "avg", "random"), default="quad")
    sp.add_argument("--epsilon", type=float, default=None,
                    help="correlation parameter; entries flip with prob 1/2-eps")
    sp.add_argument("--codim", type=int, default=2)
    sp.add_argument("--binary", action="store_true")
    sp.add_argument("--meta-out", default=None)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("wht", help="spectrum dump of a truth table")
    common(sp, inp=True)
    sp.add_argument("--threshold", type=float, default=0.0)
    sp.set_defaults(fn=cmd_wht)

    sp = sub.add_parser("u3", help="U^3 norm, exact or estimated")
    common(sp, inp=True)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--gamma", type=float, default=0.05)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.set_defaults(fn=cmd_u3)

    sp = sub.add_parser("gl", help="linear decomposition report")
    common(sp, inp=True)
    sp.add_argument("--gamma", type=float, default=0.2)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.set_defaults(fn=cmd_gl)

    sp = sub.add_parser("find-quad", help="recover a correlated quadratic phase")
    common(sp, eps=True, inp=True)
    sp.set_defaults(fn=cmd_find_quad)

    sp = sub.add_parser("find-avg", help="recover a correlated quadratic average")
    common(sp, eps=True, inp=True)
    sp.set_defaults(fn=cmd_find_avg)

    sp = sub.add_parser("decompose", help="decompose into quadratic objects")
    common(sp, inp=True)
    sp.add_argument("--epsilon", type=float, default=0.3)
    sp.add_argument("--delta", type=float, default=0.05)
    sp.add_argument("--bound", type=float, default=2.0)
    sp.add_argument("--eta", type=float, default=0.5)
    sp.add_argument("--mode", choices=("phases", "averages"), default="phases")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify", help="run brute-force cross-checks")
    common(sp)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
