"""Where the benchmark's tracer attaches to f2quad, and the per-layer
metrics it derives from the spans.

Times and counts are per traced solve; a rate is a share of the calls
of one span kind (its base count is reported next to it in the run
record).  A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

from importlib import import_module

from spans import Probe

# import_module, not attribute access: the package re-exports a function
# named `decompose` over its submodule of that name
bsg, decompose, functions, model, recovery = (
    import_module(f"f2quad.{m}")
    for m in ("bsg", "decompose", "functions", "model", "recovery"))

# FunctionOracle.query_many is shared by every oracle class; the span is
# named after the class of the oracle being queried
ORACLE_SPANS = {
    "TableOracle": "functions.table",
    "DerivativeOracle": "functions.derivative",
    "CallableOracle": "functions.callable",
    "ProductOracle": "functions.product",
    "ResidualOracle": "decompose.residual",
    "RoundedBooleanOracle": "decompose.round",
}
GF2_SPANS = ("gf2.symmetrize", "gf2.local_symmetrize", "gf2.complete_basis",
             "gf2.graph_map", "gf2.row_reduce")
GATES = ("fourier.gate", "decompose.gate")


def _oracle_span(args) -> str:
    return ORACLE_SPANS.get(type(args[0]).__name__, "functions.other")


def _found(args, result, seen) -> int:
    return int(result is not None)


def _verdict(args, result, seen) -> int:
    return int(result)


def _points(args, result, seen) -> int:
    return len(args[1])


def _phi_fresh(args) -> bool:
    return int(args[1]) not in args[0].memo


def _phi_outcome(args, result, fresh) -> int:
    """0 memo hit, 1 fresh junk draw, 2 fresh draw from the GL list."""
    return 0 if not fresh else (2 if result.from_list else 1)


def _member_fresh(args) -> bool:
    return bool(args[0]._memo[int(args[1])] < 0)


def _member_outcome(args, result, fresh) -> int:
    """0 memo hit, 1 evaluated and rejected, 2 evaluated and accepted."""
    return 0 if not fresh else 1 + int(result)


def probes(tau_accept: float) -> list[Probe]:
    """Every wrap point.  `tau_accept` is the finder's validation bar,
    which decides whether a validation span counts as a pass."""
    def passed(args, result, seen):
        return int(abs(result) >= tau_accept)

    out = [
        Probe(functions.FunctionOracle, "query_many", _oracle_span),
        Probe(functions.QuadraticPhase, "eval_many", "functions.phase_eval",
              _points),
        Probe(functions.QuadraticAverage, "eval_many", "functions.avg_eval",
              _points),
        Probe(recovery, "u3_power_gate", "fourier.gate", _verdict),
        Probe(model, "u3_power_gate", "fourier.gate", _verdict),
        Probe(decompose, "u3_power_gate", "decompose.gate", _verdict),
        Probe(bsg.PhiSampler, "record", "bsg.phi", _phi_outcome, _phi_fresh),
        Probe(bsg, "goldreich_levin", "bsg.phi_gl"),
        Probe(recovery, "bsg_test", "bsg.sandwich", _verdict),
        Probe(model, "bsg_test", "bsg.sandwich", _verdict),
        Probe(bsg, "estimate_derivative_coefficient", "bsg.coeff"),
        Probe(recovery, "screen_anchor", "recovery.anchor", _found),
        Probe(recovery, "find_linear_map", "recovery.linmap", _found),
        Probe(recovery, "integrate", "recovery.integrate", _found),
        Probe(recovery, "estimate_correlation", "recovery.validate", passed),
        Probe(recovery, "symmetrize", "gf2.symmetrize"),
        Probe(model, "local_symmetrize", "gf2.local_symmetrize"),
        Probe(model.ModelMembership, "query", "model.membership",
              _member_outcome, _member_fresh),
        Probe(model, "bogolyubov", "model.bogolyubov"),
        Probe(model, "local_linear_choice", "model.local_choice", _found),
        Probe(model, "find_linear_parts", "model.linear_parts"),
        Probe(model, "estimate_correlation", "model.validate"),
        Probe(decompose, "find_quadratic", "decompose.finder", _found),
    ]
    for mod in (recovery, model):
        out += [Probe(mod, "complete_basis_full_rank_projection",
                      "gf2.complete_basis"),
                Probe(mod, "graph_linear_map", "gf2.graph_map"),
                Probe(mod, "row_reduce", "gf2.row_reduce")]
    return out


# (metric, unit, value from SpanStats)
METRICS = [
    ("functions.table_s", "s", lambda s: s.self_s("functions.table")),
    ("functions.derivative_s", "s", lambda s: s.self_s("functions.derivative")),
    ("functions.phase_eval_s", "s", lambda s: s.total_s("functions.phase_eval")),
    ("functions.phase_eval_points", "count",
     lambda s: s.outcome_sum("functions.phase_eval")),
    ("functions.avg_eval_s", "s", lambda s: s.total_s("functions.avg_eval")),
    ("fourier.gate_s", "s", lambda s: s.total_s(*GATES)),
    ("fourier.gate_queries", "count", lambda s: s.queries(*GATES)),
    ("fourier.gate_reject_rate", "ratio", lambda s: s.rate(GATES, {0})),
    ("bsg.phi_s", "s", lambda s: s.total_s("bsg.phi")),
    ("bsg.phi_gl_calls", "count", lambda s: s.per_solve_count("bsg.phi_gl")),
    ("bsg.phi_s_per_gl", "s", lambda s: s.mean_s("bsg.phi_gl")),
    ("bsg.phi_queries", "count", lambda s: s.queries("bsg.phi")),
    ("bsg.phi_memo_hit_rate", "ratio", lambda s: s.rate(["bsg.phi"], {0})),
    ("bsg.phi_list_rate", "ratio",
     lambda s: s.rate(["bsg.phi"], {2}, among={1, 2})),
    ("bsg.sandwich_s", "s", lambda s: s.self_s("bsg.sandwich")),
    ("bsg.sandwich_calls", "count", lambda s: s.per_solve_count("bsg.sandwich")),
    ("bsg.sandwich_accept_rate", "ratio", lambda s: s.rate(["bsg.sandwich"], {1})),
    ("bsg.coeff_s", "s", lambda s: s.total_s("bsg.coeff")),
    ("bsg.coeff_estimates", "count", lambda s: s.per_solve_count("bsg.coeff")),
    ("bsg.coeff_queries", "count", lambda s: s.queries("bsg.coeff")),
    ("recovery.anchor_s", "s", lambda s: s.total_s("recovery.anchor")),
    ("recovery.anchor_none_rate", "ratio",
     lambda s: s.rate(["recovery.anchor"], {0})),
    ("recovery.linmap_s", "s", lambda s: s.self_s("recovery.linmap")),
    ("recovery.linmap_calls", "count",
     lambda s: s.per_solve_count("recovery.linmap")),
    ("recovery.linmap_yield", "ratio", lambda s: s.rate(["recovery.linmap"], {1})),
    ("recovery.integrate_s", "s", lambda s: s.total_s("recovery.integrate")),
    ("recovery.integrate_queries", "count",
     lambda s: s.queries("recovery.integrate")),
    ("recovery.integrate_none_rate", "ratio",
     lambda s: s.rate(["recovery.integrate"], {0})),
    ("recovery.validate_s", "s", lambda s: s.total_s("recovery.validate")),
    ("recovery.validate_queries", "count",
     lambda s: s.queries("recovery.validate")),
    ("recovery.validate_pass_rate", "ratio",
     lambda s: s.rate(["recovery.validate"], {1})),
    ("gf2.linalg_s", "s", lambda s: s.total_s(*GF2_SPANS)),
    ("model.membership_s", "s", lambda s: s.self_s("model.membership")),
    ("model.membership_evals", "count",
     lambda s: s.per_solve_count("model.membership", outcomes={1, 2})),
    ("model.membership_accept_rate", "ratio",
     lambda s: s.rate(["model.membership"], {2}, among={1, 2})),
    ("model.bogolyubov_s", "s", lambda s: s.total_s("model.bogolyubov")),
    ("model.bogolyubov_queries", "count", lambda s: s.queries("model.bogolyubov")),
    ("model.local_choice_s", "s", lambda s: s.self_s("model.local_choice")),
    ("model.local_choice_yield", "ratio",
     lambda s: s.rate(["model.local_choice"], {1})),
    ("model.linear_parts_s", "s", lambda s: s.total_s("model.linear_parts")),
    ("model.linear_parts_queries", "count",
     lambda s: s.queries("model.linear_parts")),
    ("model.validate_s", "s", lambda s: s.total_s("model.validate")),
    ("decompose.residual_s", "s", lambda s: s.self_s("decompose.residual")),
    ("decompose.round_s", "s", lambda s: s.self_s("decompose.round")),
    ("decompose.finder_s", "s", lambda s: s.total_s("decompose.finder")),
    ("decompose.finder_calls", "count",
     lambda s: s.per_solve_count("decompose.finder")),
    ("decompose.finder_bottom_rate", "ratio",
     lambda s: s.rate(["decompose.finder"], {0})),
    ("decompose.steps", "count", lambda s: s.per_solve_count("decompose.gate")),
]
