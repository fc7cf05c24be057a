"""The four seeded solver workloads of the f2quad benchmark.

A workload plants instances and solves them one at a time.  Each
instance draws its own two random streams from
``SeedSequence(entropy=seed, spawn_key=(crc32(workload name), index))``:
the first child plants the instance, the second drives the solver.  So
the instance list at a seed is the same on every commit, and a solve
repeated on the same instance repeats exactly.

A solve runs in three steps.  ``make_oracle`` builds a fresh root
oracle outside the timed region (so its query counter starts at 0 and
a tracer can see the bindings it captures), ``timed_solve`` times the
call into the finder, and ``outcome`` records it and compares the
output with the exact references (``check``), again untimed.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import math
import zlib

import numpy as np

from f2quad import (FunctionOracle, TruthTable, coherent_quadratic_average,
                    correlation_exact, decompose_full, exact_u3,
                    find_quadratic, find_quadratic_average,
                    make_noisy_codeword, random_quadratic_phase)
from f2quad.functions import TableOracle

# one decomposition step subtracts STEP_ETA times the found object and
# clamps to [-STEP_BOUND, STEP_BOUND]; residual_u3 applies the same step
# to the finder workloads' single object (the clamp never binds there)
STEP_ETA = 0.5
STEP_BOUND = 2.0


@dataclass(frozen=True)
class Instance:
    index: int
    planted: object          # QuadraticPhase | QuadraticAverage | (q1, q2)
    table: TruthTable        # exact truth table of the root oracle's function
    solve_seed: np.random.SeedSequence


@dataclass
class Outcome:
    """What one solve returned, plus the exact checks made on it."""

    index: int
    seconds: float
    queries: int
    attempts: int
    bottom: bool
    error: str | None
    fingerprint: str          # digest of the returned object's truth tables
    corr_exact: float = 0.0
    residual_u3: float = 0.0
    success: bool = False
    invariant_errors: tuple = ()  # deterministic guarantees that failed
    u3_over_eps: bool = False     # decompose only: exact residual U^3 > eps
    step_corrs: tuple = ()        # decompose only: exact corr of each term

    def counts(self) -> tuple:
        """The fields a traced or repeated solve must reproduce exactly."""
        return (self.fingerprint, self.queries, self.attempts, self.bottom,
                self.success)


def instance_streams(seed: int, workload: str, index: int):
    """(plant rng, solver SeedSequence) for instance `index`."""
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(zlib.crc32(workload.encode()), index))
    plant, solve = ss.spawn(2)
    return np.random.default_rng(plant), solve


def digest(*tables: np.ndarray) -> str:
    h = hashlib.sha256()
    for t in tables:
        h.update(np.ascontiguousarray(t, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def step_residual_u3(table: TruthTable, objects) -> float:
    """Exact U^3 of clamp(f - STEP_ETA sum q), the residual the
    decomposition loop would carry after these steps."""
    vals = table.values.copy()
    for q in objects:
        vals -= STEP_ETA * q.truth_table().values
    return exact_u3(TruthTable(np.clip(vals, -STEP_BOUND, STEP_BOUND), table.n))


class Workload:
    """Base: subclasses set the fields below and implement the hooks."""

    name: str
    n: int
    instances: int           # fixed instance list behind the count metrics
    tau_accept: float        # the finder's validation threshold (for the trace)

    def plant(self, seed: int, index: int) -> Instance:
        rng, solve = instance_streams(seed, self.name, index)
        planted, table = self._plant(rng)
        return Instance(index, planted, table, solve)

    def make_oracle(self, inst: Instance) -> FunctionOracle:
        return TableOracle(inst.table.values, self.n)

    def timed_solve(self, inst: Instance, oracle: FunctionOracle, clock):
        """(result, error, seconds) of one solve; an exception is a result."""
        rng = np.random.default_rng(inst.solve_seed)
        t0 = clock()
        try:
            return self.solve(oracle, rng), None, clock() - t0
        except Exception as exc:  # a crashing solve counts as a failure
            return None, f"{type(exc).__name__}: {exc}", clock() - t0

    def outcome(self, inst: Instance, oracle: FunctionOracle, res, error,
                seconds: float) -> Outcome:
        """Record the solve and make the exact checks (untimed)."""
        out = Outcome(index=inst.index, seconds=seconds,
                      queries=oracle.query_count, attempts=0, bottom=res is None,
                      error=error, fingerprint="")
        if res is None:                  # bottom or exception: nothing found
            out.residual_u3 = step_residual_u3(inst.table, [])
        else:
            self.check(inst, res, out)
        return out

    def _plant(self, rng):
        raise NotImplementedError

    def solve(self, oracle, rng):
        raise NotImplementedError

    def check(self, inst: Instance, res, out: Outcome) -> None:
        raise NotImplementedError


class _FinderWorkload(Workload):
    """find_quadratic / find_quadratic_average: one returned object."""

    def _object(self, res):
        raise NotImplementedError

    def _bar(self, inst: Instance, obj, corr: float) -> bool:
        raise NotImplementedError

    def check(self, inst, res, out):
        obj = self._object(res)
        tt = obj.truth_table()
        out.attempts = res.attempts
        out.fingerprint = digest(tt.values)
        out.corr_exact = correlation_exact(tt, inst.table)
        out.residual_u3 = step_residual_u3(inst.table, [obj])
        out.success = self._bar(inst, obj, out.corr_exact)
        errors = []
        if res.queries != out.queries:
            errors.append(f"reported {res.queries} queries, root oracle "
                          f"counted {out.queries}")
        if res.correlation_estimate < self.tau_accept:
            errors.append("returned an object validated below tau_accept")
        out.invariant_errors = tuple(errors)


class NoisyFind(_FinderWorkload):
    name = "fq-noisy-n6"
    n = 6
    instances = 48
    eps, delta, tau_accept = 0.25, 0.05, 0.12

    def _plant(self, rng):
        q = random_quadratic_phase(self.n, rng)
        return q, make_noisy_codeword(q, self.eps, rng)

    def solve(self, oracle, rng):
        return find_quadratic(oracle, self.eps, self.delta, rng,
                              tau_accept=self.tau_accept)

    def _object(self, res):
        return res.phase

    def _bar(self, inst, obj, corr):
        return corr >= 0.1


class CallableFind(_FinderWorkload):
    name = "fq-callable-n7"
    n = 7
    instances = 12
    eps, delta, tau_accept = 0.5, 0.05, 0.05

    def _plant(self, rng):
        q = random_quadratic_phase(self.n, rng)
        return q, q.truth_table()

    def make_oracle(self, inst):
        return inst.planted.as_oracle()

    def solve(self, oracle, rng):
        return find_quadratic(oracle, self.eps, self.delta, rng)

    def _object(self, res):
        return res.phase

    def _bar(self, inst, obj, corr):
        return obj == inst.planted


class AverageFind(_FinderWorkload):
    name = "favg-codim2-n6"
    n = 6
    instances = 20
    eps, delta, tau_accept, complexity_cap = 0.25, 0.05, 0.12, 4
    flip = 0.2

    def _plant(self, rng):
        Q = coherent_quadratic_average(self.n, 2, rng)
        tt = Q.truth_table()
        tt.values[rng.random(1 << self.n) < self.flip] *= -1.0
        return Q, tt

    def solve(self, oracle, rng):
        return find_quadratic_average(oracle, self.eps, self.delta, rng,
                                      tau_accept=self.tau_accept,
                                      complexity_cap=self.complexity_cap)

    def _object(self, res):
        return res.average

    def _bar(self, inst, obj, corr):
        return corr >= 0.15 and obj.complexity <= self.complexity_cap


class Decompose(Workload):
    name = "decompose-n4"
    n = 4
    instances = 6
    eps, bound, delta, eta = 0.3, STEP_BOUND, 0.05, STEP_ETA
    # decompose_full's default finder knobs: find_quadratic's tau_accept
    tau_accept = 0.05

    def _plant(self, rng):
        q1 = random_quadratic_phase(self.n, rng)
        q2 = random_quadratic_phase(self.n, rng)
        vals = 0.5 * q1.truth_table().values + 0.5 * q2.truth_table().values
        return (q1, q2), TruthTable(vals, self.n)

    def solve(self, oracle, rng):
        return decompose_full(oracle, self.eps, self.bound, self.delta, rng,
                              mode="phases", eta=self.eta)

    def check(self, inst, dec, out):
        """Exact decomposition contract: g = sum c_i q_i + e + f pointwise,
        k <= 1/eta^2 and ||e||_1 <= 1/2B.  The residual's exact U^3 is
        measured and compared with eps separately (see README)."""
        n = self.n
        g = inst.table.values
        xs = np.arange(1 << n, dtype=np.uint64)
        out.attempts = dec.k
        objs = [q for _, q in dec.terms]
        out.fingerprint = digest(np.array([c for c, _ in dec.terms]),
                                 *[q.truth_table().values for q in objs])
        recon_err = float(np.max(np.abs(dec.reconstruction_many(xs) - g)))
        raw = dec.residual_oracle().raw_many(xs)
        f_vals = np.clip(raw, -self.bound, self.bound)
        e_l1 = float(np.mean(np.abs(raw - f_vals)))
        out.residual_u3 = exact_u3(TruthTable(f_vals, n))
        out.u3_over_eps = out.residual_u3 > self.eps
        # exact correlation of each term with the residual it was fitted to
        h = g.copy()
        corrs = []
        for coeff, q in dec.terms:
            qv = q.truth_table().values
            corrs.append(float(np.mean(np.clip(h, -self.bound, self.bound) * qv)))
            h = h - coeff * qv
        out.step_corrs = tuple(corrs)
        out.corr_exact = float(np.mean(corrs)) if corrs else 0.0
        errors = []
        if recon_err > 1e-9:
            errors.append(f"reconstruction error {recon_err:.3g} > 1e-9")
        if dec.k > math.ceil(1.0 / self.eta ** 2):
            errors.append(f"k={dec.k} > 1/eta^2")
        if e_l1 > 1.0 / (2.0 * self.bound):
            errors.append(f"||e||_1={e_l1:.4f} > 1/2B")
        out.invariant_errors = tuple(errors)
        out.success = not errors


WORKLOADS = {w.name: w for w in (NoisyFind(), CallableFind(), AverageFind(),
                                 Decompose())}
