"""Iterative decomposition into quadratic objects with truncation.

Given g into [-1, 1] and a finder that produces a correlated quadratic
phase (or average) whenever the residual has noticeable U^3 mass, the
loop subtracts eta times each found object and clamps the running
residual to [-B, B]:

    h_1 = f_1 = g;   h_{t+1} = h_t - eta q_t;   f_{t+1} = clamp(h_{t+1})

Output: g = sum_t c_t q_t + e + f with k <= 1/eta^2 terms, f the final
clamped residual (small U^3 at exit) and e = h_k - f_k the truncation
error with ||e||_1 <= 1/2B.  The step inequality

    f_t^2 - f_{t+1}^2 + 2 Delta_t - 2 Delta_{t+1} + eta^2 >= 2 eta q_t f_t

for Delta_t = f_t (h_t - f_t) drives the bounds: taking expectations,
each accepted step lowers the potential ||f_t||_2^2 + 2||Delta_t||_1 by
at least eta^2, and the potential starts at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .functions import (FunctionOracle, estimate_correlation,
                        ValueTable, hoeffding_samples, rand_points, tabled)
from .fourier import estimate_u3, u3_power_gate
from .recovery import PRACTICAL_DEFAULTS, find_quadratic, resolve_knobs
from .model import AVERAGE_DEFAULTS, find_quadratic_average


class ResidualOracle(FunctionOracle):
    """The residual clamp(g - sum c_i q_i, -B, B) under oracle access to g.

    Each query is one query of g.  At n <= MAX_TABLE_N the residual's
    own values fill a ``ValueTable`` once the points asked for reach 2^n,
    and every later query is one gather; until then, and above n = 16,
    g and the terms are evaluated pointwise.  Reading ``table`` fills it
    at once when g gives a table.  `raw_many` exposes the unclamped h for
    the truncation-error term e = h - clamp(h).
    """

    reads = (("g", 1),)

    def __init__(self, g: FunctionOracle, terms, bound: float):
        super().__init__(g.n, bound)
        self.g = g
        self.terms = list(terms)
        self._table = ValueTable(self.n)

    def raw_many(self, xs: np.ndarray) -> np.ndarray:
        """h(x) in a fresh array, querying g (whose values are never
        written)."""
        return self._minus_terms(self.g.query_many(xs), xs)

    def _minus_terms(self, vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if not self.terms:
            return vals.copy()
        (coeff, obj), *rest = self.terms
        vals = vals - coeff * obj.eval_many(xs)
        for coeff, obj in rest:
            vals -= coeff * obj.eval_many(xs)
        return vals

    def _clamped(self, xs: np.ndarray) -> np.ndarray:
        vals = self._minus_terms(self.g._evaluate(xs), xs)
        return np.clip(vals, -self.bound, self.bound, out=vals)

    def _evaluate(self, xs):
        return tabled(self, self._clamped, xs)

    def table(self):
        if self.g.table() is None:
            return None
        return self._table.full(self._clamped)


class RoundedBooleanOracle(FunctionOracle):
    """Random +-1 rounding of a [-B, B]-bounded oracle.

    f~(x) is +1 with probability (1 + f(x)/B)/2, decided by a keyed
    pseudorandom draw per (seed, x) rather than a memo, so repeated
    queries are consistent without unbounded storage.  The draw reads
    the low n bits of x.  Each query is one query of the base.  At n <=
    MAX_TABLE_N the rounded values fill a ``ValueTable`` once the points
    asked for reach 2^n, or when ``table`` is read and the base gives a
    table.  A point whose base value is NaN or exceeds B rounds to NaN,
    and the query that reads it raises ValueError (the table keeps the
    NaN, which sends the estimators to their sampled path).
    """

    reads = (("base", 1),)

    def __init__(self, base: FunctionOracle, bound: float, seed: int):
        super().__init__(base.n, 1.0)
        self.base = base
        self.round_bound = float(bound)
        self.seed = np.uint64(seed & ((1 << 64) - 1))
        self._table = ValueTable(self.n)

    def _hash_uniform(self, xs: np.ndarray) -> np.ndarray:
        xs = xs & np.uint64((1 << self.n) - 1)
        with np.errstate(over="ignore"):
            z = (xs * np.uint64(0x9E3779B97F4A7C15)) ^ self.seed
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
        return z.astype(np.float64) / float(1 << 64)

    def _rounded(self, xs: np.ndarray) -> np.ndarray:
        vals = self.base._evaluate(xs)
        p_plus = vals / self.round_bound
        p_plus += 1.0
        p_plus /= 2.0
        out = np.where(self._hash_uniform(xs) < p_plus, 1.0, -1.0)
        out[~(np.abs(vals) <= self.round_bound + 1e-12)] = np.nan
        return out

    def _evaluate(self, xs):
        out = tabled(self, self._rounded, xs)
        if np.isnan(out).any():
            raise ValueError("base oracle exceeds the stated bound or "
                             "returned NaN")
        return out

    def table(self):
        if self.base.table() is None:
            return None
        return self._table.full(self._rounded)


@dataclass
class Decomposition:
    """Term list plus residual diagnostics.

    Pointwise, g = sum c_i q_i + e + f holds by construction, with
    f = clamp(h) the final truncated residual and e = h - f.
    """

    terms: list            # [(coeff, QuadraticPhase | QuadraticAverage)]
    step_eta: float
    bound: float
    g: FunctionOracle
    k: int = 0
    residual_u3_estimate: float = 0.0
    e_l1_estimate: float = 0.0
    steps_log: list = field(default_factory=list)
    coefficient_mode: str = "fixed"

    def residual_oracle(self) -> ResidualOracle:
        return ResidualOracle(self.g, self.terms, self.bound)

    def reconstruction_many(self, xs: np.ndarray) -> np.ndarray:
        """sum c_i q_i(x) + e(x) + f(x); equals g pointwise."""
        acc = np.zeros(len(xs), dtype=np.float64)
        for coeff, obj in self.terms:
            acc += coeff * obj.eval_many(xs)
        r = self.residual_oracle()
        raw = r.raw_many(xs)
        return acc + raw  # e + f = raw by definition


def _check_args(epsilon: float, bound: float, delta: float, eta: float) -> None:
    if not (0 < epsilon < 1 and 0 < delta < 1 and bound > 1 and eta > 0):
        raise ValueError("need epsilon, delta in (0,1), B > 1 and eta > 0")


def decompose(g: FunctionOracle, epsilon: float, bound: float, delta: float,
              finder, rng, *, eta: float = 0.5, k_max: int | None = None,
              coefficient_mode: str = "fixed") -> Decomposition:
    """Run the truncation loop against an arbitrary finder.

    finder(oracle, rng) must return an object with eval_many/as_oracle
    (a quadratic phase or average, positively correlated with the
    oracle) or None; None is taken as the U^3-norm test failing and
    stops the loop, matching the contract that the finder succeeds
    whenever the norm is at least epsilon.  The loop gate itself is the
    sequential eighth-power test at 3 eps/4.  Termination is forced at
    k_max = ceil(1/eta^2).

    coefficient_mode "fixed" subtracts eta per step; "measured"
    (flagged non-standard in the log) subtracts the measured
    correlation, clamped to [0.01, 1].
    """
    _check_args(epsilon, bound, delta, eta)
    if coefficient_mode not in ("fixed", "measured"):
        raise ValueError("coefficient_mode must be 'fixed' or 'measured'")
    if k_max is None:
        k_max = math.ceil(1.0 / (eta * eta))
    dec = Decomposition(terms=[], step_eta=eta, bound=bound, g=g,
                        coefficient_mode=coefficient_mode)
    for step in range(1, k_max + 1):
        f_t = dec.residual_oracle()
        if not u3_power_gate(f_t, 3.0 * epsilon / 4.0, rng, t_cap=1 << 22):
            dec.steps_log.append(f"step={step} gate=reject")
            break
        found = finder(f_t, rng)
        if found is None:
            dec.steps_log.append(f"step={step} finder=bottom")
            break
        est = estimate_correlation(f_t, found.as_oracle(), 0.02, delta / (k_max + 1), rng)
        if est < 0:
            found, est = found.negated(), -est
        coeff = eta if coefficient_mode == "fixed" else min(1.0, max(0.01, est))
        dec.terms.append((coeff, found))
        tag = " mode=measured(non-standard)" if coefficient_mode == "measured" else ""
        dec.steps_log.append(f"step={step} coeff={coeff:g} est={est:.4f}{tag}")
    dec.k = len(dec.terms)

    final = dec.residual_oracle()
    t = hoeffding_samples(0.05, 0.05)
    xs = rand_points(rng, g.n, t)
    raw = final.raw_many(xs)
    dec.e_l1_estimate = float(np.mean(np.abs(raw - np.clip(raw, -bound, bound))))
    dec.residual_u3_estimate = estimate_u3(final, 0.1, 0.1, rng,
                                           samples=1 << 16)
    return dec


def step_inequality_slack(f_t: np.ndarray, f_t1: np.ndarray, h_t: np.ndarray,
                          h_t1: np.ndarray, q_t: np.ndarray,
                          eta: float) -> np.ndarray:
    """Pointwise slack of the per-step potential inequality (>= 0):
    f_t^2 - f_{t+1}^2 + 2 Delta_t - 2 Delta_{t+1} + eta^2
    - 2 eta q_t f_t, with Delta = f (h - f)."""
    d_t = f_t * (h_t - f_t)
    d_t1 = f_t1 * (h_t1 - f_t1)
    return f_t ** 2 - f_t1 ** 2 + 2 * d_t - 2 * d_t1 + eta * eta \
        - 2 * eta * q_t * f_t


def decompose_full(g: FunctionOracle, epsilon: float, bound: float,
                   delta: float, rng, *, mode: str = "phases",
                   eta: float = 0.5, coefficient_mode: str = "fixed",
                   k_max: int | None = None,
                   **finder_knobs) -> Decomposition:
    """End-to-end decomposition: Boolean-round each bounded residual and
    feed it to the quadratic-phase (or quadratic-average) finder with
    the rescaled parameter eps/2B.

    The failure budget delta is split uniformly over the at most
    k_max + 1 finder calls: each call receives delta / (k_max + 1).
    Finder knobs are resolved against the chosen finder's defaults on
    entry, so an unknown name raises ValueError before any query.
    """
    _check_args(epsilon, bound, delta, eta)
    if mode not in ("phases", "averages"):
        raise ValueError("mode must be 'phases' or 'averages'")
    defaults = PRACTICAL_DEFAULTS if mode == "phases" else AVERAGE_DEFAULTS
    # bottoms must be cheap here
    finder_knobs = resolve_knobs(defaults, {"m_attempts": 12, **finder_knobs})
    if k_max is None:
        k_max = math.ceil(1.0 / (eta * eta))
    delta_each = delta / (k_max + 1)
    eps_finder = epsilon / (2.0 * bound)

    def finder(oracle, rng_):
        seed = int(rng_.integers(0, 1 << 62))
        rounded = RoundedBooleanOracle(oracle, bound, seed)
        if mode == "phases":
            res = find_quadratic(rounded, eps_finder, delta_each, rng_,
                                 **finder_knobs)
            return None if res is None else res.phase
        res = find_quadratic_average(rounded, eps_finder, delta_each, rng_,
                                     **finder_knobs)
        return None if res is None else res.average

    return decompose(g, epsilon, bound, delta, finder, rng, eta=eta,
                     k_max=k_max, coefficient_mode=coefficient_mode)
