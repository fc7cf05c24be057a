"""The counting contract of the oracle stack.

A query is charged to the oracle asked and, with the fan-out its class
declares in ``reads``, to every oracle beneath it, whether the values
come from the oracles beneath or from a value table.  The values are
those of the pointwise definitions, bit for bit.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import f2quad
from f2quad.decompose import ResidualOracle, RoundedBooleanOracle
from f2quad.decompose import decompose_full
from f2quad.functions import (MAX_TABLE_N, CallableOracle, DerivativeOracle,
                              FunctionOracle, ProductOracle, PullbackOracle,
                              TableOracle, coherent_quadratic_average,
                              make_noisy_codeword, rand_points,
                              random_boolean_table, random_quadratic_phase,
                              unit_table)
from f2quad.model import ModelMembership, find_quadratic_average
from f2quad.recovery import find_quadratic
from test_decompose import splitmix_uniform


def residual_at(root_value, terms, bound, x):
    v = root_value
    for coeff, q in terms:
        v = v - coeff * q.eval(x)
    return min(max(v, -bound), bound)


def rounded_at(v, bound, seed, x):
    u = splitmix_uniform([x], seed)[0]
    return 1.0 if u < (v / bound + 1.0) / 2.0 else -1.0


def query_batches(n, rng):
    """Seeded batches that repeat points; their running total of points
    crosses 2^5 at the fifth batch."""
    batches = [rand_points(rng, n, s) for s in (3, 1, 26, 1, 9, 64, 5)]
    batches[4][:4] = batches[0][0]  # a repeated point inside one batch
    return batches


def chains(n, rng):
    """(name, oracles from top to root, per-point reference, charges per
    point from the top down) for each chain under test."""
    root_vals = rng.uniform(-1.0, 1.0, size=1 << n)
    terms = [(0.5, random_quadratic_phase(n, rng)),
             (0.75, random_quadratic_phase(n, rng))]
    seed = int(rng.integers(0, 1 << 62))
    shift = int(rng.integers(1, 1 << n))
    phase = random_quadratic_phase(n, rng)
    out = []

    root = TableOracle(root_vals, n)
    res = ResidualOracle(root, terms, 1.2)
    rounded = RoundedBooleanOracle(res, 1.2, seed)
    out.append(("table-residual-rounded", [rounded, res, root],
                lambda x: rounded_at(residual_at(root_vals[x], terms, 1.2, x),
                                     1.2, seed, x),
                [1, 1, 1]))

    root = TableOracle(root_vals, n)
    out.append(("table-derivative", [DerivativeOracle(root, shift), root],
                lambda x: root_vals[x] * root_vals[x ^ shift], [1, 2]))

    root = TableOracle(root_vals, n)
    other = phase.as_oracle()
    out.append(("table-product", [ProductOracle(root, other), root, other],
                lambda x: root_vals[x] * phase.eval(x), [1, 1, 1]))

    root = phase.as_oracle()
    out.append(("phase-residual", [ResidualOracle(root, terms, 2.0), root],
                lambda x: residual_at(phase.eval(x), terms, 2.0, x), [1, 1]))
    return out


@pytest.mark.parametrize("n", [5, MAX_TABLE_N + 1])
def test_chains_count_and_answer_like_the_pointwise_definition(n):
    for name, oracles, ref, fan_out in chains(n, np.random.default_rng(n)):
        top = oracles[0]
        asked = 0
        for xs in query_batches(n, np.random.default_rng(100 + n)):
            got = top.query_many(xs)
            want = np.array([ref(int(x)) for x in xs])
            assert np.array_equal(got, want), name
            asked += xs.size
            assert [o.query_count for o in oracles] == \
                [k * asked for k in fan_out], name
        assert float(top(int(xs[0]))) == ref(int(xs[0]))
        table = getattr(top, "_table", None)
        if table is not None:
            assert (table.values is None) == (n > MAX_TABLE_N), name


def test_queries_on_a_lower_oracle_add_to_its_count():
    n = 5
    rng = np.random.default_rng(3)
    root = TableOracle(rng.uniform(-1.0, 1.0, size=1 << n), n)
    res = ResidualOracle(root, [(0.5, random_quadratic_phase(n, rng))], 1.2)
    rounded = RoundedBooleanOracle(res, 1.2, 7)
    rounded.query_many(np.arange(1 << n, dtype=np.uint64))
    res.query_many(np.arange(4, dtype=np.uint64))
    res.raw_many(np.arange(3, dtype=np.uint64))  # counted on the root only
    assert (rounded.query_count, res.query_count, root.query_count) == \
        (32, 36, 39)


@pytest.mark.parametrize("x", [1 << 5, 1 << 63, (1 << 64) - 1])
def test_a_table_root_still_refuses_points_at_or_above_2n(x):
    n = 5
    rng = np.random.default_rng(4)
    root = TableOracle(rng.uniform(-1.0, 1.0, size=1 << n), n)
    res = ResidualOracle(root, [(0.5, random_quadratic_phase(n, rng))], 1.2)
    top = [RoundedBooleanOracle(res, 1.2, 9), res, DerivativeOracle(root, 3)]
    bad = np.array([2, x], dtype=np.uint64)
    for orc in top:
        with pytest.raises(IndexError):
            orc.query_many(bad)
        orc.query_many(np.arange(1 << n, dtype=np.uint64))  # tables built
        with pytest.raises(IndexError):
            orc.query_many(bad)
        with pytest.raises(IndexError):
            orc(x)


@pytest.mark.parametrize("bad_value, over_residual",
                         [(np.nan, False), (5.0, False), (np.nan, True)])
def test_a_bad_base_value_raises_on_the_query_that_reads_it(bad_value,
                                                            over_residual):
    n = 5
    vals = np.random.default_rng(5).uniform(-1.0, 1.0, size=1 << n)
    vals[9] = bad_value
    base = TableOracle(vals, n, bound=2.0)
    if over_residual:
        base = ResidualOracle(base, [], 2.0)
    rounded = RoundedBooleanOracle(base, 2.0, 11)
    good = np.delete(np.arange(1 << n, dtype=np.uint64), 9)
    for _ in range(3):  # the second call fills the table, 9 included
        rounded.query_many(good)
    assert rounded._table.values is not None
    with pytest.raises(ValueError, match="NaN"):
        rounded.query_many(np.array([3, 9], dtype=np.uint64))
    with pytest.raises(ValueError, match="NaN"):
        RoundedBooleanOracle(base, 2.0, 11).query_many(np.array([9]))
    assert rounded.query_many(good).size == good.size


def all_oracle_classes():
    for mod in pkgutil.iter_modules(f2quad.__path__):
        importlib.import_module(f"f2quad.{mod.name}")
    found, todo = [], [FunctionOracle]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("f2quad."):
                found.append(cls)
            todo.append(cls)
    return found


def test_every_oracle_class_declares_what_it_reads():
    # a composite that does not declare its reads would under-count the
    # oracles beneath it; a leaf declares an empty tuple
    classes = all_oracle_classes()
    assert {c.__name__ for c in classes} >= {
        "TableOracle", "CallableOracle", "DerivativeOracle", "ProductOracle",
        "ResidualOracle", "RoundedBooleanOracle"}
    for cls in classes:
        assert "reads" in vars(cls), cls.__name__
        for name, times in cls.reads:
            assert isinstance(name, str) and isinstance(times, int) \
                and times >= 1, cls.__name__
    # one entry point: no class overrides query_many
    assert [c.__name__ for c in classes if "query_many" in vars(c)] == []


def test_every_composite_is_a_kernel_under_the_base_table_rule():
    # a composite supplies its kernel; the base class tables it and hands
    # the table over, and only the rounding oracle adds to _evaluate (its
    # NaN raise)
    composites = [c for c in all_oracle_classes() if c.reads]
    assert {c.__name__ for c in composites} >= {
        "DerivativeOracle", "ProductOracle", "ResidualOracle",
        "RoundedBooleanOracle"}
    for cls in composites:
        assert "_kernel" in vars(cls) and "table" not in vars(cls), \
            cls.__name__
    assert [c.__name__ for c in composites if "_evaluate" in vars(c)] == \
        ["RoundedBooleanOracle"]


COMPOSITES = {
    "derivative": lambda f, rng: DerivativeOracle(f, 3),
    "product": lambda f, rng: ProductOracle(
        f, random_quadratic_phase(f.n, rng).as_oracle()),
    "residual": lambda f, rng: ResidualOracle(
        f, [(0.5, random_quadratic_phase(f.n, rng))], 1.2),
    "rounded": lambda f, rng: RoundedBooleanOracle(f, 1.2, 7),
    "pullback": lambda f, rng: PullbackOracle(
        f, lambda xs: xs ^ np.uint64(5), f.n),
}


@pytest.mark.parametrize("kind", sorted(COMPOSITES))
def test_a_composite_hands_over_a_table_when_every_oracle_beneath_does(kind):
    n = 5
    vals = np.random.default_rng(6).uniform(-1.0, 1.0, size=1 << n)
    over_table = COMPOSITES[kind](TableOracle(vals, n),
                                  np.random.default_rng(7))
    bare = COMPOSITES[kind](
        CallableOracle(lambda xs: vals[xs.view(np.int64)], n),
        np.random.default_rng(7))
    assert bare.table() is None
    pointwise = [bare(x) for x in range(1 << n)]
    assert list(over_table.table()) == pointwise
    assert over_table.query_count == 0  # reading a table is not a query


def test_a_product_keeps_one_table():
    # unit_table checks each table array once, so a product hands over
    # the same array on every call
    n = 6
    rng = np.random.default_rng(8)
    prod = ProductOracle(random_boolean_table(n, rng).as_oracle(),
                         random_quadratic_phase(n, rng).as_oracle())
    table = prod.table()
    assert prod.table() is table
    assert np.array_equal(
        table, prod._evaluate(np.arange(1 << n, dtype=np.uint64)))
    assert unit_table(prod, n, 1 << n) is table
    assert prod._unit_checked is table


def test_a_pullback_fills_no_table_beneath_it():
    # asking whether the leaves give tables fills nothing, and the
    # pullback's own table reads its base at the 2^d mapped points only
    n, d, shift = 8, 3, 0b1011_0000
    rng = np.random.default_rng(14)
    f = random_boolean_table(n, rng).as_oracle()
    phase = random_quadratic_phase(n, rng)
    prod = ProductOracle(f, phase.as_oracle())
    coords = PullbackOracle(
        prod, lambda us: (us << np.uint64(2)) ^ np.uint64(shift), d)
    table = coords.table()
    assert prod._table.values is None and phase._table.values is None
    assert prod._table._asked == 1 << d
    assert f.query_count == prod.query_count == coords.query_count == 0
    pts = (np.arange(1 << d, dtype=np.uint64) << np.uint64(2)) ^ \
        np.uint64(shift)
    assert np.array_equal(table, f.table()[pts.view(np.int64)]
                          * phase._kernel(pts))


def test_a_derivative_of_a_pullback_charges_the_root_per_query():
    # the chain once built as a derivative over a leaf whose fn queried g
    # itself, which left g at 32, 96, 96, 96 once the derivative's table
    # filled; as a composite every batch is charged
    n, shift, mask = 5, 3, 6
    rng = np.random.default_rng(12)
    vals = random_boolean_table(n, rng).values
    g = TableOracle(vals, n)
    top = DerivativeOracle(PullbackOracle(g, lambda xs: xs ^ np.uint64(mask),
                                          n), shift)
    for batch in range(1, 5):
        xs = rand_points(rng, n, 16)
        want = [vals[x ^ mask] * vals[x ^ shift ^ mask] for x in map(int, xs)]
        assert list(top.query_many(xs)) == want
        assert g.query_count == 32 * batch


def noisy_n6(rng):
    f = make_noisy_codeword(random_quadratic_phase(6, rng), 0.25, rng)
    return find_quadratic(f.as_oracle(), 0.25, 0.05, rng, tau_accept=0.12)


def codim2_average_n6(rng):
    tt = coherent_quadratic_average(6, 2, rng).truth_table()
    tt.values[rng.random(1 << 6) < 0.2] *= -1.0
    return find_quadratic_average(tt.as_oracle(), 0.25, 0.05, rng,
                                  tau_accept=0.12, complexity_cap=4)


def two_phase_mixture_n4(mode):
    def solve(rng):
        vals = 0.5 * (random_quadratic_phase(4, rng).truth_table().values
                      + random_quadratic_phase(4, rng).truth_table().values)
        return decompose_full(TableOracle(vals, 4), 0.3, 2.0, 0.05, rng,
                              mode=mode)
    return solve


@pytest.mark.parametrize("solve", [
    pytest.param(noisy_n6, id="find_quadratic"),
    pytest.param(codim2_average_n6, id="find_quadratic_average"),
    pytest.param(two_phase_mixture_n4("phases"), id="decompose-phases"),
    pytest.param(two_phase_mixture_n4("averages"), id="decompose-averages"),
])
def test_no_callable_leaf_queries_an_oracle(monkeypatch, solve):
    # a CallableOracle's fn must be pure: an oracle charged while fn runs
    # would be miscounted once a composite above the leaf fills its table.
    # The membership, the one leaf that queries f, is queried directly:
    # a composite over it would decide every point in its table fill
    inside, charged_inside = [], []
    evaluate, charge = CallableOracle._evaluate, FunctionOracle._charge
    asked, read_below = [], []
    query_many, decide = FunctionOracle.query_many, ModelMembership._evaluate

    def tracked_query_many(self, xs):
        asked.append(self)
        try:
            return query_many(self, xs)
        finally:
            asked.pop()

    def guarded_decide(self, xs):
        if asked[-1] is not self:
            read_below.append(type(asked[-1]).__name__)
        return decide(self, xs)

    def guarded_evaluate(self, xs):
        inside.append(self)
        try:
            return evaluate(self, xs)
        finally:
            inside.pop()

    def guarded_charge(self, points):
        if inside:
            charged_inside.append(type(self).__name__)
        charge(self, points)

    monkeypatch.setattr(CallableOracle, "_evaluate", guarded_evaluate)
    monkeypatch.setattr(FunctionOracle, "_charge", guarded_charge)
    monkeypatch.setattr(FunctionOracle, "query_many", tracked_query_many)
    monkeypatch.setattr(ModelMembership, "_evaluate", guarded_decide)
    solve(np.random.default_rng(3))
    assert charged_inside == [] and read_below == []
