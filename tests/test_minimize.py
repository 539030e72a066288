"""The cutting-plane minimizer and its report contract."""

import importlib
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewbisub import (
    DEFAULT_ARITY_CAP,
    Alpha,
    CapExceededError,
    ConvexityWitness,
    FractionalPoint,
    MinimizeConfig,
    NEG,
    SumFunction,
    TableFunction,
    Term,
    ZERO,
    all_labelings,
    brute_force_min,
    check_alpha_bisubmodular,
    decompose,
    expand_to_table,
    extension_value,
    format_labeling,
    generate_instance,
    instance_from_json,
    linear_min,
    minimize,
    numeric,
    project_box,
    random_box_point,
    subgradient,
)
from skewbisub import lovasz, simplex
from skewbisub.lattice import lex_index
from skewbisub.rationals import common_denominator
from conftest import (
    ALPHA_GRID,
    add_cut,
    boundary_shift,
    column_cut,
    cut_column,
    master_program,
    recorded_pivots,
    reference_linear_min,
    unit_pair_columns,
)

# The package exports the function `minimize` under the module's name.
minimize_module = importlib.import_module("skewbisub.minimize")


class TestProjectBox:
    def test_inside_point_roundtrips_on_grid(self, alpha_half):
        x = project_box([0.25, -0.25], alpha_half)
        assert x.coords == (Fraction(1, 4), Fraction(-1, 4))

    def test_clamps_below(self, alpha_half):
        x = project_box([-5.0, 0.0], alpha_half)
        assert x.coords == (Fraction(-1, 2), Fraction(0))

    def test_clamps_above(self, alpha_half):
        x = project_box([1.0000001, 2.0], alpha_half)
        assert x.coords == (Fraction(1), Fraction(1))

    def test_denominators_bounded(self, alpha_half):
        x = project_box([0.333333333333, -0.123456789], alpha_half, max_denominator=1 << 10)
        assert all(c.denominator <= 1 << 10 for c in x.coords)

    def test_exact_lower_bound_off_grid(self):
        # -alpha is not a dyadic grid point here; the exact clamp must win
        alpha = Alpha(Fraction(1, 3))
        x = project_box([-1.0], alpha)
        assert x.coords == (Fraction(-1, 3),)

    def test_non_finite_rejected(self, alpha_half):
        with pytest.raises(RuntimeError, match="non-finite coordinate 1"):
            project_box([0.0, float("nan")], alpha_half)

    def test_infinities_clamp_to_the_box(self, alpha_half):
        x = project_box([math.inf, -math.inf], alpha_half)
        assert x.coords == (Fraction(1), Fraction(-1, 2))


class TestMinimizeBasics:
    def test_constant(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(7) for u in all_labelings(2)})
        report = minimize(f)
        assert report.value == 7
        assert format_labeling(report.minimizer) == "00"  # support atom of the zero start
        assert len(report.trajectory_best) == 1

    def test_separable_linear(self, alpha_half):
        f = TableFunction(
            2, alpha_half, {a: sum(numeric(a, alpha_half)) for a in all_labelings(2)}
        )
        report = minimize(f)
        assert format_labeling(report.minimizer) == "--"
        assert report.value == -1

    def test_value_is_exact_reevaluation(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=60)
        )
        report = minimize(f)
        assert report.value == f[report.minimizer]

    def test_trajectory_strictly_decreasing(self, alpha_half):
        f = expand_to_table(
            generate_instance(4, alpha_half, num_terms=4, max_scope=2, seed=61)
        )
        report = minimize(f)
        values = [v for _, v in report.trajectory_best]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == report.value

    def test_oracle_calls_are_counter_delta(self, alpha_half):
        f = expand_to_table(
            generate_instance(3, alpha_half, num_terms=2, max_scope=2, seed=62)
        )
        before = f.call_count
        report = minimize(f)
        assert report.oracle_calls == f.call_count - before

    def test_deterministic(self, alpha_half):
        f1 = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=63)
        )
        f2 = expand_to_table(
            generate_instance(3, alpha_half, num_terms=3, max_scope=2, seed=63)
        )
        r1 = minimize(f1)
        r2 = minimize(f2)
        assert r1.to_json() == r2.to_json()

    def test_report_json_shape(self, alpha_half):
        f = TableFunction(1, alpha_half, {"-": -1, "0": 0, "+": 2})
        report = minimize(f)
        doc = report.to_json()
        assert set(doc) == {
            "minimizer", "value", "iterations", "oracle_calls", "trace",
            "stop_reason", "certified", "lower_bound", "gap", "cuts",
            "distinct_points", "cache_hits", "witness",
        }
        assert doc["minimizer"] == "-"
        assert doc["value"] == "-1"
        assert all(isinstance(t, int) and isinstance(v, str) for t, v in doc["trace"])
        assert doc["stop_reason"] == "certified" and doc["certified"] is True
        assert doc["lower_bound"] == "-1" and doc["gap"] == "0"
        assert doc["witness"] is None
        assert doc["distinct_points"] == doc["oracle_calls"]

    def test_default_iteration_budget(self, alpha_half):
        # The 200 n^2 rounds are a cap: a constant function is certified by
        # the first cut, g = 0.
        f = TableFunction(2, alpha_half, {u: Fraction(1) for u in all_labelings(2)})
        report = minimize(f)
        assert report.certified
        assert report.iterations_used == report.cuts == 1

    def test_explicit_start(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: Fraction(2) for u in all_labelings(2)})
        start = FractionalPoint((Fraction(1), Fraction(-1, 2)), alpha_half)
        report = minimize(f, MinimizeConfig(max_iters=1, start=start))
        assert format_labeling(report.minimizer) == "+-"

    def test_seeded_start_is_reproducible(self, alpha_half):
        f = expand_to_table(
            generate_instance(2, alpha_half, num_terms=2, max_scope=2, seed=64)
        )
        r1 = minimize(f, MinimizeConfig(seed=5))
        r2 = minimize(f, MinimizeConfig(seed=5))
        assert r1.to_json() == r2.to_json()

    def test_config_validation(self, alpha_half):
        for cap in (0, -1):
            with pytest.raises(ValueError):
                MinimizeConfig(max_iters=cap)

    def test_arity_mismatch_start(self, alpha_half):
        f = TableFunction(2, alpha_half, {u: 0 for u in all_labelings(2)})
        bad = FractionalPoint((Fraction(0),), alpha_half)
        with pytest.raises(ValueError):
            minimize(f, MinimizeConfig(start=bad))


class TestRoundingSoundness:
    def test_support_min_never_exceeds_extension(self, alpha_half):
        # the bound the best-so-far update relies on, at arbitrary points
        f = expand_to_table(
            generate_instance(4, alpha_half, num_terms=4, max_scope=2, seed=65)
        )
        rng = random.Random(0)
        for _ in range(50):
            x = random_box_point(4, alpha_half, rng)
            support_min = min(f[u] for u in decompose(x).support())
            assert support_min <= extension_value(f, x)


class TestOptimality:
    def test_matches_brute_force_on_batch(self):
        for k in range(12):
            n = 2 + k % 4
            alpha = ALPHA_GRID[k % 4]
            f = generate_instance(n, alpha, num_terms=n, max_scope=2, seed=700 + k)
            report = minimize(f)
            _, best = brute_force_min(expand_to_table(f))
            assert report.certified, (k, n, str(alpha))
            assert report.value == report.lower_bound == best, (k, n, str(alpha))

    def test_cut_cap_keeps_a_valid_bound(self):
        # Tilted so that the zero start is not optimal: one round leaves a gap.
        alpha = Alpha(Fraction(1, 3))
        f = expand_to_table(
            generate_instance(4, alpha, num_terms=4, max_scope=2, seed=71)
        )
        tilt = (5, -7, 3, -2)
        f = TableFunction(
            4,
            alpha,
            {u: f[u] + sum(c * x for c, x in zip(tilt, numeric(u, alpha))) for u in all_labelings(4)},
        )
        _, best = brute_force_min(f)
        capped = minimize(f, MinimizeConfig(max_iters=1))
        assert capped.stop_reason == "cut_cap" and not capped.certified
        assert capped.iterations_used == capped.cuts == 1
        assert capped.lower_bound <= best <= capped.value
        assert capped.gap == capped.value - capped.lower_bound > 0
        full = minimize(f)
        assert full.certified and full.value == best
        assert full.iterations_used > 1


_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "minimize_golden.json")
with open(_GOLDEN_PATH, encoding="utf-8") as _handle:
    _GOLDEN = json.load(_handle)


def _golden_config(doc: dict, alpha: Alpha) -> MinimizeConfig:
    # Step rules and tolerances no longer exist; iters, seed and start do.
    start = doc.get("start")
    return MinimizeConfig(
        max_iters=doc.get("iters"),
        seed=doc.get("seed"),
        start=FractionalPoint.parse(start, alpha) if start else None,
    )


class TestRationalScaling:
    """Every term value of the recorded sum instances divided by 6.

    The run goes through the sum oracle's common denominator end to end: it
    must take the same path, and its value and bound must be exactly 1/6 of
    the unscaled run's.
    """

    @pytest.mark.parametrize(
        "index",
        [i for i, doc in enumerate(_GOLDEN["instances"]) if "terms" in doc],
    )
    def test_dividing_every_term_by_6_scales_the_run(self, index):
        f = instance_from_json(_GOLDEN["instances"][index])
        scaled = SumFunction(
            f.arity,
            f.alpha,
            [
                Term(scope, TableFunction(t.arity, f.alpha, {u: t[u] / 6 for u in all_labelings(t.arity)}))
                for scope, t in f.terms
            ],
        )
        whole, sixth = minimize(f), minimize(scaled)
        assert sixth.minimizer == whole.minimizer
        assert sixth.oracle_calls == whole.oracle_calls
        assert sixth.cuts == whole.cuts
        assert sixth.stop_reason == whole.stop_reason == "certified"
        assert sixth.value == whole.value / 6
        assert sixth.lower_bound == whole.lower_bound / 6


class TestGoldenReports:
    """The runs recorded from the projected-subgradient minimizer.

    tests/data/minimize_golden.json holds ten tilted instances (sum and
    table form, n = 2-6, alpha in 1/3, 1/2, 3/4, 1, 2/7, 5/9) and 56 runs
    of the descent under default, seeded, fixed-step, overshooting
    fixed-step, off-grid explicit start and tolerance configurations.  Each
    run, under the fields that still exist, must now be certified at the
    brute-force minimum, and so never worse than the recorded value; nine
    recorded fixed-step runs stopped above it.
    """

    @pytest.mark.parametrize("index", range(len(_GOLDEN["runs"])))
    def test_report_matches_recorded(self, index):
        run = _GOLDEN["runs"][index]
        f = instance_from_json(_GOLDEN["instances"][run["instance"]])
        report = minimize(f, _golden_config(run["config"], f.alpha))
        _, best = brute_force_min(expand_to_table(f))
        assert report.certified
        assert report.value == report.lower_bound == best
        assert report.value <= Fraction(run["report"]["value"])

    def test_recorded_runs_above_the_minimum(self):
        above = []
        for index, run in enumerate(_GOLDEN["runs"]):
            f = instance_from_json(_GOLDEN["instances"][run["instance"]])
            if Fraction(run["report"]["value"]) != brute_force_min(expand_to_table(f))[1]:
                above.append(index)
        assert len(above) == 9
        assert all("step" in _GOLDEN["runs"][i]["config"] for i in above)


def _master(cuts, alpha):
    """t* of the primal master LP on `cuts`, solved afresh by `linear_min`."""
    return linear_min(*master_program(alpha, cuts))[0]


def _rounds(f, cfg, monkeypatch):
    """Run minimize and log each round: [cut added or None, t*, pivots].

    A round starts with its one chain walk (`chain_order`); the master LP
    step that follows (`_Program.optimize` on the first master, started at
    the first cut, and after each later cut is appended) records the cut g
    whose integer column it added last and the t* it leaves, and every
    Bland pivot (`_Program._enter`) until the next walk counts as a pivot of
    that round.
    """
    log = []
    pivots = []
    order = minimize_module.chain_order
    optimize, enter = simplex._Program.optimize, simplex._Program._enter

    def chain_order(*args):
        log.append([None, None, len(pivots)])
        return order(*args)

    def record(master):
        g = column_cut(master.columns[-1])
        log[-1][:2] = g, Fraction(-master.pi[len(g)], f.alpha.value.denominator * master.d)
        return master

    def entering(master, col, w, price):
        pivots.append(col)
        enter(master, col, w, price)

    with monkeypatch.context() as patch:
        patch.setattr(minimize_module, "chain_order", chain_order)
        patch.setattr(simplex._Program, "optimize", lambda master: record(optimize(master)))
        patch.setattr(simplex._Program, "_enter", entering)
        report = minimize(f, cfg)
    marks = [entry[2] for entry in log] + [len(pivots)]
    for entry, before, after in zip(log, marks, marks[1:]):
        entry[2] = after - before
    return report, log


def test_the_dual_form_takes_the_primal_pivot_count():
    # `skewbisub generate --n 32 --alpha 1/2 --terms 64 --seed 5`: the
    # smallest-index dual simplex on the primal master took 508 pivots over
    # 36 rounds here, and Bland's rule on the dual form takes the same.
    f = generate_instance(32, ALPHA_GRID[1], num_terms=64, max_scope=2, seed=5)
    report = minimize(f)
    assert report.certified
    assert (report.iterations_used, report.lp_pivots) == (36, 508)


def _golden_runs():
    for run in _GOLDEN["runs"]:
        f = instance_from_json(_GOLDEN["instances"][run["instance"]])
        yield f, _golden_config(run["config"], f.alpha)


class TestWarmMaster:
    def test_each_round_bound_matches_the_cold_master(self, pool_desk, monkeypatch):
        # Every pool_desk instance and every golden run: the bound of each
        # round equals the primal master LP solved afresh on the same cuts,
        # and a round whose cut is already stored does no LP work.
        runs = [(f, MinimizeConfig()) for f in pool_desk] + list(_golden_runs())
        repeats = 0
        for f, cfg in runs:
            report, log = _rounds(f, cfg, monkeypatch)
            alpha = f.alpha.value
            cuts = []
            bound = None
            for g, t, pivots in log:
                if g is None:
                    assert pivots == 0
                    repeats += 1
                    continue
                cuts.append(g)
                bound = t
                assert t == _master(cuts, alpha)
            assert len(log) == report.iterations_used and len(cuts) == report.cuts
            assert report.lower_bound == f.evaluate((ZERO,) * f.arity) + bound
            # The first master LP is written down at its optimal basis.
            assert log[0][2] == 0
            assert report.lp_pivots == sum(p for _, _, p in log)
        assert repeats > 0

    def test_a_repeated_cut_costs_no_pivots(self, monkeypatch):
        # pool_desk's k = 83: n = 6, alpha = 1, 8 rounds and 7 cuts.
        f = generate_instance(6, ALPHA_GRID[3], num_terms=6, max_scope=2, seed=9283)
        report, log = _rounds(f, MinimizeConfig(), monkeypatch)
        assert (report.iterations_used, report.cuts) == (8, 7)
        assert log[-1][0] is None and log[-1][2] == 0
        assert report.certified


_ALPHAS = st.integers(1, 9).flatmap(
    lambda q: st.integers(1, q).map(lambda p: Fraction(p, q))
)
_CUT_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_CUT_ENTRIES, min_size=1, max_size=7), _ALPHAS)
@example([Fraction(0)] * 3, Fraction(1, 2))  # g = 0, so t* = 0 and t+ is basic
@example([Fraction(0)], Fraction(1))
@example([Fraction(2), Fraction(0), Fraction(-5, 6)], Fraction(1))
@example([Fraction(1, 7), Fraction(-3, 4)], Fraction(8, 9))
def test_first_master_is_the_cold_optimal_tableau(g, alpha):
    # The first master starts at its basis with lambda_1's pivot alone, the
    # unit pairs placed by sign in the state that pivoting them in from
    # R = I reaches; Bland's rule finds it optimal, and its y* is the box
    # corner that the Fraction reference reaches cold on the primal master.
    n = len(g)
    with recorded_pivots() as pivots:
        master = add_cut(None, cut_column(g), alpha)
    assert pivots == [(n, 2 * n)] and master.pivots == 0
    pi, denominator = master.pi, alpha.denominator * master.d
    assert master.d == common_denominator(g)[0]
    start = [j if v > 0 else n + j for j, v in enumerate(g)] + [2 * n]
    # The same program with its unit pairs stored, pivoted in and priced densely.
    columns = unit_pair_columns(n) + master.columns
    resumed = simplex._Program(master.costs, columns, [0] * n + [1], start).optimize()
    assert (resumed.inverse, resumed.basis) == (master.inverse, master.basis)
    assert (resumed.d, resumed.pi, resumed.pivots) == (master.d, pi, 0)
    c, A, b, _ = master_program(alpha, [g])
    t_star, cold = reference_linear_min(c, A, b)
    assert Fraction(-pi[n], denominator) == t_star
    y = tuple(Fraction(v, denominator) for v in pi[:n])
    assert y == tuple(z - alpha for z in cold[:n])
    assert y == tuple(-alpha if v > 0 else Fraction(1) for v in g)


class TestDualMaster:
    """The master LP in dual form on hand-checkable cuts, n <= 2 and alpha = 1/2.

    Each cut is added as `minimize` adds it (conftest's `add_cut`).
    """

    def setup_method(self):
        self.master = None

    def _add(self, g):
        """(y*, t*, Bland pivots so far) after adding the cut g."""
        self.master = add_cut(self.master, cut_column([Fraction(v) for v in g]), Fraction(1, 2))
        pi, denominator = self.master.pi, 2 * self.master.d
        return Fraction(pi[0], denominator), Fraction(-pi[1], denominator), self.master.pivots

    def test_added_cut_moves_the_optimum(self):
        # t >= y puts y* at -1/2; adding t >= -y moves it to 0, t* = 0.
        assert self._add([1]) == (Fraction(-1, 2), Fraction(-1, 2), 0)
        assert self._add([-1]) == (0, 0, 1)

    def test_slack_cut_takes_no_pivot(self):
        # t >= 2y lies below t >= y at y = -1/2.
        first = self._add([1])
        assert self._add([2]) == first

    def test_repeated_cut_takes_no_pivots(self):
        self._add([3, -1])
        moved = self._add([-2, 5])
        assert moved[2] > 0
        assert self._add([-2, 5]) == moved


_REPORTS_PATH = os.path.join(os.path.dirname(__file__), "data", "minimize_reports.json")


class TestRecordedReports:
    """Whole reports, byte for byte.

    tests/data/minimize_reports.json holds `to_json()` of the 56 golden runs
    and of `minimize` with defaults on the 100 `pool_desk` instances, as the
    cold-started master LP produced them.
    """

    @pytest.fixture(scope="class")
    def recorded(self):
        with open(_REPORTS_PATH, encoding="utf-8") as handle:
            return json.load(handle)

    def test_golden_runs(self, recorded):
        assert len(recorded["golden"]) == len(_GOLDEN["runs"])
        for (f, cfg), doc in zip(_golden_runs(), recorded["golden"]):
            assert json.dumps(minimize(f, cfg).to_json()) == json.dumps(doc)

    def test_pool_desk(self, pool_desk, recorded):
        assert len(recorded["pool_desk"]) == len(pool_desk)
        for f, doc in zip(pool_desk, recorded["pool_desk"]):
            assert json.dumps(minimize(f).to_json()) == json.dumps(doc)


_NUDGE_ALPHAS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2, 7), Fraction(5, 9))


def _nudged_table(k: int) -> TableFunction:
    """A generated table, n = 1-4, with one entry moved past its boundary."""
    rng = random.Random(k)
    n = 1 + k % 4
    alpha = _NUDGE_ALPHAS[k % len(_NUDGE_ALPHAS)]
    g = expand_to_table(
        generate_instance(n, Alpha(alpha), num_terms=n + 1, max_scope=2, seed=4000 + k)
    )
    values = {u: g[u] for u in all_labelings(n)}
    while True:
        u = rng.choice(list(values))
        sign = rng.choice((1, -1))
        t = boundary_shift(values, n, alpha, u, sign)
        if t is not None:
            break
    values[u] += sign * (t + rng.choice((Fraction(1, 997), Fraction(1), t + 3)))
    return TableFunction(n, Alpha(alpha), values)


class TestNotConvex:
    def test_nudged_tables(self):
        outcomes = {"certified": 0, "certified_above_minimum": 0, "not_convex": 0, "cut_cap": 0}
        for k in range(100):
            f = _nudged_table(k)
            assert check_alpha_bisubmodular(f) is not None
            report = minimize(f)
            _, best = brute_force_min(f)
            assert report.value >= best
            assert [v for _, v in report.trajectory_best][-1] == report.value
            if report.stop_reason == "not_convex":
                w = report.witness
                zero = f[(ZERO,) * f.arity]
                bound = zero + sum(g * x for g, x in zip(w.g, numeric(w.u, f.alpha)))
                assert f[w.u] == w.value < bound == w.bound
                assert w.u == report.minimizer and report.value < report.lower_bound
                outcomes["not_convex"] += 1
            elif report.certified:
                assert report.value == report.lower_bound
                assert report.witness is None
                outcomes["certified"] += 1
                if report.value > best:
                    outcomes["certified_above_minimum"] += 1
            else:
                outcomes["cut_cap"] += 1
        # How often a table that is not skew bisubmodular still ends
        # certified above its minimum is printed, not bounded.
        print(f"nudged tables: {outcomes}")
        assert outcomes["not_convex"] > 0


def test_labelings_are_decoded_only_for_the_report(monkeypatch):
    # The walk hands the oracle the labeling it carries, so `labeling_at`
    # decodes a lex index only for the reported minimizer and, on a
    # not_convex stop, for the witness.
    decoded = []
    decode = minimize_module.labeling_at

    def counting(code, n):
        decoded.append(code)
        return decode(code, n)

    monkeypatch.setattr(minimize_module, "labeling_at", counting)
    f = generate_instance(6, ALPHA_GRID[1], num_terms=12, max_scope=2, seed=5)
    runs = [
        (f, MinimizeConfig(), "certified", 1),
        (f, MinimizeConfig(max_iters=1, seed=3), "cut_cap", 1),
        (_nudged_table(21), MinimizeConfig(), "not_convex", 2),
    ]
    for g, cfg, stop_reason, calls in runs:
        decoded.clear()
        report = minimize(g, cfg)
        assert report.stop_reason == stop_reason and report.distinct_points > 1
        assert len(decoded) == calls


def _fraction_cut(order, nums, chain, alpha):
    """The walk's cut g in Fractions: Delta where j goes Pos, -Delta / alpha where Neg."""
    g = [Fraction(0)] * len(order)
    for k, j in enumerate(order):
        step = chain[k + 1] - chain[k]
        g[j] = step if nums[j] >= 0 else -step / alpha
    return g


#: Oracle values over mixed denominators.
_CHAIN_VALUES = st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 7, 9)))


@st.composite
def _walks(draw):
    """(order, nums, chain, alpha): one chain walk's order, signs and values."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    # Zero coordinates are drawn often; they walk on the Pos side.
    nums = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if draw(st.booleans()):
        chain = [draw(_CHAIN_VALUES)] * (n + 1)  # g = 0
    else:
        chain = draw(st.lists(_CHAIN_VALUES, min_size=n + 1, max_size=n + 1))
    return order, nums, chain, draw(st.sampled_from(_NUDGE_ALPHAS))


@settings(max_examples=500, deadline=None)
@given(_walks(), st.integers(1, 12))
@example(([0, 1], [0, 0], [Fraction(3, 2)] * 3, Fraction(1, 2)), 1)
@example(([1, 0, 2], [-1, 0, 2], [Fraction(1, 3), Fraction(-1, 4), Fraction(5, 6), 2], Fraction(2, 7)), 5)
@example(([0], [-1], [Fraction(0), Fraction(7, 9)], Fraction(5, 9)), 1)
def test_cut_column_is_the_scaled_fraction_cut(walk, k):
    # The integer column built from the chain values, read over any common
    # denominator D k of them (D their lcm), is (s g, s) for the cut g that
    # Fraction arithmetic gives, s the lcm of g's denominators.
    order, nums, chain, alpha = walk
    g = _fraction_cut(order, nums, chain, alpha)
    s, ints = common_denominator(g)
    denominator = common_denominator(chain)[0] * k
    scaled = [int(v * denominator) for v in chain]
    column = lovasz._cut_column(
        order, nums, scaled, denominator, alpha.numerator, alpha.denominator
    )
    assert column == (*ints, s)
    assert all(type(v) is int for v in column) and math.gcd(*column) == 1


def test_unit_block_prices_are_the_dense_prices(monkeypatch):
    # Every Bland step of an n = 8 run prices u_j = -e_j and v_j = e_j in
    # closed form; those prices are d C_j - pi M_j on the dense columns, and
    # the step pivots as the dense step (no unit pairs) does on a copy of
    # its state.
    steps = []
    step = simplex._Program._step

    def checking_step(program):
        cost, d, pi, units = program.costs, program.d, program.pi, program.units
        assert units == len(pi) - 1
        M = unit_pair_columns(units)
        dense = [d * cost[j] - sum(v * a for v, a in zip(pi, M[j])) for j in range(2 * units)]
        closed = [d * c + v for c, v in zip(cost, pi[:units])]
        closed += [d * c - v for c, v in zip(cost[units:], pi[:units])]
        assert closed == dense
        # The program at the same basis with the unit pairs stored as dense
        # columns; its rows may come in another order, so each basic
        # column's row of [R | d B^-1 r] is compared.
        copy = simplex._Program(cost[:], M + program.columns, [0] * units + [1], program.basis)
        assert (copy.d, copy.pi) == (d, pi)
        expected = step(copy)
        made = step(program)
        state = dict(zip(program.basis, program.inverse)), program.d, program.pi
        assert made == expected and state == (dict(zip(copy.basis, copy.inverse)), copy.d, copy.pi)
        steps.append(made)
        return made

    monkeypatch.setattr(simplex._Program, "_step", checking_step)
    f = generate_instance(8, ALPHA_GRID[1], num_terms=16, max_scope=2, seed=5)
    report = minimize(f)
    assert report.certified
    assert steps.count(True) == report.lp_pivots > 0


def test_walk_columns_are_the_subgradient_columns(pool_desk, monkeypatch):
    # The first round at a given start adds the column of the subgradient
    # at that point, on random points and on points with zero and tied
    # coordinates.
    added = []
    init, append = simplex._Program.__init__, simplex._Program.append

    def recording_init(master, costs, columns, *args):
        added.extend(columns)
        init(master, costs, columns, *args)

    def recording_append(master, cost, column):
        added.append(column)
        append(master, cost, column)

    monkeypatch.setattr(simplex._Program, "__init__", recording_init)
    monkeypatch.setattr(simplex._Program, "append", recording_append)
    rng = random.Random(19)
    for f in pool_desk:
        n, alpha = f.arity, f.alpha
        half = Fraction(1, 2)
        tied = [half if j % 3 == 0 else (-alpha.value * half if j % 3 == 1 else 0) for j in range(n)]
        for x in (random_box_point(n, alpha, rng), FractionalPoint(tuple(tied), alpha)):
            del added[:]
            minimize(f, MinimizeConfig(start=x, max_iters=1))
            assert added == [cut_column(subgradient(f, x))]


def test_a_fresh_walk_is_the_subgradient_cut_and_a_second_is_memoized(pool_desk):
    # The walk asks f(0) and the n chain points once each (n + 1 oracle
    # calls) and returns the subgradient's column; walking the same point
    # again asks nothing and finds the n chain points in the memo.
    rng = random.Random(23)
    for f in pool_desk:
        n, alpha = f.arity, f.alpha
        half = Fraction(1, 2)
        tied = [half if j % 3 == 0 else (-alpha.value * half if j % 3 == 1 else 0) for j in range(n)]
        for x in (random_box_point(n, alpha, rng), FractionalPoint(tuple(tied), alpha)):
            denominator, nums = common_denominator(x.coords)
            calls = f.call_count
            walk = minimize_module._Walk(f)
            column = walk.cut(1, nums, denominator)
            assert f.call_count - calls == n + 1
            assert column == cut_column(subgradient(f, x))
            calls = f.call_count
            assert walk.cut(2, nums, denominator) == column
            assert f.call_count == calls
            assert walk.hits == n
            assert len(walk.cache) == n + 1


def test_the_stop_test_certifies_rejects_and_goes_on(pool_desk):
    # Hand-built: a best value of 5 over D against bounds over D * 7, and
    # two cuts g = (2, 0) and (0, -3), of which the second lies higher at
    # u = (Neg, Neg), the point (-alpha, -alpha).
    f = pool_desk[1]
    assert f.arity == 2
    walk = minimize_module._Walk(f)
    u = (NEG, NEG)
    walk.best_value, walk.best_code = 5, lex_index(u)
    columns = [(2, 0, 1), (0, -3, 1)]
    stop = minimize_module._stop
    assert stop(walk, columns, 35, 7) == ("certified", None)
    assert stop(walk, columns, 34, 7) is None
    reason, witness = stop(walk, columns, 36, 7)
    assert reason == "not_convex"
    scale = f.denominator
    assert witness == ConvexityWitness(
        u, 1, (0, -3), Fraction(5, scale), Fraction(walk.zero, scale) + 3 * f.alpha.value
    )


class TestArityCap:
    @staticmethod
    def _one_term(n):
        return instance_from_json({
            "format": "sum", "n": n, "alpha": "1/2",
            "terms": [{"scope": [0], "values": {"-": "1", "0": "0", "+": "2"}}],
        })

    def test_refused_before_any_oracle_call(self):
        f = self._one_term(DEFAULT_ARITY_CAP + 1)
        with pytest.raises(CapExceededError) as raised:
            minimize(f)
        assert str(raised.value) == (
            f"arity {DEFAULT_ARITY_CAP + 1} exceeds the minimize cap {DEFAULT_ARITY_CAP}"
        )
        assert f.call_count == 0

    def test_the_cap_itself_is_accepted(self, monkeypatch):
        # The cap is read when `minimize` is called.
        monkeypatch.setattr(minimize_module, "DEFAULT_ARITY_CAP", 3)
        assert minimize(self._one_term(3)).certified
        with pytest.raises(CapExceededError, match="arity 4 exceeds the minimize cap 3"):
            minimize(self._one_term(4))
