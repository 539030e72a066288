"""The cutting-plane minimizer and its report contract."""

import importlib
import json
import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewbisub import simplex
from skewbisub import (
    Alpha,
    FractionalPoint,
    MinimizeConfig,
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
)
from conftest import ALPHA_GRID, boundary_shift

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
    """(t*, y*) of min t s.t. t >= g.y for every cut g, y in [-alpha, 1]^n.

    The master LP solved cold, as the minimizer did each round before it
    kept the LP warm.  Equality form over z = y + alpha >= 0: rows z_j + s_j
    = 1 + alpha, and per cut t+ - t- - g.z - r = -alpha sum(g), minimizing
    t+ - t-.
    """
    n = len(cuts[0])
    k = len(cuts)
    width = 2 * n + 2 + k
    rows = []
    rhs = []
    for j in range(n):
        row = [0] * width
        row[j] = row[n + j] = 1
        rows.append(row)
        rhs.append(1 + alpha)
    for i, g in enumerate(cuts):
        row = [-gj for gj in g] + [0] * (n + 2 + k)
        row[2 * n] = 1
        row[2 * n + 1] = -1
        row[2 * n + 2 + i] = -1
        rows.append(row)
        rhs.append(-alpha * sum(g))
    cost = [0] * width
    cost[2 * n] = 1
    cost[2 * n + 1] = -1
    t_star, solution = linear_min(cost, rows, rhs)
    return t_star, tuple([z - alpha for z in solution[:n]])


def _cold_first_master(g, alpha):
    """The master LP with its first cut g, solved cold by both simplex phases.

    The reference for `minimize._first_master`, which builds the optimal
    tableau directly.  Equality form over z = y + alpha >= 0 with columns
    z, s (n each), t+, t- and r: rows z_j + s_j = 1 + alpha, and
    t+ - t- - g.z - r = -alpha sum(g), minimizing t+ - t-.
    """
    n = len(g)
    width = 2 * n + 3
    rows = []
    rhs = []
    for j in range(n):
        row = [0] * width
        row[j] = row[n + j] = 1
        rows.append(row)
        rhs.append(1 + alpha)
    rows.append([-gj for gj in g] + [0] * n + [1, -1, -1])
    rhs.append(-alpha * sum(g))
    cost = [0] * width
    cost[2 * n] = 1
    cost[2 * n + 1] = -1
    return simplex.WarmLP(*simplex._two_phase(cost, rows, rhs))


def _rounds(f, cfg, monkeypatch):
    """Run minimize and log each round: [cut added or None, warm t*, pivots].

    A round starts with its one chain walk (`chain_order`); the master LP
    steps that follow record the cut they add and the t* they leave.
    """
    log = []
    n = f.arity
    order, pivot = minimize_module.chain_order, simplex._pivot
    first, add = minimize_module._first_master, minimize_module._add_cut

    def t_star(lp):
        nums, d = lp.numerators()
        return Fraction(nums[2 * n] - nums[2 * n + 1], d)

    def chain_order(*args):
        log.append([None, None, 0])
        return order(*args)

    def counting_pivot(*args):
        log[-1][2] += 1
        return pivot(*args)

    def first_master(g, p, q):
        lp = first(g, p, q)
        log[-1][:2] = g, t_star(lp)
        return lp

    def add_cut(lp, g, p, q):
        add(lp, g, p, q)
        log[-1][:2] = g, t_star(lp)

    with monkeypatch.context() as patch:
        patch.setattr(minimize_module, "chain_order", chain_order)
        patch.setattr(simplex, "_pivot", counting_pivot)
        patch.setattr(minimize_module, "_first_master", first_master)
        patch.setattr(minimize_module, "_add_cut", add_cut)
        return minimize(f, cfg), log


def _golden_runs():
    for run in _GOLDEN["runs"]:
        f = instance_from_json(_GOLDEN["instances"][run["instance"]])
        yield f, _golden_config(run["config"], f.alpha)


class TestWarmMaster:
    def test_each_round_bound_matches_the_cold_master(self, pool_desk, monkeypatch):
        # Every pool_desk instance and every golden run: the warm bound of
        # each round equals the cold LP on the same cuts, and a round whose
        # cut is already stored does no LP work.
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
                assert t == _master(cuts, alpha)[0]
            assert len(log) == report.iterations_used and len(cuts) == report.cuts
            assert report.lower_bound == f.evaluate((ZERO,) * f.arity) + bound
            # The first master LP starts at its optimal tableau.
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


def _tableau(lp):
    # Row order depends on the pivots taken; the basic column names a row.
    return lp.d, dict(zip(lp.basis, lp.rows)), lp.cost


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
    # Same d, same row for each basic column and same cost row as the
    # two-phase solve, so every later dual pivot is the same too.
    warm = minimize_module._first_master(tuple(g), alpha.numerator, alpha.denominator)
    cold = _cold_first_master(g, alpha)
    assert _tableau(warm) == _tableau(cold)
    assert warm.ncols == cold.ncols and warm.pivots == 0


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
