"""Exact minimization by Kelley's cutting planes on the extension.

The continuous problem (minimize the extension f_L over the box
[-alpha, 1]^n) and the discrete one share their optimum when f is skew
bisubmodular, because f_L is then convex.  On the linear cell of a point y,
f_L is exactly f(0) + g.y, where g is read off the chain walk at y: coordinate
j's entry is the f-difference Delta across the step where j joins the chain,
Delta on the Pos side and -Delta q/p on the Neg side for alpha = p/q.  For
convex f_L every such g gives a global cut f_L(y') >= f(0) + g.y'.

So each round walks the chain at the current point (`lovasz.chain_order`,
the one walk, which also gives decompose its atoms and subgradient and the
closure LP their chain), keeps the best of that walk's support atoms as the
answer so far, stores the cut, and moves to a minimizer of the master LP

    min t  s.t.  t >= g_k.y for every stored cut k,  y in [-alpha, 1]^n,

which is Kelley's method (J. SIAM 1960).  Then f(0) + t* is a lower bound
on f_L, and hence on the discrete minimum.

The master LP is solved in its dual form, Dantzig and Wolfe's view of
Kelley's method (Oper. Res. 1960):

    min sum_j (alpha u_j + v_j)
    s.t. sum_k lambda_k g_kj - u_j + v_j = 0  (j < n),  sum_k lambda_k = 1,
         lambda, u, v >= 0.

Its optimum is -t*, and the duals pi of its n + 1 rows are y* = pi[:n] and
t* = -pi[n].  It has a fixed n + 1 integer rows and one column per cut.
Scaled by q for alpha = p/q the objective is (p, q, 0), and cut k enters as
the integer column (s_k g_k, s_k), with s_k the lcm of g_k's denominators; a
column scaled by a positive factor moves no pivot.

The walk builds that column from its n + 1 chain values, read as integers
over the oracle's fixed denominator (`ValueOracle.numerator`), with
`lovasz._cut_column`, the one cut builder, which `subgradient` uses too;
its docstring derives the column.  The stored cuts are these int tuples;
the Fraction g is formed only for a witness.

The master is one `simplex._Program`, kept alive across rounds: a new cut
appends one column and resumes Bland's rule from the old optimum, which
stays a feasible basis.  The columns are ordered u_0..u_(n-1),
v_0..v_(n-1), lambda_1, lambda_2, ..., so the master's first 2n columns are
the unit pairs that the solver prices in closed form (`units` = n), and
its stored columns are the cuts alone.  With pi = C_B R for the integer
costs C, y* = pi[:n] / (q d) and t* = -pi[n] / (q d).  The first round
starts from the triangular basis {lambda_1} + {u_j : g_1j > 0} +
{v_j : g_1j <= 0}, which is optimal, so it makes no pivot and no pricing
pass: `simplex._unit_pair_start` writes that program down in closed form.
A round whose cut is already stored does no LP work.

`minimize` builds Kelley's loop from three parts, all at module level:

- the walk, `_Walk`: it holds the memo, f(0), the best value so far with its
  trajectory, and its seconds, and its `cut` walks the chain at y and
  returns the cut's column;
- the master, the `simplex._Program` above: round 1's cut starts it through
  `_unit_pair_start` before the loop, and every round appends its cut and
  re-optimizes when the cut is new (round 1's never is), so all rounds take
  one path; the loop reads y* and the bound off it in one place;
- the stop test, `_stop`, which compares the best value with the bound and
  returns the stop reason, with the witness that `_witness` builds on a
  not_convex stop, or None to go on.

Bland's rule on this dual form takes 508 pivots at n = 32, 3,223 at n = 48
and 5,987 at n = 64 on `generate --alpha 1/2 --terms 2n --seed 5`; CI pins
all three, with each run's rounds and cuts, and the tests the first.  By
Bland's argument (Math. Oper. Res. 1977) it does not cycle.

The run stops with

- ``certified`` when the bound equals the best value found, which is then
  the minimum if f is skew bisubmodular;
- ``not_convex`` when the best value lies below the bound.  Its point u
  then has f(u) < f(0) + g_k.u for a stored cut k, so f_L is not convex and
  f is not skew bisubmodular; the report carries u and k;
- ``cut_cap`` after `max_iters` rounds without either.

A round whose cut is already stored adds no constraint, and then the next
check stops the run, so the loop ends on its own: f_L has finitely many
cells and so finitely many cuts.  Everything is an exact int; Fractions
are made only for the report and the witness.  The memo, the best value so
far and the chain values are numerators over the oracle's denominator D,
and the master's duals are over E = q d, so the checks compare the best
value F_best / D with the bound F_0 / D - pi[n] / E as F_best E against
F_0 E - pi[n] D.  The memo is keyed by the lex indices (`lattice.lex_index`)
that `chain_order` returns with the chain, and a memo miss hands the chain's
labeling to the oracle.  Runs are deterministic given the configuration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .functions import CapExceededError, ValueOracle
from .lattice import ZERO, Alpha, Labeling, format_labeling, labeling_at, numeric
from .lovasz import FractionalPoint, _check_oracle_point, _cut_column, chain_order

# Not used here; bench/tracing.py wraps these names on this module.
from .lovasz import extension_value, subgradient  # noqa: F401
from .oracles import random_box_point
from .rationals import common_denominator, format_rational
from .simplex import _unit_pair_start

#: `minimize` refuses an oracle of larger arity before it does any work.
#: Each round after the first adds a column of n + 1 entries to the master
#: LP and pivots on its (n + 1) x (n + 2) integer inverse, whose entries
#: grow.  On generated sums (`generate --alpha 1/2 --terms 2n --seed 5`,
#: Python 3.11 on a 2-vCPU VM) rounds 2-5 took 0.55 s each at n = 200
#: (365 pivots) and 10.7 s each at n = 500 (1,041 pivots), so at the cap
#: one round already costs about 10 s.
DEFAULT_ARITY_CAP = 500

CERTIFIED = "certified"
NOT_CONVEX = "not_convex"
CUT_CAP = "cut_cap"


def project_box(
    vec: Sequence[float], alpha: Alpha, max_denominator: int = 1 << 20
) -> FractionalPoint:
    """Clamp componentwise to [-alpha, 1] and snap to bounded-denominator rationals.

    The snap rounds to the fixed max_denominator grid; a final exact clamp
    re-imposes the box, since -alpha need not be a grid point.  Infinite
    coordinates clamp like any overshoot; NaN has no position and raises
    RuntimeError.
    """
    p, q = alpha.value.numerator, alpha.value.denominator
    try:
        # Numerators over q * max_denominator; max/min keep a NaN first
        # argument, so round() sees it and raises.
        nums = [
            max(round(min(max(v, -1.0), 1.0) * max_denominator) * q, -p * max_denominator)
            for v in vec
        ]
    except ValueError:
        j = next(j for j, v in enumerate(vec) if v != v)
        raise RuntimeError(f"non-finite coordinate {j} = {vec[j]!r}: minimizer bug") from None
    return FractionalPoint(tuple(Fraction(num, q * max_denominator) for num in nums), alpha)


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs for one minimization run.

    max_iters caps the rounds, one chain walk and at most one new cut each;
    None means 200 * n^2.  The first round walks at `start` when given, else
    at a point a seed draws uniformly from the grid, else at the zero vector.
    """

    max_iters: Optional[int] = None
    seed: Optional[int] = None
    start: Optional[FractionalPoint] = None

    def __post_init__(self) -> None:
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class ConvexityWitness:
    """A point below a stored cut: f(u) < f(0) + g.u, so f_L is not convex."""

    u: Labeling
    cut: int  # index of g among the run's cuts, in the order they were found
    g: Tuple[Fraction, ...]
    value: Fraction  # f(u)
    bound: Fraction  # f(0) + g.u

    def to_json(self) -> dict:
        return {
            "u": format_labeling(self.u),
            "cut": self.cut,
            "g": [format_rational(gj) for gj in self.g],
            "value": format_rational(self.value),
            "bound": format_rational(self.bound),
        }


@dataclass
class MinimizeReport:
    """Outcome of a run: the best discrete point, its exact value, the exact
    lower bound of the last master LP, why the run stopped, and accounting.

    trajectory_best lists (round, value) at each strict improvement.
    lp_pivots counts the simplex pivots that the added cuts cost in the
    master LP's dual form, and
    walk_s and lp_s the seconds spent in chain walks and in the master LP;
    they vary from run to run, so `stats` reports them and `to_json` does not.
    """

    minimizer: Labeling
    value: Fraction
    iterations_used: int
    oracle_calls: int
    trajectory_best: List[Tuple[int, Fraction]]
    stop_reason: str
    lower_bound: Fraction
    cuts: int
    distinct_points: int
    cache_hits: int
    witness: Optional[ConvexityWitness]
    lp_pivots: int
    walk_s: float
    lp_s: float

    @property
    def certified(self) -> bool:
        return self.stop_reason == CERTIFIED

    @property
    def gap(self) -> Fraction:
        return self.value - self.lower_bound

    def to_json(self) -> dict:
        return {
            "minimizer": format_labeling(self.minimizer),
            "value": format_rational(self.value),
            "iterations": self.iterations_used,
            "oracle_calls": self.oracle_calls,
            "trace": [[t, format_rational(v)] for t, v in self.trajectory_best],
            "stop_reason": self.stop_reason,
            "certified": self.certified,
            "lower_bound": format_rational(self.lower_bound),
            "gap": format_rational(self.gap),
            "cuts": self.cuts,
            "distinct_points": self.distinct_points,
            "cache_hits": self.cache_hits,
            "witness": None if self.witness is None else self.witness.to_json(),
        }

    def stats(self) -> dict:
        """What the run did and where its time went, for `minimize --stats`."""
        return {
            "rounds": self.iterations_used,
            "cuts": self.cuts,
            "lp_pivots": self.lp_pivots,
            "walk_s": self.walk_s,
            "lp_s": self.lp_s,
            "oracle_calls": self.oracle_calls,
            "distinct_points": self.distinct_points,
            "cache_hits": self.cache_hits,
        }


def _start(f: ValueOracle, cfg: MinimizeConfig) -> Tuple[Fraction, ...]:
    if cfg.start is not None:
        _check_oracle_point(f, cfg.start)
        return cfg.start.coords
    if cfg.seed is not None:
        return random_box_point(f.arity, f.alpha, random.Random(cfg.seed)).coords
    return (Fraction(0),) * f.arity


class _Walk:
    """The chain walk of Kelley's loop and what it has seen.

    It holds the memo of oracle numerators keyed by lex index with its
    cache hits, f(0), the best value and its lex index, the trajectory of
    strict improvements as (round, value), and the seconds spent walking.
    Values are ints over the oracle's denominator `scale`.  The chain and
    its lex indices come from `chain_order`; the walk reads f at a chain
    labeling only when its lex index is not in the memo.
    """

    def __init__(self, f: ValueOracle) -> None:
        n = f.arity
        self.f = f
        self.scale = f.denominator
        self.p, self.q = f.alpha.value.numerator, f.alpha.value.denominator
        self.zero_code = (3**n - 1) // 2
        self.zero = f.numerator((ZERO,) * n)
        self.cache: Dict[int, int] = {self.zero_code: self.zero}
        self.hits = 0
        self.best_value: Optional[int] = None
        self.best_code = self.zero_code
        self.trajectory: List[Tuple[int, int]] = []
        self.seconds = 0.0

    def cut(self, t: int, nums: Sequence[int], denominator: int) -> Tuple[int, ...]:
        """Walk the maximal chain at y = nums / denominator in round t.

        Feeds the best-so-far (the support atoms innermost first, the
        prefixes where the key drops, then all-Zero when mass is left below
        magnitude 1) and returns the cut's integer column.
        """
        clock = time.perf_counter()
        p, cache, read = self.p, self.cache, self.f.numerator
        order, keys, chain, codes = chain_order(nums, p, self.q)
        values = [self.zero]
        hits = 0
        # Step k + 1 of the chain, and whether its key drops there.
        for code, labeling, key, below in zip(codes[1:], chain[1:], keys, keys[1:]):
            value = cache.get(code)
            if value is None:
                value = cache[code] = read(labeling)
            else:
                hits += 1
            values.append(value)
            if key != below:
                self._consider(t, code, value)
        self.hits += hits
        if keys[0] != denominator * p:
            self._consider(t, self.zero_code, self.zero)
        column = _cut_column(order, nums, values, self.scale, p, self.q)
        self.seconds += time.perf_counter() - clock
        return column

    def _consider(self, t: int, code: int, value: int) -> None:
        if self.best_value is None or value < self.best_value:
            self.best_value, self.best_code = value, code
            self.trajectory.append((t, value))


def _stop(
    walk: _Walk, columns: Sequence[Tuple[int, ...]], bound: int, denominator: int
) -> Optional[Tuple[str, Optional[ConvexityWitness]]]:
    """The stop test: (certified, None), (not_convex, its witness), or None to go on.

    `bound` is the master's bound times D * denominator, the scale at which
    it is compared with the walk's best value over D.
    """
    best = walk.best_value * denominator
    if best == bound:
        return CERTIFIED, None
    if best < bound:
        return NOT_CONVEX, _witness(walk, columns)
    return None


def _witness(walk: _Walk, columns: Sequence[Tuple[int, ...]]) -> ConvexityWitness:
    """The stored cut highest at the best labeling u, which lies below it."""
    # t* <= max_k g_k.u at the box point u, so some cut lies above f(u).
    n = walk.f.arity
    u = labeling_at(walk.best_code, n)
    point = numeric(u, walk.f.alpha)
    gs = [tuple([Fraction(v, cut[n]) for v in cut[:n]]) for cut in columns]
    heights = [sum(gj * uj for gj, uj in zip(g, point)) for g in gs]
    k = max(range(len(gs)), key=heights.__getitem__)
    scale = walk.scale
    return ConvexityWitness(
        u, k, gs[k], Fraction(walk.best_value, scale), Fraction(walk.zero, scale) + heights[k]
    )


def minimize(f: ValueOracle, cfg: MinimizeConfig = MinimizeConfig()) -> MinimizeReport:
    """Run Kelley's cutting planes and return the best discrete point.

    A ``certified`` report means the value is optimal if f is skew
    bisubmodular; `minimize` cannot tell that on its own, but a
    ``not_convex`` report proves that it is not.
    """
    n = f.arity
    if n > DEFAULT_ARITY_CAP:
        raise CapExceededError(f"arity {n} exceeds the minimize cap {DEFAULT_ARITY_CAP}")
    max_iters = cfg.max_iters if cfg.max_iters is not None else 200 * n * n
    denominator, nums = common_denominator(_start(f, cfg))
    calls_before = f.call_count
    walk = _Walk(f)
    column = walk.cut(1, nums, denominator)
    clock = time.perf_counter()
    master = _unit_pair_start(column, walk.p, walk.q)
    lp_s = time.perf_counter() - clock
    for t in range(1, max_iters + 1):
        clock = time.perf_counter()
        if column not in master.columns:
            master.append(0, column)
            master.optimize()
        # y* = pi[:n] / (q d), and the bound f(0) - pi[n] / (q d) times D q d.
        denominator = walk.q * master.d
        nums = master.pi[:n]
        bound = walk.zero * denominator - master.pi[n] * walk.scale
        lp_s += time.perf_counter() - clock
        stop = _stop(walk, master.columns, bound, denominator)
        if stop is not None or t == max_iters:
            break
        column = walk.cut(t + 1, nums, denominator)
    stop_reason, witness = stop or (CUT_CAP, None)

    return MinimizeReport(
        minimizer=labeling_at(walk.best_code, n),
        value=Fraction(walk.best_value, walk.scale),
        iterations_used=t,
        oracle_calls=f.call_count - calls_before,
        trajectory_best=[(r, Fraction(v, walk.scale)) for r, v in walk.trajectory],
        stop_reason=stop_reason,
        lower_bound=Fraction(bound, walk.scale * denominator),
        cuts=len(master.columns),
        distinct_points=len(walk.cache),
        cache_hits=walk.hits,
        witness=witness,
        lp_pivots=master.pivots,
        walk_s=walk.seconds,
        lp_s=lp_s,
    )
