"""Exact minimization by Kelley's cutting planes on the extension.

The continuous problem (minimize the extension f_L over the box
[-alpha, 1]^n) and the discrete one share their optimum when f is skew
bisubmodular, because f_L is then convex.  On the linear cell of a point y,
f_L is exactly f(0) + g.y, where g is read off the chain walk at y: coordinate
j's entry is the f-difference Delta across the step where j joins the chain,
Delta on the Pos side and -Delta q/p on the Neg side for alpha = p/q.  For
convex f_L every such g gives a global cut f_L(y') >= f(0) + g.y'.

So each round walks the chain at the current point (`lovasz.chain_order`,
the one integer walk that decompose and subgradient use too), keeps the best
of that walk's support atoms as the answer so far, stores the cut, and moves
to a minimizer of the master LP

    min t  s.t.  t >= g_k.y for every stored cut k,  y in [-alpha, 1]^n,

which is Kelley's method (J. SIAM 1960).  Then f(0) + t* is a lower bound
on f_L, and hence on the discrete minimum.

The master LP needs no solve in the first round: with a single cut g its
optimum sets y_j = -alpha where g_j > 0 and y_j = 1 where g_j <= 0, and
that optimal basis is fixed by the signs of g, so `_first_master` writes
down its fraction-free tableau, the one the simplex would end on.  It is
then kept warm as a `simplex.WarmLP`: its tableau stays alive across rounds.
Each cut is scaled to integers once (`_scale_cut`) and enters as one
integer row with its own slack column.  Dual simplex pivots then restore
optimality; `simplex` shows why the old basis stays dual feasible and why
its smallest-index rule cannot cycle.  t* and y* are read off the tableau
as integers over its denominator.  A round whose cut is already stored
does no LP work.

The run stops with

- ``certified`` when the bound equals the best value found, which is then
  the minimum if f is skew bisubmodular;
- ``not_convex`` when the best value lies below the bound.  Its point u
  then has f(u) < f(0) + g_k.u for a stored cut k, so f_L is not convex and
  f is not skew bisubmodular; the report carries u and k;
- ``cut_cap`` after `max_iters` rounds without either.

A round whose cut is already stored adds no constraint, and then the next
check stops the run, so the loop ends on its own: f_L has finitely many
cells and so finitely many cuts.  Everything is an exact int or Fraction;
the memo is keyed by `lattice.lex_index`, so each chain step updates the
key with one addition of +-3^(n-1-j).  Runs are deterministic given the
configuration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .functions import ValueOracle
from .lattice import Alpha, Labeling, format_labeling, labeling_at, numeric
from .lovasz import FractionalPoint, _check_oracle_point, chain_order

# Not used here; bench/tracing.py wraps these names on this module.
from .lovasz import extension_value, subgradient  # noqa: F401
from .oracles import random_box_point
from .rationals import common_denominator, format_rational
from .simplex import WarmLP

#: Default denominator bound of `project_box`'s snapping grid.
DEFAULT_DENOMINATOR_LIMIT = 1 << 20

CERTIFIED = "certified"
NOT_CONVEX = "not_convex"
CUT_CAP = "cut_cap"


def _snap(vec: Sequence[float], grid: int, unit: int, lo: int) -> List[int]:
    """Numerators over D = grid * unit of vec clamped to [-1, 1], rounded to
    the 1/grid grid and floored at lo / D.

    Infinities clamp to the box bound like any other overshoot; NaN has no
    position and raises.
    """
    try:
        # max/min keep a NaN first argument, so round() sees it and raises.
        return [max(round(min(max(v, -1.0), 1.0) * grid) * unit, lo) for v in vec]
    except ValueError:
        j = next(j for j, v in enumerate(vec) if v != v)
        raise RuntimeError(
            f"non-finite coordinate {j} = {vec[j]!r}: minimizer bug"
        ) from None


def project_box(
    vec: Sequence[float],
    alpha: Alpha,
    max_denominator: int = DEFAULT_DENOMINATOR_LIMIT,
) -> FractionalPoint:
    """Clamp componentwise to [-alpha, 1] and snap to bounded-denominator rationals.

    The snap rounds to the fixed max_denominator grid; a final exact clamp
    re-imposes the box, since -alpha need not be a grid point.  Infinite
    coordinates clamp like any overshoot; NaN raises RuntimeError.
    """
    p, q = alpha.value.numerator, alpha.value.denominator
    denominator = q * max_denominator
    nums = _snap(vec, max_denominator, q, -p * max_denominator)
    return FractionalPoint(tuple(Fraction(num, denominator) for num in nums), alpha)


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
    lp_pivots counts the dual simplex pivots that the added cuts cost, and
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


def _scale_cut(g: Tuple[Fraction, ...], p: int, q: int) -> Tuple[int, List[int], int]:
    """The cut t >= g.y in integers: (s, s g, s beta) for beta = alpha sum(g).

    With G the lcm of g's denominators, beta = p sum(G g) / (q G), and s is
    the lcm of every denominator in the cut's row.
    """
    big_g, h = common_denominator(g)
    s, ints = common_denominator([*g, Fraction(p * sum(h), q * big_g)])
    return s, ints[:-1], ints[-1]


def _first_master(g: Tuple[Fraction, ...], p: int, q: int) -> WarmLP:
    """The master LP with its first cut g, started at its optimal tableau.

    Equality form over z = y + alpha >= 0 with columns z, s (n each), t+,
    t- and r: rows z_j + s_j = 1 + alpha, and t+ - t- - g.z - r =
    -alpha sum(g), minimizing t+ - t-.  Later cuts come in by `_add_cut`.

    The optimum puts y_j at -alpha (s_j basic) where g_j > 0 and at 1 (z_j
    basic) where g_j <= 0, so t* = g.y* <= 0, with t- basic when t* < 0 and
    t+ basic when t* = 0, which happens only for g = 0.  The basis matrix is
    triangular with unit diagonal up to sign, so with the box rows scaled by
    q and the cut row by s (`_scale_cut`), d = q^n s.  Box row j of the
    tableau is d [e_j | e_j | 0 0 0 | 1 + alpha]; the cut row is the cut
    with each basic z_j eliminated through its box row, times d and signed
    so that the basic t column holds d; and the cost row is d times g_j on
    z_j where g_j > 0, -g_j on s_j where g_j <= 0, 1 on r and -t* on the
    right-hand side, all nonnegative.  This is the tableau that
    `simplex._optimal_tableau` builds from this basis, so no pivot is needed.
    """
    n = len(g)
    s, ints, _ = _scale_cut(g, p, q)
    lead = q ** (n - 1)
    d = lead * q * s
    width = 2 * n + 3
    rows: List[List[int]] = []
    basis: List[int] = []
    cut = [0] * (width + 1)
    # d g_j = q^n (s g_j) and d alpha g_j = q^(n-1) p (s g_j).
    neg = pos = 0
    for j, v in enumerate(ints):
        row = [0] * (width + 1)
        row[j] = row[n + j] = d
        row[-1] = lead * s * (p + q)
        rows.append(row)
        if v > 0:
            basis.append(n + j)
            cut[j] = lead * q * v
            pos += v
        else:
            basis.append(j)
            cut[n + j] = -lead * q * v
            neg += v
    cut[-1] = -lead * (q * neg - p * pos)  # -d t*
    cost = cut.copy()
    cost[2 * n + 2] = d
    sign = 1 if cut[-1] else -1
    cut[2 * n], cut[2 * n + 1], cut[2 * n + 2] = -sign * d, sign * d, sign * d
    rows.append(cut)
    basis.append(2 * n + 1 if cut[-1] else 2 * n)
    return WarmLP(rows, basis, cost, d)


def _add_cut(lp: WarmLP, g: Tuple[Fraction, ...], p: int, q: int) -> None:
    """Add t >= g.y, which is g.z - t+ + t- <= alpha sum(g), to the master LP."""
    s, ints, beta = _scale_cut(g, p, q)
    lp.add_integer_row([*ints, *[0] * len(g), -s, s, 0], beta)


def _start(f: ValueOracle, cfg: MinimizeConfig) -> Tuple[Fraction, ...]:
    if cfg.start is not None:
        _check_oracle_point(f, cfg.start)
        return cfg.start.coords
    if cfg.seed is not None:
        return random_box_point(f.arity, f.alpha, random.Random(cfg.seed)).coords
    return (Fraction(0),) * f.arity


def minimize(f: ValueOracle, cfg: MinimizeConfig = MinimizeConfig()) -> MinimizeReport:
    """Run Kelley's cutting planes and return the best discrete point.

    A ``certified`` report means the value is optimal if f is skew
    bisubmodular; `minimize` cannot tell that on its own, but a
    ``not_convex`` report proves that it is not.
    """
    n = f.arity
    alpha = f.alpha.value
    p, q = alpha.numerator, alpha.denominator
    neg_scale = Fraction(-q, p)
    # Coordinate j going from Zero to Pos (Neg) adds (subtracts) 3^(n-1-j).
    steps = [3 ** (n - 1 - j) for j in range(n)]
    zero_code = (3**n - 1) // 2
    max_iters = cfg.max_iters if cfg.max_iters is not None else 200 * n * n
    y = _start(f, cfg)

    calls_before = f.call_count
    cache: Dict[int, Fraction] = {}
    cache_hits = 0

    def value(code: int) -> Fraction:
        nonlocal cache_hits
        hit = cache.get(code)
        if hit is None:
            hit = cache[code] = f.evaluate(labeling_at(code, n))
        else:
            cache_hits += 1
        return hit

    zero = value(zero_code)
    best_value: Optional[Fraction] = None
    best_code = zero_code
    trajectory: List[Tuple[int, Fraction]] = []

    def consider(code: int, candidate: Fraction, t: int) -> None:
        nonlocal best_value, best_code
        if best_value is None or candidate < best_value:
            best_value, best_code = candidate, code
            trajectory.append((t, candidate))

    def walk(t: int, nums: Sequence[int], denominator: int) -> Tuple[Fraction, ...]:
        # One pass along the maximal chain at y = nums / denominator: feeds
        # the best-so-far (the support atoms, the prefixes where the key
        # drops, and all-Zero when mass is left below magnitude 1) and
        # returns the cut's gradient.
        order, keys = chain_order(nums, p, q)
        code = zero_code
        previous = zero
        g: List[Fraction] = [Fraction(0)] * n
        for k, j in enumerate(order):
            positive = nums[j] >= 0
            code += steps[j] if positive else -steps[j]
            current = value(code)
            step = current - previous
            g[j] = step if positive else step * neg_scale
            previous = current
            if keys[k] != keys[k + 1]:
                consider(code, current, t)
        if keys[0] != denominator * p:
            consider(zero_code, zero, t)
        return tuple(g)

    denominator, nums = common_denominator(y)
    cuts: List[Tuple[Fraction, ...]] = []
    lp: Optional[WarmLP] = None
    stop_reason = CUT_CAP
    witness: Optional[ConvexityWitness] = None
    walk_s = lp_s = 0.0
    for t in range(1, max_iters + 1):
        clock = time.perf_counter()
        g = walk(t, nums, denominator)
        walk_s += time.perf_counter() - clock
        if g not in cuts:
            clock = time.perf_counter()
            cuts.append(g)
            if lp is None:
                lp = _first_master(g, p, q)
            else:
                _add_cut(lp, g, p, q)
            # z = N / d, so y = z - p/q = (q N - p d) / (q d) and t = t+ - t-.
            z_nums, d = lp.numerators()
            nums = [q * v - p * d for v in z_nums[:n]]
            denominator = q * d
            lower_bound = zero + Fraction(z_nums[2 * n] - z_nums[2 * n + 1], d)
            lp_s += time.perf_counter() - clock
        if best_value == lower_bound:
            stop_reason = CERTIFIED
            break
        if best_value < lower_bound:
            # t* <= max_k g_k.u at the box point u, so some cut lies above f(u).
            stop_reason = NOT_CONVEX
            u = labeling_at(best_code, n)
            point = numeric(u, f.alpha)
            heights = [sum(gj * uj for gj, uj in zip(cut, point)) for cut in cuts]
            k = max(range(len(cuts)), key=heights.__getitem__)
            witness = ConvexityWitness(u, k, cuts[k], best_value, zero + heights[k])
            break

    return MinimizeReport(
        minimizer=labeling_at(best_code, n),
        value=best_value,
        iterations_used=t,
        oracle_calls=f.call_count - calls_before,
        trajectory_best=trajectory,
        stop_reason=stop_reason,
        lower_bound=lower_bound,
        cuts=len(cuts),
        distinct_points=len(cache),
        cache_hits=cache_hits,
        witness=witness,
        lp_pivots=lp.pivots,
        walk_s=walk_s,
        lp_s=lp_s,
    )
