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

solved cold each round with `simplex.linear_min` (Kelley, J. SIAM 1960).
Then f(0) + t* is a lower bound on f_L, and hence on the discrete minimum.
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
labelings are coded in base 3 (Zero 0, Neg 1, Pos 2), so each chain step
updates the memo key with one addition.  Runs are deterministic given the
configuration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .functions import ValueOracle
from .lattice import Alpha, ArityMismatchError, Labeling, NEG, POS, ZERO, format_labeling, numeric
from .lovasz import FractionalPoint, chain_order

# Not used here; bench/tracing.py wraps these names on this module.
from .lovasz import extension_value, subgradient  # noqa: F401
from .oracles import random_box_point
from .rationals import format_rational
from .simplex import linear_min

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

    max_iters caps the rounds, one chain walk and one master LP each; None
    means 200 * n^2.  The first round walks at `start` when given, else at
    a point a seed draws uniformly from the grid, else at the zero vector.
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
    witness: Optional[ConvexityWitness] = None

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


_DIGIT_LABELS = (ZERO, NEG, POS)


def _decode(code: int, n: int) -> Labeling:
    """The labeling with base-3 code sum_j digit_j 3^j (Zero 0, Neg 1, Pos 2)."""
    labels = []
    for _ in range(n):
        code, digit = divmod(code, 3)
        labels.append(_DIGIT_LABELS[digit])
    return tuple(labels)


def _master(
    cuts: Sequence[Tuple[Fraction, ...]], alpha: Fraction
) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """(t*, y*) of min t s.t. t >= g.y for every cut g, y in [-alpha, 1]^n.

    Equality form over z = y + alpha >= 0: rows z_j + s_j = 1 + alpha, and
    per cut t+ - t- - g.z - r = -alpha sum(g), minimizing t+ - t-.
    """
    n = len(cuts[0])
    k = len(cuts)
    width = 2 * n + 2 + k
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []
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


def _start(f: ValueOracle, cfg: MinimizeConfig) -> Tuple[Fraction, ...]:
    n = f.arity
    if cfg.start is not None:
        if len(cfg.start.coords) != n:
            raise ArityMismatchError(
                f"start point dimension {len(cfg.start.coords)} != oracle arity {n}"
            )
        if cfg.start.alpha != f.alpha:
            raise ValueError("start point alpha differs from the oracle's")
        return cfg.start.coords
    if cfg.seed is not None:
        return random_box_point(n, f.alpha, random.Random(cfg.seed)).coords
    return (Fraction(0),) * n


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
    pos_codes = [2 * 3**j for j in range(n)]
    neg_codes = [3**j for j in range(n)]
    max_iters = cfg.max_iters if cfg.max_iters is not None else 200 * n * n
    y = _start(f, cfg)

    calls_before = f.call_count
    cache: Dict[int, Fraction] = {}
    cache_hits = 0

    def value(code: int) -> Fraction:
        nonlocal cache_hits
        hit = cache.get(code)
        if hit is None:
            hit = cache[code] = f.evaluate(_decode(code, n))
        else:
            cache_hits += 1
        return hit

    zero = value(0)
    best_value: Optional[Fraction] = None
    best_code = 0
    trajectory: List[Tuple[int, Fraction]] = []

    def consider(code: int, candidate: Fraction, t: int) -> None:
        nonlocal best_value, best_code
        if best_value is None or candidate < best_value:
            best_value, best_code = candidate, code
            trajectory.append((t, candidate))

    def walk(t: int) -> Tuple[Fraction, ...]:
        # One pass along the maximal chain at y: feeds the best-so-far (the
        # support atoms, the prefixes where the key drops, and all-Zero when
        # mass is left below magnitude 1) and returns the cut's gradient.
        # A list, not a generator, as in simplex._integer_scale.
        denominator = math.lcm(*[c.denominator for c in y])
        nums = [c.numerator * (denominator // c.denominator) for c in y]
        order, keys = chain_order(nums, p, q)
        code = 0
        previous = zero
        g: List[Fraction] = [Fraction(0)] * n
        for k, j in enumerate(order):
            positive = nums[j] >= 0
            code += pos_codes[j] if positive else neg_codes[j]
            current = value(code)
            step = current - previous
            g[j] = step if positive else step * neg_scale
            previous = current
            if keys[k] != keys[k + 1]:
                consider(code, current, t)
        if keys[0] != denominator * p:
            consider(0, zero, t)
        return tuple(g)

    cuts: List[Tuple[Fraction, ...]] = []
    stop_reason = CUT_CAP
    witness: Optional[ConvexityWitness] = None
    for t in range(1, max_iters + 1):
        g = walk(t)
        if g not in cuts:
            cuts.append(g)
        t_star, y = _master(cuts, alpha)
        lower_bound = zero + t_star
        if best_value == lower_bound:
            stop_reason = CERTIFIED
            break
        if best_value < lower_bound:
            # t* <= max_k g_k.u at the box point u, so some cut lies above f(u).
            stop_reason = NOT_CONVEX
            u = _decode(best_code, n)
            point = numeric(u, f.alpha)
            heights = [sum(gj * uj for gj, uj in zip(cut, point)) for cut in cuts]
            k = max(range(len(cuts)), key=heights.__getitem__)
            witness = ConvexityWitness(u, k, cuts[k], best_value, zero + heights[k])
            break

    return MinimizeReport(
        minimizer=_decode(best_code, n),
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
    )
