"""Projected subgradient descent on the extension, with chain-support rounding.

The continuous problem (minimize the extension over the box) and the
discrete one share their optimum when the function is skew bisubmodular, so
the loop is plain projected subgradient descent, while every iterate's chain
support is evaluated exactly and the best discrete point seen so far is
carried as the answer.  The support of any iterate is a certificate source:
the extension value there is a convex combination of the support values, so
the support minimum can only undercut it.

The iterate is kept exactly, as integer numerators over one common
denominator D, a multiple of both the snapping grid 2^-20 and the
denominator q of alpha = p/q (and of the start point's denominators).  Each
float step is snapped back to that grid with integer operations, so the
chain walk is `lovasz.chain_order` on those numerators, the one integer
walk that decompose and subgradient use too, and never touches a Fraction;
the step itself is taken in floats.  Labelings are coded in base 3, so each
chain step updates the memo key with one addition.  Every reported value is
an exact rational oracle value.  Runs are deterministic given the
configuration.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .functions import ValueOracle
from .lattice import Alpha, ArityMismatchError, Labeling, NEG, POS, ZERO, format_labeling
from .lovasz import FractionalPoint, chain_order, extension_value, subgradient
from .oracles import random_box_point
from .rationals import format_rational

#: Default denominator bound when snapping float iterates back to rationals.
DEFAULT_DENOMINATOR_LIMIT = 1 << 20


def _check_step_size(name: str, size: float) -> None:
    if not (math.isfinite(size) and size > 0):
        raise ValueError(f"{name} must be positive and finite, got {size}")


@dataclass(frozen=True)
class FixedStep:
    """Constant step size gamma at every iteration."""

    gamma: float

    def __post_init__(self) -> None:
        _check_step_size("step size", self.gamma)


@dataclass(frozen=True)
class DiminishingStep:
    """Step size gamma0 / sqrt(t); gamma0=None means the sampled heuristic.

    The heuristic scales the first step to the box: gamma0 = (box diagonal)
    / (estimated subgradient norm), the norm estimated from f at the 2n+1
    canonical points (all-Zero plus the unit Pos/Neg pattern per
    coordinate).  Falls back to 1 when the estimate is zero, e.g. for a
    constant function.  A value-scale gamma0 (for instance the plain range
    of f) makes the first steps overshoot the box by orders of magnitude
    and the 1/sqrt(t) decay cannot recover within a desk-scale iteration
    budget; diameter-over-gradient is the standard calibration.
    """

    gamma0: Optional[float] = None

    def __post_init__(self) -> None:
        if self.gamma0 is not None:
            _check_step_size("gamma0", self.gamma0)


StepRule = Union[FixedStep, DiminishingStep]


@dataclass(frozen=True)
class MinimizeConfig:
    """Knobs for one minimization run.

    max_iters None means 200 * n^2.  tolerance 0 (the default) runs the full
    iteration budget; a positive tolerance stops once the best discrete value
    is certified within it via the subgradient lower bound.  When no start
    point is given, a seed draws one uniformly from the grid, and with
    neither the run starts at the zero vector.
    """

    max_iters: Optional[int] = None
    step: StepRule = DiminishingStep()
    tolerance: Fraction = Fraction(0)
    seed: Optional[int] = None
    start: Optional[FractionalPoint] = None

    def __post_init__(self) -> None:
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        object.__setattr__(self, "tolerance", Fraction(self.tolerance))
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass
class MinimizeReport:
    """Outcome of a run: the best discrete point, exact value, and accounting."""

    minimizer: Labeling
    value: Fraction
    iterations_used: int
    oracle_calls: int
    trajectory_best: List[Tuple[int, Fraction]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "minimizer": format_labeling(self.minimizer),
            "value": format_rational(self.value),
            "iterations": self.iterations_used,
            "oracle_calls": self.oracle_calls,
            "trace": [[t, format_rational(v)] for t, v in self.trajectory_best],
        }


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
    coordinates clamp like any overshoot; NaN raises RuntimeError.  This is
    the snapping rule the minimizer applies to its integer iterate.
    """
    p, q = alpha.value.numerator, alpha.value.denominator
    denominator = q * max_denominator
    nums = _snap(vec, max_denominator, q, -p * max_denominator)
    return FractionalPoint(tuple(Fraction(num, denominator) for num in nums), alpha)


_DIGIT_LABELS = (ZERO, NEG, POS)


def _decode(code: int, n: int) -> Labeling:
    """The labeling with base-3 code sum_j digit_j 3^j (Zero 0, Neg 1, Pos 2)."""
    labels = []
    for _ in range(n):
        code, digit = divmod(code, 3)
        labels.append(_DIGIT_LABELS[digit])
    return tuple(labels)


class _MemoOracle:
    """Per-run cache of oracle values, exact and float-rendered, by labeling code."""

    def __init__(self, f: ValueOracle):
        self._f = f
        self._n = f.arity
        self.cache: Dict[int, Tuple[Fraction, float]] = {}

    def value(self, code: int) -> Tuple[Fraction, float]:
        hit = self.cache.get(code)
        if hit is None:
            labeling = _decode(code, self._n)
            exact = self._f.evaluate(labeling)
            try:
                hit = (exact, float(exact))
            except OverflowError:
                raise ValueError(
                    f"f({format_labeling(labeling)}) is beyond the float range "
                    "the descent steps in"
                ) from None
            self.cache[code] = hit
        return hit


def _heuristic_gamma0(memo: _MemoOracle, n: int, alpha: Alpha) -> float:
    # Box diagonal over an estimate of the subgradient norm, sampled from
    # the unit Pos/Neg value differences (Neg differences carry the 1/alpha
    # rescaling that the subgradient itself applies).
    base = memo.value(0)[1]
    inv_alpha = 1.0 / float(alpha.value)
    diffs = []
    for j in range(n):
        d_pos = abs(memo.value(2 * 3**j)[1] - base)
        d_neg = abs(memo.value(3**j)[1] - base) * inv_alpha
        diffs.append(max(d_pos, d_neg))
    try:
        norm_sq = 0.0
        for d in diffs:
            norm_sq += d**2
        norm = math.sqrt(norm_sq)
    except OverflowError:
        norm = math.inf
    if norm == math.inf:
        # The squares overflow; hypot scales before it squares.  Finite
        # sums keep the plain rule, whose rounding the reports are pinned to.
        norm = math.hypot(*diffs)
        if norm == math.inf:
            raise ValueError(
                "value differences of f exceed the float range; give the step size explicitly"
            )
    if norm <= 0.0:
        return 1.0
    diameter = (1.0 + float(alpha.value)) * math.sqrt(n)
    return diameter / norm


def minimize(f: ValueOracle, cfg: MinimizeConfig = MinimizeConfig()) -> MinimizeReport:
    """Run projected subgradient descent and return the best discrete point.

    The optimality guarantee assumes f is skew bisubmodular; the loop runs
    (and the convex-combination rounding bound still holds) regardless.
    """
    n = f.arity
    alpha = f.alpha
    if cfg.start is not None:
        if len(cfg.start.coords) != n:
            raise ArityMismatchError(
                f"start point dimension {len(cfg.start.coords)} != oracle arity {n}"
            )
        if cfg.start.alpha != alpha:
            raise ValueError("start point alpha differs from the oracle's")
        start = cfg.start.coords
    elif cfg.seed is not None:
        start = random_box_point(n, alpha, random.Random(cfg.seed)).coords
    else:
        start = (Fraction(0),) * n

    p, q = alpha.value.numerator, alpha.value.denominator
    grid = DEFAULT_DENOMINATOR_LIMIT
    denominator = math.lcm(q * grid, *(c.denominator for c in start))
    unit = denominator // grid
    lo = -p * denominator // q
    full = denominator * p
    nums = [c.numerator * (denominator // c.denominator) for c in start]

    max_iters = cfg.max_iters if cfg.max_iters is not None else 200 * n * n
    calls_before = f.call_count
    memo = _MemoOracle(f)
    cache = memo.cache
    zero = memo.value(0)

    if isinstance(cfg.step, FixedStep):
        gamma0 = cfg.step.gamma
        diminishing = False
    else:
        gamma0 = (
            cfg.step.gamma0
            if cfg.step.gamma0 is not None
            else _heuristic_gamma0(memo, n, alpha)
        )
        diminishing = True

    inv_alpha = 1.0 / float(alpha.value)
    pos_codes = [2 * 3**j for j in range(n)]
    neg_codes = [3**j for j in range(n)]

    best_value: Optional[Fraction] = None
    best_float = math.inf
    best_code = 0
    trajectory: List[Tuple[int, Fraction]] = []

    def consider(code: int, hit: Tuple[Fraction, float], t: int) -> None:
        # Rounding to float is monotone, so a candidate whose float exceeds
        # the best one's cannot improve on it exactly; walk skips those.
        nonlocal best_value, best_float, best_code
        exact = hit[0]
        if best_value is None or exact < best_value:
            best_value, best_float = hit
            best_code = code
            trajectory.append((t, exact))

    def walk(t: int) -> List[float]:
        # One pass along the maximal chain at the iterate, in the order of
        # lovasz.chain_order: feeds the best-so-far candidates (the support
        # atoms, the prefixes where the key drops, and all-Zero when mass is
        # left below magnitude 1) and returns the float subgradient used by
        # the next step.
        order, keys = chain_order(nums, p, q)
        code = 0
        previous = zero[1]
        g_float = [0.0] * n
        for k, j in enumerate(order):
            num = nums[j]
            code += pos_codes[j] if num >= 0 else neg_codes[j]
            hit = cache.get(code) or memo.value(code)
            value = hit[1]
            step_value = value - previous
            g_float[j] = step_value if num >= 0 else -step_value * inv_alpha
            previous = value
            if keys[k] != keys[k + 1] and value <= best_float:
                consider(code, hit, t)
        if keys[0] != full:
            consider(0, zero, t)
        return g_float

    xf = [num / denominator for num in nums]
    g_float = walk(0)
    iterations_used = 0
    best_lower_bound: Optional[Fraction] = None
    certify = cfg.tolerance > 0

    for t in range(1, max_iters + 1):
        if certify:
            x = FractionalPoint(
                tuple(Fraction(num, denominator) for num in nums), alpha
            )
            g_exact = subgradient(f, x)
            current_extension = extension_value(f, x)
            bound = current_extension + sum(
                min(gj * (-alpha.value - xj), gj * (1 - xj))
                for gj, xj in zip(g_exact, x.coords)
            )
            if best_lower_bound is None or bound > best_lower_bound:
                best_lower_bound = bound
            assert best_value is not None
            if best_value - best_lower_bound <= cfg.tolerance:
                break
            g_float = [float(gj) for gj in g_exact]

        gamma = gamma0 / math.sqrt(t) if diminishing else gamma0
        nums = _snap(
            [xj - gamma * gj for xj, gj in zip(xf, g_float)], grid, unit, lo
        )
        xf = [num / denominator for num in nums]
        g_float = walk(t)
        iterations_used = t

    assert best_value is not None
    best_labeling = _decode(best_code, n)
    exact_value = f.evaluate(best_labeling)
    assert exact_value == best_value
    return MinimizeReport(
        minimizer=best_labeling,
        value=exact_value,
        iterations_used=iterations_used,
        oracle_calls=f.call_count - calls_before,
        trajectory_best=trajectory,
    )
