"""The benchmark's workloads: inputs, operations and output checks.

Inputs are built with skewbisub's public functions, looked up on the
`skewbisub.functions` module so that the traced run sees them.  Every
output is checked against bench/reference.py, which shares no code with
the program.

A workload is a list of pool rounds.  A run executes whole rounds: round r
runs every case of pool round r mod (pool size), one CLI call each.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import skewbisub.functions as sbf
from skewbisub.lattice import POS, ZERO, Alpha, all_labelings

import reference

ALPHAS = ("1/3", "1/2", "3/4", "1")
#: Tilt coefficients c of the unary terms c * x_j are drawn from [-TILT, TILT].
TILT = 20
#: Trials per randomized check of verify-all.
VERIFY_TRIALS = 2
#: Arity of the minimize-tilted instances.  At n = 7 and 8 one operation
#: takes about 1.7 and 2.8 s, and a run would hold too few instances for a
#: steady median.
MINIMIZE_N = 6


@dataclass(frozen=True)
class Case:
    """One CLI call: `command <file> *options`, and what its output must show."""

    file: str
    doc: dict
    command: str
    options: Tuple[str, ...] = ()
    expect_violation: bool = False

    def argv(self, directory: str) -> List[str]:
        return [self.command, os.path.join(directory, self.file), *self.options]


def tilted_instance(n: int, alpha: Alpha, rng: random.Random) -> sbf.SumFunction:
    """generate_instance with 2n terms plus n unary linear terms c * x_j.

    A linear term meets the skew-bisubmodular inequality with equality, so
    the sum stays skew bisubmodular while its minimizer moves off all-Zero.
    """
    base = sbf.generate_instance(
        n=n, alpha=alpha, num_terms=2 * n, max_scope=2, seed=rng.randrange(2**32)
    )
    terms = list(base.terms)
    for j in range(n):
        c = rng.randint(-TILT, TILT)
        table = sbf.TableFunction(1, alpha, {"-": -alpha.value * c, "0": 0, "+": c})
        terms.append(sbf.Term((j,), table))
    return sbf.SumFunction(n, alpha, terms)


def late_violation(table: sbf.TableFunction) -> sbf.TableFunction:
    """Raise f(+0...0) by D = 100 * (1 + max |f|).

    Every pair whose meet and joins hit +0...0 with more weight than the
    pair itself does gains D times that excess on its left-hand side.  The
    excess is at least min(alpha, 1 - alpha) for alpha < 1 and 1 for
    alpha = 1, so at least 1/4 here, and D / 4 exceeds any slack (at most
    4 max |f|); every other pair keeps its slack.  So the first
    violating pair depends on n alone: a = 0-...-, b = +...+, about a third
    of the way through the 9^n scan.
    """
    n = table.arity
    values = {u: table[u] for u in all_labelings(n)}
    raised = (POS,) + (ZERO,) * (n - 1)
    bound = max(abs(v) for v in values.values())
    values[raised] += 100 * (1 + -(-bound.numerator // bound.denominator))
    return sbf.TableFunction(n, table.alpha, values)


def _minimize_tilted(rng: random.Random, rounds: int) -> List[List[Case]]:
    pool = []
    for r in range(rounds):
        cases = []
        for k, alpha in enumerate(ALPHAS):
            f = tilted_instance(MINIMIZE_N, Alpha.parse(alpha), rng)
            cases.append(Case(f"r{r}k{k}.json", sbf.instance_to_json(f), "minimize"))
        pool.append(cases)
    return pool


def _check_table(rng: random.Random, rounds: int) -> List[List[Case]]:
    # (n, violate, alpha): two n = 5 operations in each half, so that the
    # median operation is an n = 5 reject rather than the boundary between
    # two arities, and each verdict meets three alphas.
    strata = (
        (5, False, "1/3"),
        (5, True, "1/2"),
        (5, False, "3/4"),
        (5, True, "1"),
        (4, False, "1/2"),
        (4, True, "1/3"),
    )
    pool = []
    for r in range(rounds):
        cases = []
        for k, (n, violate, alpha) in enumerate(strata):
            table = sbf.expand_to_table(tilted_instance(n, Alpha.parse(alpha), rng))
            if violate:
                table = late_violation(table)
            doc = sbf.instance_to_json(table)
            cases.append(Case(f"r{r}k{k}.json", doc, "check", expect_violation=violate))
        pool.append(cases)
    return pool


def _verify_desk(rng: random.Random, rounds: int) -> List[List[Case]]:
    pool = []
    for r in range(rounds):
        cases = []
        for k, alpha in enumerate(ALPHAS):
            table = sbf.expand_to_table(tilted_instance(4, Alpha.parse(alpha), rng))
            options = ("--trials", str(VERIFY_TRIALS), "--seed", str(rng.randrange(2**16)))
            cases.append(
                Case(f"r{r}k{k}.json", sbf.instance_to_json(table), "verify-all", options)
            )
        pool.append(cases)
    return pool


#: The function making each workload's inputs, and its pool size in rounds
#: of distinct inputs.  The minimize and verify-all pools cover a run
#: without repeating an input, since the cost of those operations varies
#: from instance to instance.  A check costs what n, alpha and the verdict
#: make it, so four rounds do for check-table.
WORKLOADS: Dict[str, Tuple[Callable[[random.Random, int], List[List[Case]]], int]] = {
    "minimize-tilted": (_minimize_tilted, 10),
    "check-table": (_check_table, 4),
    "verify-desk": (_verify_desk, 10),
}


def build_inputs(workload: str, seed: int) -> List[List[Case]]:
    """The workload's pool rounds for a seed; the same seed gives the same inputs."""
    build, rounds = WORKLOADS[workload]
    return build(random.Random(f"{workload}:{seed}"), rounds)


def write_inputs(pool: Sequence[Sequence[Case]], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for cases in pool:
        for case in cases:
            with open(os.path.join(directory, case.file), "w", encoding="utf-8") as handle:
                json.dump(case.doc, handle)


class Checker:
    """Checks CLI outputs against the reference, computing each answer once."""

    def __init__(self) -> None:
        self._instances: Dict[str, reference.Instance] = {}
        self._minimum: Dict[str, Fraction] = {}
        self._violation: Dict[str, Optional[tuple]] = {}

    def _instance(self, case: Case) -> reference.Instance:
        if case.file not in self._instances:
            self._instances[case.file] = reference.Instance(case.doc)
        return self._instances[case.file]

    def minimum(self, case: Case) -> Fraction:
        if case.file not in self._minimum:
            self._minimum[case.file] = reference.brute_force_min(self._instance(case))[1]
        return self._minimum[case.file]

    def violation(self, case: Case) -> Optional[tuple]:
        if case.file not in self._violation:
            self._violation[case.file] = reference.first_violation(self._instance(case))
        return self._violation[case.file]

    def problem(self, case: Case, code: int, stdout: str) -> Optional[str]:
        """None when the output is right, else what is wrong with it."""
        if case.command == "minimize":
            return self._minimize(case, code, stdout)
        if case.command == "check":
            return self._check(case, code, stdout)
        return self._verify_all(case, code, stdout)

    def _minimize(self, case: Case, code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        out = json.loads(stdout)
        value = reference.rational(out["value"])
        at_minimizer = self._instance(case).value(out["minimizer"])
        if value != at_minimizer:
            return f"value {value} but f({out['minimizer']}) = {at_minimizer}"
        if value != self.minimum(case):
            return f"value {value} but the minimum is {self.minimum(case)}"
        if not 0 < out["oracle_calls"] <= 3 ** case.doc["n"] + 1:
            return f"{out['oracle_calls']} oracle calls at n = {case.doc['n']}"
        return None

    def _check(self, case: Case, code: int, stdout: str) -> Optional[str]:
        expected = self.violation(case)
        if (expected is not None) != case.expect_violation:
            return f"the reference scan gives {expected}, not what the input was built for"
        if expected is None:
            if code != 0 or stdout.strip() != "alpha-bisubmodular":
                return f"exit code {code}, output {stdout.strip()!r} on a valid instance"
            return None
        if code != 1:
            return f"exit code {code} on a violating instance"
        out = json.loads(stdout)
        got = (out["a"], out["b"], reference.rational(out["lhs"]), reference.rational(out["rhs"]))
        if got != expected:
            return f"witness {got}, reference {expected}"
        return None

    def _verify_all(self, case: Case, code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        out = json.loads(stdout)
        failed = [name for name, check in out["checks"].items() if not check["pass"]]
        if not out["pass"] or failed:
            return f"checks failed: {failed}"
        entry = out["checks"]["minimize_vs_brute_force"]
        minimum = self.minimum(case)
        for key in ("brute_force", "minimize"):
            if reference.rational(entry[key]) != minimum:
                return f"{key} {entry[key]} but the minimum is {minimum}"
        return None
