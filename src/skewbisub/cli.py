"""Command-line front end over the JSON instance format.

Exit codes are strict: 0 when the requested property holds or the command
succeeds, 1 when a checked property is violated, 2 for malformed input or
usage errors.  All structured output is JSON on stdout; diagnostics go to
stderr.  When the reader of stdout closes it early, the console script
exits 141, as a shell reports a process killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .functions import (
    GenerationBudgetError,
    InstanceFormatError,
    ValueOracle,
    check_alpha_bisubmodular,
    generate_instance,
    instance_from_json,
    instance_to_json,
)
from .lattice import Alpha, Labeling, NEG, POS, ZERO, all_labelings, join, meet0, numeric
from .lovasz import FractionalPoint, decompose, extension_value
from .minimize import NOT_CONVEX, MinimizeConfig, minimize
from .oracles import (
    DEFAULT_LP_CAP,
    brute_force_min,
    convex_closure,
    random_box_point,
)
from .rationals import format_rational


#: Exit code of `main` when stdout is closed before the output is written.
EXIT_BROKEN_PIPE = 128 + 13


def _emit(payload: object) -> None:
    # json.dumps runs the C encoder; json.dump streams through the Python
    # one, whose closures leave reference cycles behind on every call.
    sys.stdout.write(json.dumps(payload, separators=(", ", ": ")) + "\n")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_instance(path: str) -> ValueOracle:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path!r} is not valid JSON: {exc}") from None
    return instance_from_json(document)


def _parse_point(text: str, f: ValueOracle) -> FractionalPoint:
    point = FractionalPoint.parse(text, f.alpha)
    if len(point.coords) != f.arity:
        raise ValueError(
            f"point has {len(point.coords)} coordinates, instance arity is {f.arity}"
        )
    return point


def _cmd_check(args) -> int:
    f = _load_instance(args.instance)
    witness = check_alpha_bisubmodular(f)
    if witness is None:
        print("alpha-bisubmodular")
        return 0
    _emit(witness.to_json())
    return 1


def _cmd_decompose(args) -> int:
    f = _load_instance(args.instance)
    point = _parse_point(args.point, f)
    _emit(decompose(point).to_json())
    return 0


def _cmd_eval(args) -> int:
    f = _load_instance(args.instance)
    point = _parse_point(args.point, f)
    _emit({"f_L": format_rational(extension_value(f, point))})
    return 0


def _cmd_minimize(args) -> int:
    f = _load_instance(args.instance)
    report = minimize(f, MinimizeConfig(max_iters=args.iters, seed=args.seed))
    _emit(report.to_json())
    if args.stats:
        print(json.dumps(report.stats()), file=sys.stderr)
    return 1 if report.stop_reason == NOT_CONVEX else 0


def _check_trials(trials: int) -> None:
    # Zero or negative trials would report an empty pass.
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")


def _closure_mismatch(
    f: ValueOracle, trials: int, rng: random.Random
) -> Optional[Tuple[int, FractionalPoint, Fraction, Fraction]]:
    """The first of `trials` random box points where f_L and the closure differ.

    Returns (trial, point, extension value, closure value), or None when
    they agree at every point.
    """
    for trial in range(trials):
        point = random_box_point(f.arity, f.alpha, rng)
        extension = extension_value(f, point)
        closure = convex_closure(f, point).value
        if closure != extension:
            return trial, point, extension, closure
    return None


def _cmd_verify_closure(args) -> int:
    _check_trials(args.trials)
    f = _load_instance(args.instance)
    mismatch = _closure_mismatch(f, args.trials, random.Random(args.seed))
    if mismatch is not None:
        trial, point, extension, closure = mismatch
        _emit(
            {
                "pass": False,
                "trial": trial,
                "point": str(point),
                "extension": format_rational(extension),
                "closure": format_rational(closure),
            }
        )
        return 1
    _emit({"pass": True, "trials": args.trials})
    return 0


def _verify_all_checks(f: ValueOracle, trials: int, seed: int) -> dict:
    checks: dict = {}

    witness = check_alpha_bisubmodular(f)
    checks["alpha_bisubmodular"] = (
        {"pass": True} if witness is None else {"pass": False, "witness": witness.to_json()}
    )

    # Round-trip: random chain-supported distributions must decompose back
    # to themselves, exactly.
    rng = random.Random(seed)
    roundtrip_ok = True
    detail = None
    for _ in range(trials):
        chain, weights = random_chain_distribution(f.arity, rng)
        coords = [Fraction(0)] * f.arity
        for u, w in zip(chain, weights):
            for j, value in enumerate(numeric(u, f.alpha)):
                coords[j] += w * value
        point = FractionalPoint(tuple(coords), f.alpha)
        recovered = decompose(point).atoms
        if list(recovered) != list(zip(chain, weights)):
            roundtrip_ok = False
            detail = {"point": str(point)}
            break
    checks["decompose_roundtrip"] = {"pass": roundtrip_ok, "trials": trials}
    if detail:
        checks["decompose_roundtrip"].update(detail)

    # Meet/join recombination identity.  It is componentwise and does not
    # depend on f, so the 9 single-label pairs prove it at every arity.
    pairs = [(a, b) for a in all_labelings(1) for b in all_labelings(1)]
    al = f.alpha.value
    identity_ok = all(
        m + al * x + (1 - al) * y == p + q
        for a, b in pairs
        for m, x, y, p, q in zip(
            *[numeric(u, f.alpha) for u in (meet0(a, b), join(a, b, ZERO), join(a, b, POS), a, b)]
        )
    )
    checks["lattice_identity"] = {
        "pass": identity_ok,
        "pairs": len(pairs),
        "exhaustive": False,
    }

    if 3**f.arity <= DEFAULT_LP_CAP:
        mismatch = _closure_mismatch(f, trials, random.Random(seed + 1))
        checks["closure_equality"] = {"pass": mismatch is None, "trials": trials}
        if mismatch is not None:
            checks["closure_equality"]["point"] = str(mismatch[1])
    else:
        checks["closure_equality"] = {
            "pass": True,
            "skipped": f"3^{f.arity} LP variables exceed the cap {DEFAULT_LP_CAP}",
        }

    # check_alpha_bisubmodular above has refused any f past the enumeration
    # cap, so brute force always runs here.
    _, brute_value = brute_force_min(f)
    report = minimize(f)
    checks["minimize_vs_brute_force"] = {
        "pass": report.value == brute_value,
        "brute_force": format_rational(brute_value),
        "minimize": format_rational(report.value),
        "oracle_calls": report.oracle_calls,
    }

    return checks


def random_chain_distribution(
    n: int, rng: random.Random
) -> Tuple[List[Labeling], List[Fraction]]:
    """A random strictly decreasing chain with positive weights summing to 1.

    Atoms are sign-pattern prefixes of a random permutation under random
    fixed signs, in outermost-first order; a size-0 prefix is the all-Zero
    vector and can only appear last.
    """
    signs = [rng.choice((NEG, POS)) for _ in range(n)]
    leave_order = list(range(n))
    rng.shuffle(leave_order)
    length = rng.randint(1, n + 1)
    sizes = sorted(rng.sample(range(n + 1), length), reverse=True)
    chain = []
    for size in sizes:
        labels = [ZERO] * n
        for j in leave_order[:size]:
            labels[j] = signs[j]
        chain.append(tuple(labels))
    raw = [rng.randint(1, 100) for _ in chain]
    total = sum(raw)
    weights = [Fraction(r, total) for r in raw]
    return chain, weights


def _cmd_verify_all(args) -> int:
    _check_trials(args.trials)
    f = _load_instance(args.instance)
    checks = _verify_all_checks(f, trials=args.trials, seed=args.seed)
    ok = all(entry["pass"] for entry in checks.values())
    _emit({"pass": ok, "checks": checks})
    return 0 if ok else 1


def _cmd_generate(args) -> int:
    alpha = Alpha.parse(args.alpha)
    instance = generate_instance(
        n=args.n,
        alpha=alpha,
        num_terms=args.terms,
        max_scope=args.max_scope,
        seed=args.seed,
    )
    _emit(instance_to_json(instance))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections are one `error:` line, exit 2.

    An argument that starts with "-" and a digit is a value, not an option,
    so `--point -1/3,2/3` reads as a point; argparse on its own accepts only
    plain negative numbers such as -1 or -0.5 there.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    Each `parse_args` call fills a fresh namespace, so the shared parser
    carries nothing from one invocation to the next; callers must not add
    arguments to it.
    """
    parser = _Parser(
        prog="skewbisub",
        description="Minimize and verify skew bisubmodular functions given as JSON instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test skew bisubmodularity; exit 1 with a witness on failure")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="chain decomposition of a box point")
    p.add_argument("instance")
    p.add_argument("--point", required=True, help='comma-separated rationals, e.g. "3/5,-1/5"')
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("eval", help="extension value at a box point")
    p.add_argument("instance")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "minimize",
        help="exact cutting-plane minimization with an optimality certificate",
        description=(
            "Minimize f by Kelley's cutting planes on its extension, in exact "
            "arithmetic.  The report's stop_reason is certified (the value "
            "equals the LP lower bound: optimal if f is skew bisubmodular), "
            "not_convex (a point lies below a cut, so f is not skew "
            "bisubmodular; exit 1, with the witness) or cut_cap."
        ),
    )
    p.add_argument("instance")
    p.add_argument(
        "--iters", type=int, default=None, help="cap on cutting-plane rounds (default 200 n^2)"
    )
    p.add_argument("--seed", type=int, default=None, help="draw the first point at random")
    p.add_argument(
        "--stats",
        action="store_true",
        help="also write rounds, cuts, LP pivots, seconds per phase and oracle "
        "accounting as one JSON line on stderr",
    )
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("verify-closure", help="compare extension against the closure LP")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_closure)

    p = sub.add_parser("verify-all", help="run the full verification bundle")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_all)

    p = sub.add_parser("generate", help="emit a random skew-bisubmodular instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--max-scope", type=int, default=2, choices=(1, 2))
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    """Parse and execute one invocation, returning the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (InstanceFormatError, ValueError, GenerationBudgetError) as exc:
        # CapExceededError and arity mismatches are ValueErrors too; all of
        # them are input problems, not property violations.
        return _fail_usage(str(exc))


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush cannot raise again, and exit as a shell
        # reports a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
