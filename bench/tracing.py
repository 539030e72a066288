"""In-memory spans around skewbisub's layer boundaries, for the traced run.

Spans are recorded by wrapping public functions at the names their callers
look up (a module global or a class attribute), so no program file changes.
Each span holds its name, start and end (perf_counter_ns), the index of the
enclosing span and the operation it belongs to.  A layer's self time is its
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import reference

# A span: [name, start_ns, end_ns, parent index or -1, op index or -1, extra]
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.op = -1  # operation in progress; -1 during set-up

    def wrap(
        self,
        name: str,
        fn: Callable,
        extra: Optional[Callable[[tuple, object], object]] = None,
    ) -> Callable:
        """`fn` recording one span per call; `extra(args, result)` adds counts."""
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, open_spans[-1] if open_spans else -1, self.op, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if extra is not None:
                span[5] = extra(args, result)
            return result

        return traced

    def self_times(self) -> List[int]:
        """Each span's duration minus its direct children's durations, in ns."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def nesting_errors(self) -> List[str]:
        """Spans that end before they start, leave their parent's interval,
        or whose children cover more time than they last."""
        errors = []
        for index, (name, start, end, parent, _, _) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {index} ({name}) ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _, _, _ = self.spans[parent]
                if start < p_start or end > p_end:
                    errors.append(f"span {index} ({name}) leaves its parent {parent}")
        for index, own in enumerate(self.self_times()):
            if own < 0:
                errors.append(f"span {index} ({self.spans[index][0]}) has negative self time")
        return errors

    def dump(self, path: str) -> None:
        """Write one JSON array per span: name, start, end, parent, op, extra."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")))
                handle.write("\n")


def _check_pairs(args: tuple, witness) -> int:
    # Pairs check_alpha_bisubmodular visits: up to and including the
    # witness, or all 9^n when it accepts.
    if witness is None:
        return reference.pairs_scanned(args[0].arity, None)
    found = witness.to_json()
    return reference.pairs_scanned(args[0].arity, (found["a"], found["b"]))


def _minimize_counts(args: tuple, report) -> Tuple[int, int]:
    last_improvement = report.trajectory_best[-1][0] if report.trajectory_best else 0
    return report.iterations_used, report.iterations_used - last_improvement


# (module, class or None, attribute, span name, extra).  Every name a caller
# looks the layer up by is listed, so each call is seen once.
OP_LAYERS: Sequence[Tuple[str, Optional[str], str, str, Optional[Callable]]] = (
    ("skewbisub.cli", None, "run", "cli.run", None),
    ("skewbisub.cli", None, "instance_from_json", "functions.instance_from_json", None),
    ("skewbisub.cli", None, "_verify_all_checks", "cli.verify_all", None),
    ("skewbisub.functions", "SumFunction", "evaluate", "functions.evaluate.sum", None),
    ("skewbisub.functions", "TableFunction", "evaluate", "functions.evaluate.table", None),
    ("skewbisub.cli", None, "check_alpha_bisubmodular", "functions.check", _check_pairs),
    ("skewbisub.cli", None, "minimize", "minimize", _minimize_counts),
    ("skewbisub.minimize", None, "project_box", "minimize.project_box", None),
    ("skewbisub.minimize", None, "extension_value", "lovasz.extension_value", None),
    ("skewbisub.minimize", None, "subgradient", "lovasz.subgradient", None),
    ("skewbisub.cli", None, "convex_closure", "oracles.convex_closure", None),
    ("skewbisub.oracles", None, "linear_min", "simplex.linear_min", None),
    ("skewbisub.oracles", None, "extension_value", "lovasz.extension_value", None),
    ("skewbisub.cli", None, "brute_force_min", "oracles.brute_force_min", None),
    ("skewbisub.cli", None, "decompose", "lovasz.decompose", None),
    ("skewbisub.lovasz", None, "decompose", "lovasz.decompose", None),
    ("skewbisub.cli", None, "extension_value", "lovasz.extension_value", None),
)

SETUP_LAYERS: Sequence[Tuple[str, Optional[str], str, str, Optional[Callable]]] = (
    ("skewbisub.functions", None, "generate_instance", "functions.generate", None),
    ("skewbisub.functions", None, "expand_to_table", "functions.expand_to_table", None),
    ("skewbisub.functions", None, "instance_to_json", "functions.instance_to_json", None),
)


@contextmanager
def patched(tracer: Tracer, layers) -> Iterator[None]:
    """Install the tracer's wrappers for `layers`, and restore the originals."""
    undo = []
    try:
        for module_name, class_name, attribute, name, extra in layers:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            own = attribute in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute, tracer.wrap(name, original, extra))
            undo.append((owner, attribute, own, original))
        yield
    finally:
        for owner, attribute, own, original in reversed(undo):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


# (metric, unit).  Op-phase metrics are per operation, set-up metrics per
# build of the workload's inputs.
PER_LAYER: Sequence[Tuple[str, str]] = (
    ("cli.run.s", "s/op"),
    ("cli.verify_all.s", "s/op"),
    ("functions.instance_from_json.s", "s/op"),
    ("functions.evaluate.sum.calls", "call/op"),
    ("functions.evaluate.sum.s", "s/op"),
    ("functions.evaluate.table.calls", "call/op"),
    ("functions.evaluate.table.s", "s/op"),
    ("functions.check.calls", "call/op"),
    ("functions.check.s", "s/op"),
    ("functions.check.pairs", "pair/op"),
    ("functions.check.ns_per_pair", "ns/pair"),
    ("minimize.s", "s/op"),
    ("minimize.iterations", "iter/op"),
    ("minimize.us_per_iter", "us/iter"),
    ("minimize.iters_after_best", "iter/op"),
    ("minimize.project_box.calls", "call/op"),
    ("minimize.project_box.s", "s/op"),
    ("oracles.convex_closure.calls", "call/op"),
    ("oracles.convex_closure.s", "s/op"),
    ("simplex.linear_min.calls", "call/op"),
    ("simplex.linear_min.s", "s/op"),
    ("oracles.brute_force_min.s", "s/op"),
    ("lovasz.decompose.calls", "call/op"),
    ("lovasz.decompose.s", "s/op"),
    ("lovasz.extension_value.calls", "call/op"),
    ("lovasz.extension_value.s", "s/op"),
    ("lovasz.subgradient.calls", "call/op"),
    ("functions.generate.calls", "call/setup"),
    ("functions.generate.s", "s/setup"),
    ("functions.expand_to_table.s", "s/setup"),
    ("functions.instance_to_json.s", "s/setup"),
)

_SETUP_SPANS = {name for _, _, _, name, _ in SETUP_LAYERS}


def layer_metrics(tracer: Tracer, ops: int, setups: int) -> Dict[str, float]:
    """Per-layer metrics from the recorded spans, keyed as in PER_LAYER."""
    calls: Dict[str, int] = {}
    own_ns: Dict[str, int] = {}
    total_ns: Dict[str, int] = {}
    iterations = after_best = pairs = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, op, extra = span
        if (op >= 0) == (name in _SETUP_SPANS):
            continue  # a set-up layer seen during an operation, or the reverse
        calls[name] = calls.get(name, 0) + 1
        own_ns[name] = own_ns.get(name, 0) + own
        total_ns[name] = total_ns.get(name, 0) + end - start
        if name == "minimize":
            iterations += extra[0]
            after_best += extra[1]
        elif name == "functions.check":
            pairs += extra

    metrics: Dict[str, float] = {}
    for metric, unit in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        per = setups if unit.endswith("/setup") else ops
        if kind == "calls":
            metrics[metric] = calls.get(layer, 0) / per
        elif kind == "s":
            metrics[metric] = own_ns.get(layer, 0) / 1e9 / per
    metrics["minimize.iterations"] = iterations / ops
    metrics["minimize.iters_after_best"] = after_best / ops
    metrics["minimize.us_per_iter"] = (
        total_ns.get("minimize", 0) / 1e3 / iterations if iterations else 0.0
    )
    metrics["functions.check.pairs"] = pairs / ops
    metrics["functions.check.ns_per_pair"] = (
        own_ns.get("functions.check", 0) / pairs if pairs else 0.0
    )
    return metrics
