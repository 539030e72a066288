"""End-to-end CLI behavior: exit codes, JSON outputs, reproducibility."""

import gc
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from skewbisub import (
    ChainDecomposition,
    TableFunction,
    all_labelings,
    decompose,
    generate_instance,
    instance_to_json,
    random_box_point,
)
from skewbisub import cli
from skewbisub.cli import run
from skewbisub.lattice import Alpha


@pytest.fixture()
def spike_path(tmp_path, alpha_half):
    f = TableFunction(1, alpha_half, {"-": 0, "0": 1, "+": 0})
    path = tmp_path / "spike.json"
    path.write_text(json.dumps(instance_to_json(f)))
    return str(path)


@pytest.fixture()
def good_path(tmp_path, alpha_half):
    f = generate_instance(4, alpha_half, num_terms=3, max_scope=2, seed=11)
    path = tmp_path / "good.json"
    path.write_text(json.dumps(instance_to_json(f)))
    return str(path)


@pytest.fixture()
def table_path(tmp_path, alpha_half):
    f = TableFunction(
        2, alpha_half, {u: Fraction(i, 2) for i, u in enumerate(all_labelings(2))}
    )
    path = tmp_path / "table.json"
    path.write_text(json.dumps(instance_to_json(f)))
    return str(path)


class TestCheck:
    def test_accepts(self, good_path, capsys):
        assert run(["check", good_path]) == 0
        assert capsys.readouterr().out.strip() == "alpha-bisubmodular"

    def test_rejects_with_witness(self, spike_path, capsys):
        assert run(["check", spike_path]) == 1
        witness = json.loads(capsys.readouterr().out)
        assert witness == {"a": "-", "b": "+", "lhs": "3/2", "rhs": "0"}


class TestDecompose:
    def test_worked_example(self, tmp_path, alpha_half, capsys):
        f = TableFunction(2, alpha_half, {u: 0 for u in all_labelings(2)})
        path = tmp_path / "f.json"
        path.write_text(json.dumps(instance_to_json(f)))
        assert run(["decompose", str(path), "--point", "3/5,-1/5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "atoms": [
                {"u": "+-", "w": "2/5"},
                {"u": "+0", "w": "1/5"},
                {"u": "00", "w": "2/5"},
            ]
        }

    def test_point_required(self, table_path):
        assert run(["decompose", table_path]) == 2

    def test_point_outside_box(self, table_path, capsys):
        assert run(["decompose", table_path, "--point", "2,0"]) == 2
        assert "coordinate 0" in capsys.readouterr().err

    def test_wrong_dimension(self, table_path, capsys):
        assert run(["decompose", table_path, "--point", "1/2"]) == 2

    def test_negative_first_coordinate_is_a_point(self, table_path, capsys):
        expected = {
            "atoms": [
                {"u": "-+", "w": "1/2"},
                {"u": "-0", "w": "1/6"},
                {"u": "00", "w": "1/3"},
            ]
        }
        assert run(["decompose", table_path, "--point", "-1/3,1/2"]) == 0
        assert json.loads(capsys.readouterr().out) == expected
        assert run(["decompose", table_path, "--point=-1/3,1/2"]) == 0
        assert json.loads(capsys.readouterr().out) == expected


class TestEval:
    def test_vertex_returns_table_value(self, table_path, capsys):
        assert run(["eval", table_path, "--point", "1,-1/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # vertex (Pos, Neg) is entry index 6 in lex order, value 6/2 = 3
        assert doc == {"f_L": "3"}

    def test_float_point_rejected(self, table_path, capsys):
        assert run(["eval", table_path, "--point", "0.5,0"]) == 2

    def test_negative_first_coordinate_is_a_point(self, table_path, capsys):
        # 1/2 f(-+) + 1/6 f(-0) + 1/3 f(00) with f = lex index / 2
        assert run(["eval", table_path, "--point", "-1/3,1/2"]) == 0
        assert json.loads(capsys.readouterr().out) == {"f_L": "5/4"}


class TestMinimize:
    def test_reports_and_is_reproducible(self, good_path, capsys):
        assert run(["minimize", good_path, "--iters", "400"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(["minimize", good_path, "--iters", "400"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert set(first) == {
            "minimizer", "value", "iterations", "oracle_calls", "trace",
            "stop_reason", "certified", "lower_bound", "gap", "cuts",
            "distinct_points", "cache_hits", "witness",
        }
        assert first["certified"] is True and first["gap"] == "0"

    @staticmethod
    def _assert_rejected(path, step, capsys):
        # Step rules are gone with the descent: --step is an unknown option.
        assert run(["minimize", path, "--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unrecognized arguments: --step {step}\n"

    def test_step_flag(self, good_path, capsys):
        for step in ("fixed:0.05", "diminishing:0.5", "diminishing"):
            self._assert_rejected(good_path, step, capsys)

    def test_bad_step_flag(self, good_path, capsys):
        assert run(["minimize", good_path, "--step", "newton"]) == 2

    @pytest.mark.parametrize("step", ["fixed:inf", "diminishing:inf", "fixed:-inf", "fixed:nan"])
    def test_non_finite_step_is_a_usage_error(self, good_path, capsys, step):
        self._assert_rejected(good_path, step, capsys)

    def test_value_beyond_float_range_minimizes_exactly(self, tmp_path, alpha_half, capsys):
        big = 10**400
        f = TableFunction(1, alpha_half, {"-": big, "0": big + 1, "+": big + 5})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(instance_to_json(f)))
        assert run(["minimize", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimizer"] == "-" and doc["value"] == str(big)
        assert doc["certified"] is True and doc["lower_bound"] == str(big)

    def test_squares_beyond_float_range_keep_the_heuristic_step(self, tmp_path, alpha_half, capsys):
        # 10^160 squared overflows a float, 10^160 itself does not; the
        # descent's step heuristic squared it, the cutting planes are exact.
        f = TableFunction(1, alpha_half, {"-": 0, "0": 0, "+": -(10**160)})
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(instance_to_json(f)))
        assert run(["minimize", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimizer"] == "+" and doc["value"] == str(-(10**160))

    def test_differences_beyond_float_range_minimize_exactly(self, tmp_path, alpha_half, capsys):
        f = TableFunction(1, alpha_half, {"-": 10**308, "0": 0, "+": -(10**308)})
        path = tmp_path / "cliff.json"
        path.write_text(json.dumps(instance_to_json(f)))
        assert run(["minimize", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimizer"] == "+" and doc["value"] == str(-(10**308))
        assert doc["certified"] is True

    def test_not_convex_exits_1_with_the_report(self, tmp_path, capsys):
        # (1 + alpha) f(0) > f(-) + alpha f(+): the pair (-, +) violates the
        # inequality, and the run finds f(-) below the first cut.
        f = TableFunction(1, Alpha(Fraction(3, 4)), {"-": -1, "0": 6, "+": 13})
        path = tmp_path / "bent.json"
        path.write_text(json.dumps(instance_to_json(f)))
        assert run(["minimize", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["stop_reason"] == "not_convex" and doc["certified"] is False
        assert doc["minimizer"] == "-" and doc["value"] == "-1"
        assert doc["witness"] == {"u": "-", "cut": 0, "g": ["7"], "value": "-1", "bound": "3/4"}
        assert run(["check", str(path)]) == 1

    def test_help_states_what_a_certificate_means(self, capsys):
        assert run(["minimize", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "optimal if f is skew bisubmodular" in text
        assert "--step" not in text

    def test_stats_go_to_stderr_only(self, good_path, capsys):
        assert run(["minimize", good_path]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert run(["minimize", good_path, "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain.out
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        stats = json.loads(captured.err)
        assert set(stats) == {
            "rounds", "cuts", "lp_pivots", "walk_s", "lp_s",
            "oracle_calls", "distinct_points", "cache_hits",
        }
        report = json.loads(captured.out)
        assert stats["rounds"] == report["iterations"] and stats["cuts"] == report["cuts"]
        assert stats["oracle_calls"] == report["oracle_calls"]
        assert stats["walk_s"] >= 0 and stats["lp_s"] >= 0 and stats["lp_pivots"] >= 0


class TestGarbage:
    @pytest.mark.parametrize(
        "command", [["minimize"], ["check"], ["verify-all", "--trials", "1", "--seed", "3"]]
    )
    def test_calls_leave_no_cyclic_garbage(self, good_path, capsys, command):
        # Everything a call allocates is freed by reference counting alone.
        argv = [command[0], good_path, *command[1:]]
        assert run(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                assert run(argv) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


class TestVerifyClosure:
    def test_passes_on_generated(self, tmp_path, capsys):
        f = generate_instance(3, Alpha(Fraction(3, 4)), num_terms=2, max_scope=2, seed=12)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(instance_to_json(f)))
        assert run(["verify-closure", str(path), "--trials", "8", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"pass": True, "trials": 8}

    def test_successive_runs_keep_their_own_options(self, good_path, capsys):
        # The parser is built once per process; an option given to one call
        # must not become the default of the next.
        assert run(["verify-closure", good_path, "--trials", "3", "--seed", "4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"pass": True, "trials": 3}
        assert run(["verify-closure", good_path]) == 0
        assert json.loads(capsys.readouterr().out) == {"pass": True, "trials": 20}

    @pytest.mark.parametrize("command", ["verify-closure", "verify-all"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_must_be_positive(self, good_path, capsys, command, trials):
        assert run([command, good_path, "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --trials must be >= 1, got {trials}\n"

    def test_oracle_calls_per_trial(self, tmp_path, capsys, monkeypatch):
        # The paper's cost model: each trial's closure LP evaluates f at all
        # 3^n points, and its extension value at the atoms of the point's
        # chain decomposition.
        f = generate_instance(3, Alpha(Fraction(1, 3)), num_terms=3, max_scope=2, seed=14)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(instance_to_json(f)))
        loaded = []
        load = cli._load_instance

        def loading(name):
            loaded.append(load(name))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_instance", loading)
        assert run(["verify-closure", str(path), "--trials", "5", "--seed", "3"]) == 0
        capsys.readouterr()
        rng = random.Random(3)
        points = [random_box_point(3, f.alpha, rng) for _ in range(5)]
        atoms = sum(len(decompose(x).atoms) for x in points)
        assert loaded[0].call_count == 5 * 3**3 + atoms

    def test_detects_gap_on_spike(self, spike_path, capsys):
        assert run(["verify-closure", spike_path, "--trials", "300", "--seed", "0"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        assert Fraction(doc["closure"]) < Fraction(doc["extension"])


class TestVerifyAll:
    def test_good_instance_passes(self, good_path, capsys):
        assert run(["verify-all", good_path, "--trials", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        names = set(doc["checks"])
        assert names == {
            "alpha_bisubmodular",
            "decompose_roundtrip",
            "lattice_identity",
            "closure_equality",
            "minimize_vs_brute_force",
        }
        assert all(entry["pass"] for entry in doc["checks"].values())
        # The identity is componentwise, so n = 4 checks the 9 single-label
        # pairs as every other arity does.
        assert doc["checks"]["lattice_identity"] == {
            "pass": True,
            "pairs": 9,
            "exhaustive": False,
        }

    def test_spike_fails_check_only(self, spike_path, capsys):
        assert run(["verify-all", spike_path, "--trials", "5"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        assert doc["checks"]["alpha_bisubmodular"]["pass"] is False
        assert doc["checks"]["decompose_roundtrip"]["pass"] is True
        assert doc["checks"]["lattice_identity"]["pass"] is True

    def test_roundtrip_reports_a_dropped_atom(self, good_path, capsys, monkeypatch):
        # A decomposition that loses its last atom no longer gives back the
        # distribution the point was built from.
        def dropping(x):
            return ChainDecomposition(decompose(x).atoms[:-1])

        monkeypatch.setattr(cli, "decompose", dropping)
        assert run(["verify-all", good_path, "--trials", "3"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is False
        roundtrip = doc["checks"]["decompose_roundtrip"]
        assert roundtrip["pass"] is False and roundtrip["trials"] == 3
        assert "point" in roundtrip

    def test_lattice_identity_beyond_exhaustive_arity(self, tmp_path, capsys):
        # At n = 5, as at every arity, the identity is checked on the 9
        # single-label pairs.
        assert run(["generate", "--n", "5", "--alpha", "1/2", "--terms", "4", "--seed", "0"]) == 0
        path = tmp_path / "five.json"
        path.write_text(capsys.readouterr().out)
        assert run(["verify-all", str(path), "--trials", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["checks"]["lattice_identity"] == {
            "pass": True,
            "pairs": 9,
            "exhaustive": False,
        }

    def test_minimize_line_matches_brute_force(self, good_path, capsys):
        assert run(["verify-all", good_path, "--trials", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        entry = doc["checks"]["minimize_vs_brute_force"]
        assert entry["minimize"] == entry["brute_force"]

    @pytest.mark.parametrize(
        "n, trials, entry",
        [
            (6, "20", {"pass": True, "trials": 20}),
            (7, "1", {"pass": True, "skipped": "3^7 LP variables exceed the cap 729"}),
        ],
    )
    def test_closure_equality_runs_up_to_the_lp_cap(self, tmp_path, capsys, n, trials, entry):
        # The closure LP starts at the chain basis, which makes n = 6 cheap
        # enough to check; n = 7 stays past the cap.
        generate = ["generate", "--n", str(n), "--alpha", "1/3", "--terms", str(2 * n)]
        assert run([*generate, "--seed", "5"]) == 0
        path = tmp_path / f"n{n}.json"
        path.write_text(capsys.readouterr().out)
        assert run(["verify-all", str(path), "--trials", trials]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["closure_equality"] == entry

    def test_arity_past_the_enumeration_cap_is_a_usage_error(self, tmp_path, capsys):
        # The checker runs first and refuses 3^9 > 3^8 points, so verify-all
        # has no partial bundle to print.
        assert run(["generate", "--n", "9", "--alpha", "1/2", "--terms", "4", "--seed", "0"]) == 0
        path = tmp_path / "nine.json"
        path.write_text(capsys.readouterr().out)
        assert run(["verify-all", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 3^9 points exceed the enumeration cap 6561\n"

    def test_closure_gap_is_the_one_verify_closure_finds(self, spike_path, capsys):
        # verify-all draws its closure points from seed + 1.
        assert run(["verify-closure", spike_path, "--trials", "300", "--seed", "1"]) == 1
        found = json.loads(capsys.readouterr().out)
        assert run(["verify-all", spike_path, "--trials", "300", "--seed", "0"]) == 1
        entry = json.loads(capsys.readouterr().out)["checks"]["closure_equality"]
        assert entry == {"pass": False, "trials": 300, "point": found["point"]}


class TestCapsComeFirst:
    """Commands past their cap refuse before they draw, walk or enumerate.

    A one-term sum document is cheap to load at any n, so only the cap
    check stands between these commands and O(n^2) chain walks
    (`verify-closure`), an O(n^2) master LP (`minimize`) or a 3^n
    computation (`check`, `verify-all`).
    """

    @pytest.mark.parametrize(
        "command, n, message",
        [
            ("verify-closure", 10**6, "3^1000000 LP variables exceed the cap 729"),
            ("check", 10**7, "3^10000000 points exceed the enumeration cap 6561"),
            ("verify-all", 10**7, "3^10000000 points exceed the enumeration cap 6561"),
            ("minimize", 10**6, "arity 1000000 exceeds the minimize cap 500"),
        ],
    )
    def test_refused_at_once(self, tmp_path, capsys, command, n, message):
        path = tmp_path / "wide.json"
        doc = {"format": "sum", "n": n, "alpha": "1/2",
               "terms": [{"scope": [0], "values": {"-": "1", "0": "0", "+": "2"}}]}
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run([command, str(path)]) == 2
        # About 0.1 s; computing 3^(10^7) alone takes seconds.
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestGenerate:
    def test_emits_parseable_reproducible_instance(self, capsys):
        argv = ["generate", "--n", "4", "--alpha", "1/2", "--terms", "3", "--seed", "9"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["format"] == "sum"
        assert doc["n"] == 4

    def test_serialization_fixed_point(self, capsys):
        from skewbisub import instance_from_json

        argv = ["generate", "--n", "3", "--alpha", "3/4", "--terms", "2", "--seed", "4"]
        assert run(argv) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert instance_to_json(instance_from_json(doc)) == doc

    def test_closed_stdout_ends_without_traceback(self):
        # The reader closes the pipe before the output is written, as
        # `skewbisub generate ... | head -c 0` does.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["generate", "--n", "4", "--alpha", "1/2", "--terms", "3", "--seed", "9"]
        child = subprocess.Popen(
            [sys.executable, "-m", "skewbisub.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 141
        assert err == b""

    def test_bad_alpha(self, capsys):
        argv = ["generate", "--n", "2", "--alpha", "9/8", "--terms", "1", "--seed", "0"]
        assert run(argv) == 2


_GENERATE_PATH = os.path.join(os.path.dirname(__file__), "data", "generate_outputs.json")
with open(_GENERATE_PATH, encoding="utf-8") as _handle:
    _GENERATE_OUTPUTS = json.load(_handle)


@pytest.mark.parametrize("case", _GENERATE_OUTPUTS, ids=[c["args"] for c in _GENERATE_OUTPUTS])
def test_generate_prints_the_recorded_bytes(case, capsys):
    # tests/data/generate_outputs.json holds the stdout of `generate` for
    # each argument set: the README's, CI's, a max-scope 1 set and alphas
    # 2/7 and 5/9.  Any change to the generator or the JSON writer shows here.
    assert run(["generate", *shlex.split(case["args"])]) == 0
    assert capsys.readouterr().out == case["stdout"]


#: SHA-256 of `generate`'s stdout at larger sizes, recorded on the generator
#: that drew one value per `randint` call and tested one table at a time.
_GENERATE_DIGESTS = {
    "--n 500 --alpha 1/2 --terms 1000 --seed 5": (
        "ab9f19bef9b0e66a1e184f1198cc1c095074dad17446691f51fd97874b1419c3"
    ),
    "--n 40 --alpha 1/1000000007 --terms 80 --seed 3": (
        "e3323f25cb93573db6934de35d48586018cc2291f41db8d96a81bb74ab926065"
    ),
}


@pytest.mark.parametrize("args", list(_GENERATE_DIGESTS))
def test_generate_at_scale_prints_the_pinned_bytes(args, capsys):
    # The generator reads many Mersenne Twister words per getrandbits call
    # and relies on CPython's word layout; 1,000 terms draw some 3.9
    # million words, and alpha = 1/1000000007 needs five-byte fields.
    assert run(["generate", *shlex.split(args)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _GENERATE_DIGESTS[args]


class TestMalformedInput:
    def test_missing_file(self, capsys):
        assert run(["check", "/nonexistent/file.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["check", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {str(path)!r} is not UTF-8 text: invalid start byte at position 0\n"
        )

    def test_missing_table_key(self, tmp_path, alpha_half, capsys):
        doc = instance_to_json(
            TableFunction(2, alpha_half, {u: 1 for u in all_labelings(2)})
        )
        del doc["values"]["+-"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        assert run(["check", str(path)]) == 2
        assert "'+-'" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int/str conversion cap before CPython 3.10.7",
    )
    def test_oversized_literal_is_one_line(self, tmp_path, alpha_half, capsys):
        doc = instance_to_json(
            TableFunction(1, alpha_half, {u: 1 for u in all_labelings(1)})
        )
        doc["values"]["+"] = "1" * 5000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(["check", str(path)]) == 2
        finally:
            sys.set_int_max_str_digits(before)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: values['+']: Exceeds the limit (4300 digits)")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no int/str conversion limit in this interpreter",
    )
    @pytest.mark.parametrize("place", ["alpha", "point", "literal"])
    def test_integer_text_past_the_digit_limit_names_its_place(
        self, tmp_path, alpha_half, capsys, place
    ):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        try:
            int(digits)
        except ValueError as exc:
            limit_message = str(exc)
        doc = instance_to_json(
            TableFunction(1, alpha_half, {u: 1 for u in all_labelings(1)})
        )
        path = tmp_path / "long.json"
        argv = ["check", str(path)]
        if place == "alpha":
            doc["alpha"] = "1/" + digits
            where = "alpha"
        elif place == "point":
            argv = ["eval", str(path), "--point", "1/" + digits]
            where = "coordinate 0"
        text = json.dumps(doc)
        if place == "literal":
            # The first value, "1", as a bare JSON integer.
            text = text.replace('"1"', digits, 1)
            where = f"{str(path)!r} exceeds a JSON reader limit"
        path.write_text(text)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: {limit_message}\n"

    def test_nesting_past_the_decoder_limit_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {str(path)!r} exceeds a JSON reader limit: ")
        assert captured.err.count("\n") == 1

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_no_arguments(self):
        assert run([]) == 2

    def test_argument_rejection_is_one_line(self, good_path, capsys):
        assert run(["minimize", good_path, "--iters", "abc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: argument --iters: invalid int value: 'abc'\n"

    @pytest.mark.parametrize("iters", ["0", "-1"])
    def test_iters_must_be_positive(self, good_path, capsys, iters):
        # The message names the option, not MinimizeConfig's field.
        assert run(["minimize", good_path, "--iters", iters]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --iters must be >= 1, got {iters}\n"

    def test_help_prints_usage_and_succeeds(self, capsys):
        assert run(["minimize", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: skewbisub minimize [-h]")
        assert "--iters ITERS" in captured.out
        assert captured.err == ""
