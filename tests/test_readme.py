"""The README's examples run as written.

The `## Library quick start` block is executed as it stands, and each
`skewbisub ...` line of the `## CLI` block goes through `cli.run` in a fresh
directory, its `> FILE` redirect written to that file.  Every line must exit
0, in order, so the later lines read the instance the first one writes.
"""

import re
import shlex
from pathlib import Path

from skewbisub import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_block(section: str, fence: str) -> str:
    """The first fenced block opened by `fence` under the `## section` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^{re.escape(fence)}\n(.*?)^```$", body, re.S | re.M)
    assert match, f"no {fence} block under ## {section}"
    return match.group(1)


def test_library_quick_start_runs():
    # The block asserts its own results.
    exec(compile(_first_block("Library quick start", "```python"), "README.md", "exec"), {})


def test_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _first_block("CLI", "```").splitlines() if line.strip()]
    assert len(lines) == 8
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "skewbisub", line
        target = None
        if ">" in argv:
            at = argv.index(">")
            argv, target = argv[:at], argv[at + 1]
        assert cli.run(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
