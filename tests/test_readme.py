"""README's examples run as written.

Each ```python block runs in a fresh namespace.  Each `$ zinterp ...` line
of the CLI transcript block runs in this process, and its stdout must equal
the lines printed under it up to the next blank line, where a line written
as `...` (starting with three dots) stands for any run of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from zinterp.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)
PYTHON = [code for lang, code in BLOCKS if lang == "python"]
TRANSCRIPTS = [
    (match[0], match[1].splitlines())
    for lang, code in BLOCKS if lang == "text"
    for match in re.findall(r"^\$ zinterp (.*)\n((?:.+\n)*)", code, re.M)
]


def transcript_pattern(lines: list) -> re.Pattern:
    """The stdout the printed lines stand for: each line as written, a
    line starting with "..." as any run of lines."""
    return re.compile("".join(
        r"(?:.*\n)*?" if line.startswith("...") else re.escape(line) + r"\n"
        for line in lines))


def test_the_pattern_skips_dotted_lines():
    pattern = transcript_pattern(["a", "...any...", "b"])
    assert pattern.fullmatch("a\nb\n")
    assert pattern.fullmatch("a\nx\ny\nb\n")
    assert not pattern.fullmatch("a\nx\nc\n")
    assert not transcript_pattern(["a"]).fullmatch("a\nb\n")


def test_readme_has_the_examples():
    assert len(PYTHON) == 2
    assert len(TRANSCRIPTS) == 5


@pytest.mark.parametrize("code", PYTHON, ids=["pell", "compiler"])
def test_python_example_runs(code):
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("command, lines", TRANSCRIPTS,
                         ids=[c for c, _ in TRANSCRIPTS])
def test_cli_transcript_matches(capsys, command, lines):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert transcript_pattern(lines).fullmatch(out), out
