"""README.md's examples, run as a checked transcript.

Every ``sh`` block of the README with a ``$`` line is part of one shell
session: a ``$`` line is a command, and the lines after it, up to the next
``$`` line, are what it prints. A ``...`` line, last, stands for one or more
further lines. The commands run in order in one empty directory:

- ``mkpolar ARGS [2> FILE]`` runs ``mkpolar.cli.run(ARGS)`` in this process.
  It must exit 0 and print the lines shown. Its stderr goes to FILE, or
  must be empty;
- ``echo TEXT > FILE`` writes TEXT and a newline to FILE, as a shell would;
- ``cat FILE`` must show the lines of FILE. In a file of stderr lines,
  each line is compared field by field (``name=value``), and the values of
  the timing fields are not compared.

A block with no ``$`` line (install and test commands) is not run. The
quick start's ``python`` block runs too.
"""

import argparse
import contextlib
import io
import shlex
from pathlib import Path

import pytest

from mkpolar.cli import build_parser, run

README = Path(__file__).resolve().parent.parent / "README.md"
TIMING = {"elapsed_s", "draw_s", "encode_s", "decode_s", "frames_per_s"}


def blocks(language):
    """The lines of each fenced block of the README in the given language."""
    found, block = [], None
    for line in README.read_text().splitlines():
        if block is None:
            if line.startswith("```"):
                block = [] if line[3:].strip() == language else False
        elif line.startswith("```"):
            if block is not False:
                found.append(block)
            block = None
        elif block is not False:
            block.append(line)
    return found


def session():
    """(command, lines shown) for every $ line of the sh blocks, in order."""
    steps = []
    for block in blocks("sh"):
        if not any(line.startswith("$ ") for line in block):
            continue
        assert block[0].startswith("$ "), f"output before the first command: {block[0]!r}"
        for line in block:
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
    return steps


def fields(line):
    """A stderr line's fields, with the timing fields' values left out."""
    pairs = [field.partition("=") for field in line.split(" ")]
    return [(name, sep, None if name in TIMING else value) for name, sep, value in pairs]


def check(command, shown, printed, same=str.__eq__):
    """Assert that printed matches the lines shown for command."""
    if shown[-1:] == ["..."]:
        shown = shown[:-1]
        assert len(printed) > len(shown), f"{command}: expected more than {len(shown)} lines, got {printed}"
        printed = printed[: len(shown)]
    assert "..." not in shown, f"{command}: '...' is only allowed as the last line"
    assert len(printed) == len(shown) and all(map(same, shown, printed)), (
        f"{command}:\nshown:\n" + "\n".join(shown) + "\nprinted:\n" + "\n".join(printed))


def mkpolar(argv):
    """Run the CLI on argv in this process: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run(argv)
    return status, out.getvalue(), err.getvalue()


def test_readme_session(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stderr_files = set()
    for command, shown in session():
        words = shlex.split(command, comments=True)
        if words[0] == "mkpolar":
            argv, target = words[1:], None
            if argv[-2:-1] == ["2>"]:
                argv, target = argv[:-2], argv[-1]
            status, out, err = mkpolar(argv)
            assert status == 0, f"{command}: exit {status}: {err}"
            if target:
                Path(target).write_text(err)
                stderr_files.add(target)
            else:
                assert err == "", f"{command}: stderr {err!r}"
            check(command, shown, out.splitlines())
        elif words[0] == "echo" and words[-2] == ">":
            Path(words[-1]).write_text(" ".join(words[1:-2]) + "\n")
            assert not shown, f"{command}: echo into a file prints nothing"
        elif words[0] == "cat" and len(words) == 2:
            printed = Path(words[1]).read_text().splitlines()
            if words[1] in stderr_files:
                check(command, shown, printed, lambda a, b: fields(a) == fields(b))
            else:
                check(command, shown, printed)
        else:
            pytest.fail(f"the README runs {command!r}, which this transcript cannot check")


def test_readme_session_runs_every_subcommand():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    ran = {shlex.split(command)[1] for command, _ in session() if command.startswith("mkpolar ")}
    assert ran == set(subcommands)


def test_readme_quick_start_runs():
    (block,) = blocks("python")
    exec(compile("\n".join(block), str(README), "exec"), {})


def test_stderr_fields_ignore_only_the_timing_values():
    line = "ebn0_db=0.0 frames=405 elapsed_s=0.01 frames_per_s=1.0"
    assert fields(line) == fields("ebn0_db=0.0 frames=405 elapsed_s=9.9 frames_per_s=2.0")
    assert fields(line) != fields("ebn0_db=0.0 frames=406 elapsed_s=0.01 frames_per_s=1.0")
    assert fields(line) != fields("ebn0_db=0.0 frames=405 elapsed=0.01 frames_per_s=1.0")
