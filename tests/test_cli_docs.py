"""Every documented ``repro.cli`` command parses and names a valid spec.

The commands are read from the fenced blocks of ``README.md`` and
``docs/*.md``, from ``scripts/check.sh`` and from the CLI's own usage
synopsis, with backslash continuations joined and trailing comments and
redirections dropped.  Each must parse with ``build_parser()``, and each
``--scenario`` source must build and validate through the CLI's own
loader (a sweep with the first value of each axis), without running.
A command with a NaN override is a documented bad-spec example, and the
loader must refuse it instead.
"""

import glob
import math
import os
import re
import shlex

import pytest

from repro import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIX = "python -m repro.cli "


def _read(rel):
    with open(os.path.join(ROOT, rel)) as fh:
        return fh.read()


def _fenced(text):
    """The lines inside the fenced code blocks of a markdown text."""
    lines, inside = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            lines.append(line)
    return "\n".join(lines)


def _joined(text):
    """The lines of ``text`` with backslash continuations joined."""
    out, pending = [], ""
    for line in text.splitlines():
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
        else:
            out.append(pending + line)
            pending = ""
    return out


def _argv(line):
    """The CLI arguments of one shell line, without comments,
    redirections and anything after a pipe or separator."""
    words = shlex.split(line[line.index(PREFIX) + len(PREFIX):], comments=True)
    argv, skip = [], False
    for word in words:
        if skip:
            skip = False
        elif word in ("|", ";", "&&", "||"):
            break
        elif re.match(r"\d*>", word):
            # "> file" and "2> file" take the next word; "2>&1" does not.
            skip = re.fullmatch(r"\d*>>?", word) is not None
        else:
            argv.append(word)
    return argv


def _documented():
    sources = [
        (os.path.relpath(path, ROOT), _fenced(_read(path)))
        for path in [os.path.join(ROOT, "README.md")]
        + sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    ]
    sources.append(("scripts/check.sh", _read("scripts/check.sh")))
    sources.append(("repro.cli", cli.__doc__))
    found = []
    for source, text in sources:
        lines = [line for line in _joined(text) if PREFIX in line]
        found += [
            pytest.param(line.strip(), id=f"{source}-{i}")
            for i, line in enumerate(lines)
        ]
    return found


DOCUMENTED = _documented()


def test_commands_are_found_in_every_source():
    ids = {p.id.rpartition("-")[0] for p in DOCUMENTED}
    assert {"README.md", "scripts/check.sh", "repro.cli"} <= ids
    assert {"docs/scenarios.md", "docs/workloads.md"} <= ids
    assert len(DOCUMENTED) > 50


def test_argv_drops_comments_and_redirections():
    line = (
        'python -m repro.cli sweep --scenario a --set "x=1,2" '
        '> "$TMP/out.txt" 2>&1  # note'
    )
    assert _argv(line) == ["sweep", "--scenario", "a", "--set", "x=1,2"]
    assert _argv("python -m repro.cli results runs/ 2> /dev/null") == [
        "results", "runs/"
    ]


@pytest.mark.parametrize("line", DOCUMENTED)
def test_documented_command_parses_and_validates(line):
    try:
        args = cli.build_parser().parse_args(_argv(line))
    except SystemExit:
        pytest.fail(f"does not parse: {line}")
    if getattr(args, "scenario", None) is None:
        return  # a --spec FILE, an --artifact or no spec source at all
    if args.command == "sweep":
        axes = cli.parse_overrides(args.overrides, axes=True)
        overrides = {path: values[0] for path, values in axes.items()}
    else:
        overrides = cli.parse_overrides(args.overrides)
    if any(
        isinstance(v, float) and math.isnan(v) for v in overrides.values()
    ):
        with pytest.raises(ValueError):
            cli.load_spec(args, overrides)
    else:
        cli.load_spec(args, overrides)
