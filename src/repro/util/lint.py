"""Minimal static lint: unused imports and yielded timeouts.

The container has no third-party linter, so this module implements the
checks the repository enforces in CI (``tests/test_lint.py``):

- **unused-import**: no module may import a name it never uses.  Dead
  imports are how drift accumulates -- a removed feature leaves its
  imports behind, and the next reader assumes a dependency that does
  not exist.
- **yield-timeout**: outside the kernel (``repro/sim/``), no process may
  ``yield Timeout(...)`` or ``yield <expr>.timeout(...)``: a plain wait
  yields the bare delay and sleeps, with no event object (see
  :class:`repro.sim.Process`).

The unused-import check is deliberately conservative (AST-based, no
name resolution):

- a name counts as *used* if it appears anywhere as an identifier load,
  or as a word inside any string literal (which covers ``__all__``
  re-export lists and string-typed annotations such as
  ``"Generator | Any"``);
- ``__init__.py`` files are skipped entirely: their imports exist to
  re-export the package API;
- ``from __future__`` imports are always considered used.

Run standalone::

    python -m repro.util.lint [path ...]

Exit status: 0 = clean, 1 = findings (printed), 2 = bad path.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, List, NamedTuple

__all__ = ["Finding", "check_file", "check_tree", "main"]

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


_MESSAGES = {
    "unused-import": "unused import '{}'",
    "yield-timeout": "yields {}(...); yield the bare delay to sleep instead",
}


class Finding(NamedTuple):
    """One finding: ``path:line: message`` about ``name``."""

    path: str
    line: int
    name: str
    rule: str = "unused-import"

    def __str__(self) -> str:
        message = _MESSAGES[self.rule].format(self.name)
        return f"{self.path}:{self.line}: {message}"


def _imported_names(tree: ast.AST) -> List[tuple]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b.c`` binds ``a``; ``import a.b as x`` binds x.
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _used_names(tree: ast.AST) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # __all__ entries, doctest text, string annotations.
            used.update(_WORD.findall(node.value))
    return used


def _yielded_timeouts(tree: ast.AST) -> List[tuple]:
    """``(callee, line)`` of each ``yield Timeout(...)``/``yield x.timeout(...)``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (isinstance(func, ast.Name) and func.id == "Timeout") or (
                isinstance(func, ast.Attribute) and func.attr == "timeout"
            ):
                out.append((ast.unparse(func), node.lineno))
    return sorted(out, key=lambda found: found[1])


def check_file(path: "Path | str") -> List[Finding]:
    """Findings for one Python source file."""
    path = Path(path)
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    findings = [
        Finding(str(path), line, name)
        for name, line in _imported_names(tree)
        if name not in used
    ]
    if path.resolve().parent.parts[-2:] != ("repro", "sim"):  # not the kernel
        findings.extend(
            Finding(str(path), line, callee, "yield-timeout")
            for callee, line in _yielded_timeouts(tree)
        )
    return findings


def check_tree(root: "Path | str") -> List[Finding]:
    """Findings for every ``*.py`` under ``root`` (``__init__`` exempt)."""
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"lint target {root} does not exist")
    files: Iterable[Path] = (
        [root] if root.is_file() else sorted(root.rglob("*.py"))
    )
    findings: List[Finding] = []
    for f in files:
        if f.name == "__init__.py":
            continue
        findings.extend(check_file(f))
    return findings


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:]) or ["src"]
    findings: List[Finding] = []
    for p in paths:
        try:
            findings.extend(check_tree(p))
        except FileNotFoundError as exc:
            print(f"lint: error: {exc}", file=sys.stderr)
            return 2
    for finding in findings:
        print(finding)
    if not findings:
        print("lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
