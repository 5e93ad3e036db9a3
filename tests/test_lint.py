"""CI lint step: the source tree must stay free of unused imports and
of processes yielding ``Timeout``/``.timeout(...)`` instead of sleeping,
and the test and harness trees free of unused imports.

Backed by :mod:`repro.util.lint` (AST-based; the container ships no
third-party linter).  Runs as part of the default pytest entry point so
neither can creep back in.
"""

import textwrap
from pathlib import Path

from repro.util import lint

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Trees outside ``src/`` held to the unused-import rule only: kernel
#: tests yield ``Timeout`` on purpose.
HARNESS_TREES = ("tests", "benchmarks", "examples", "scripts", "bench")


def test_src_tree_has_no_unused_imports():
    findings = lint.check_tree(REPO_ROOT / "src")
    assert not findings, "\n".join(str(f) for f in findings)


def test_test_and_harness_trees_have_no_unused_imports():
    findings = [
        f
        for tree in HARNESS_TREES
        for f in lint.check_tree(REPO_ROOT / tree)
        if f.rule == "unused-import"
    ]
    assert not findings, "\n".join(str(f) for f in findings)


class TestChecker:
    def _check(self, tmp_path, source: str):
        f = tmp_path / "mod.py"
        f.write_text(textwrap.dedent(source))
        return lint.check_file(f)

    def test_flags_unused_from_import(self, tmp_path):
        findings = self._check(
            tmp_path,
            """
            from os import path, sep
            print(sep)
            """,
        )
        assert [(f.name, f.line) for f in findings] == [("path", 2)]

    def test_flags_unused_module_import(self, tmp_path):
        findings = self._check(tmp_path, "import bisect\n")
        assert [f.name for f in findings] == ["bisect"]

    def test_dotted_import_binds_root(self, tmp_path):
        assert not self._check(
            tmp_path,
            """
            import os.path
            print(os.sep)
            """,
        )

    def test_alias_binds_alias(self, tmp_path):
        findings = self._check(tmp_path, "import numpy as np\n")
        assert [f.name for f in findings] == ["np"]

    def test_name_in_all_counts_as_used(self, tmp_path):
        assert not self._check(
            tmp_path,
            """
            from os import sep
            __all__ = ["sep"]
            """,
        )

    def test_name_in_string_annotation_counts_as_used(self, tmp_path):
        assert not self._check(
            tmp_path,
            """
            from typing import Generator

            def f(x: "Generator | None"):
                return x
            """,
        )

    def test_future_imports_exempt(self, tmp_path):
        assert not self._check(
            tmp_path, "from __future__ import annotations\n"
        )

    def test_init_files_exempt(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("from os import sep\n")
        assert not lint.check_tree(pkg)


class TestYieldTimeout:
    def _check(self, path, source: str):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return [
            (f.name, f.line)
            for f in lint.check_file(path)
            if f.rule == "yield-timeout"
        ]

    FIXTURE = """
        from repro.sim import Timeout

        def proc(env, net):
            yield Timeout(env, 1.0)
            yield env.timeout(2.0)
            yield net.env.timeout(3.0)
            yield 4.0
            timer = env.timeout(5.0)
            yield timer | Timeout(env, 6.0)
            yield timer
        """

    def test_flags_yielded_timeout_calls(self, tmp_path):
        assert self._check(tmp_path / "mod.py", self.FIXTURE) == [
            ("Timeout", 5),
            ("env.timeout", 6),
            ("net.env.timeout", 7),
        ]

    def test_message_names_the_fix(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("def p(env):\n    yield env.timeout(1)\n")
        (finding,) = lint.check_file(path)
        assert str(finding) == (
            f"{path}:2: yields env.timeout(...); "
            "yield the bare delay to sleep instead"
        )

    def test_kernel_package_exempt(self, tmp_path):
        path = tmp_path / "repro" / "sim" / "mod.py"
        assert self._check(path, self.FIXTURE) == []

    def test_src_tree_yields_no_timeouts(self):
        findings = [
            f for f in lint.check_tree(REPO_ROOT / "src")
            if f.rule == "yield-timeout"
        ]
        assert not findings, "\n".join(str(f) for f in findings)
