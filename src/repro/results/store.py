"""Persistent run artifacts: JSON files keyed by spec hash + seed.

A :class:`ResultStore` is a flat directory of scenario-run artifacts,
one JSON file per run, named ``<spec_hash12>-s<seed>.json``.  The spec
hash (:meth:`ScenarioSpec.spec_hash
<repro.scenario.spec.ScenarioSpec.spec_hash>`) covers every field of
the frozen spec -- two stores produced at different commits from the
*same* specs share file keys exactly, which is what makes
``repro.cli diff A B`` a keyed comparison: matching keys isolate code
changes, changed keys isolate spec changes (paired up by scenario
name + seed + sweep overrides instead).

The artifact is :func:`run_artifact`: :func:`~repro.results.serialize
.scenario_result_to_dict` verbatim plus caller-stamped context that
must *not* participate in the bit-for-bit result contract (git
revision, wall time, the overrides that produced the run) under the
``meta`` key.  :func:`write_document` writes it, for the store and for
``repro.cli run --export`` alike, and writes the sweep document of
``sweep --export``; :func:`read_artifact` is the one reader, for the
store and for ``repro.cli diff`` and ``analyze --artifact`` on a file.

::

    store = ResultStore("runs/")
    store.save(spec.run(), git_rev=current_git_rev(), wall_time_s=1.2)
    store.lookup(spec)          # -> the artifact dict, or None
    store.list()                # -> every artifact, sorted by key
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.results.serialize import check_artifact, scenario_result_to_dict
from repro.scenario.runner import ScenarioResult
from repro.scenario.spec import ScenarioSpec

__all__ = [
    "ResultStore",
    "current_git_rev",
    "read_artifact",
    "run_artifact",
    "write_document",
]

#: Hash-prefix length in artifact filenames: 48 bits -- far beyond any
#: realistic store size, short enough to read.
KEY_HASH_LEN = 12


def current_git_rev(default: str = "unknown") -> str:
    """The repo's short git revision, or ``default`` outside a checkout.

    Resolved against *this source tree* (not the caller's cwd): the
    revision stamped on an artifact identifies the code that produced
    it.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


def run_artifact(
    result: ScenarioResult,
    overrides: Optional[Mapping[str, Any]] = None,
    git_rev: Optional[str] = None,
    wall_time_s: Optional[float] = None,
) -> Dict[str, Any]:
    """The artifact of one run: its scenario document plus ``meta``.

    ``overrides`` records the ``--set`` or sweep-axis values that
    derived the run's spec from its base (the stable pairing key when
    specs -- and therefore hashes -- differ between two diffed stores);
    ``git_rev``/``wall_time_s`` stamp provenance.  All three land under
    ``meta``, outside the bit-for-bit result payload.
    """
    doc = scenario_result_to_dict(result)
    doc["meta"] = {
        "git_rev": git_rev,
        "wall_time_s": wall_time_s,
        "overrides": dict(overrides) if overrides else {},
    }
    return doc


def write_document(doc: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Write one artifact or sweep document as key-sorted JSON."""
    path = Path(path)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def read_artifact(
    path: Union[str, Path], name: Optional[str] = None
) -> Dict[str, Any]:
    """Read one run artifact from ``path``.

    Raises ``ValueError`` naming the file (``name``, by default the
    path) if it is not JSON or not a run artifact
    (:func:`~repro.results.serialize.check_artifact`).
    """
    path = Path(path)
    name = str(path) if name is None else name
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{name} is not valid JSON: {exc}") from exc
    check_artifact(doc, name)
    return doc


class ResultStore:
    """A directory of scenario-run artifacts keyed by spec hash + seed."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key_for(spec: ScenarioSpec) -> str:
        """The artifact key of ``spec``: ``<hash12>-s<seed>``.

        The seed is already inside the hash; it rides along in the key
        so directory listings stay human-scannable.
        """
        return f"{spec.spec_hash()[:KEY_HASH_LEN]}-s{spec.seed}"

    def path_for(self, spec: ScenarioSpec) -> Path:
        return self.root / f"{self.key_for(spec)}.json"

    def paths(self) -> List[Path]:
        """Every artifact file in the store, sorted by name."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    # -- persistence -------------------------------------------------------

    def save(
        self,
        result: ScenarioResult,
        overrides: Optional[Mapping[str, Any]] = None,
        git_rev: Optional[str] = None,
        wall_time_s: Optional[float] = None,
    ) -> Path:
        """Persist one run's :func:`run_artifact`; returns its path."""
        self.root.mkdir(parents=True, exist_ok=True)
        return write_document(
            run_artifact(result, overrides, git_rev, wall_time_s),
            self.path_for(result.spec),
        )

    # -- retrieval ---------------------------------------------------------

    def load(self, ref: Union[str, Path]) -> Dict[str, Any]:
        """Load one artifact by key (``<hash12>-s<seed>``) or path."""
        path = Path(ref)
        if not path.suffix:
            path = self.root / f"{ref}.json"
        if not path.is_file():
            raise FileNotFoundError(
                f"no artifact {ref!r} in store {self.root}"
            )
        return read_artifact(path)

    def list(self) -> List[Dict[str, Any]]:
        """Every artifact document, in key order, ``key`` included.

        Raises ``ValueError`` naming the first file that is not a run
        artifact (:func:`read_artifact`).
        """
        docs = []
        for path in self.paths():
            doc = read_artifact(path)
            doc["key"] = path.stem
            docs.append(doc)
        return docs

    def lookup(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """The stored artifact of ``spec``, or ``None`` if absent."""
        path = self.path_for(spec)
        if not path.is_file():
            return None
        return read_artifact(path)

    def __len__(self) -> int:
        return len(self.paths())

    def __repr__(self) -> str:
        return f"<ResultStore {self.root} ({len(self)} artifacts)>"
