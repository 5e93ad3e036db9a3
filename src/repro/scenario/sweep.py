"""Cartesian sweeps over scenario overrides: the grid in one call.

A sweep takes one base :class:`~repro.scenario.spec.ScenarioSpec` and a
mapping of dotted override paths to value lists, runs every combination
(each on its own freshly-built deployment/topology -- nothing is shared
or mutated between cells) and tabulates the results::

    from repro.scenario import get_scenario, run_sweep
    res = run_sweep(
        get_scenario("paper_synthetic"),
        {"strategy.name": ["centralized", "decentralized", "hybrid"],
         "network.bandwidth_model": [None, "fair"]},
        quick=True,
        jobs=4,
    )
    print(res.render())

``jobs=N`` dispatches grid cells to a ``multiprocessing.Pool``.  Every
cell is a self-contained picklable unit -- a frozen spec from which the
worker rebuilds the whole deployment -- so the parallel run is
**bit-for-bit identical** to the serial one (pinned by
``tests/scenario/test_sweep_parallel.py``); only wall time differs.
A failing cell is captured as :attr:`SweepCell.error` instead of
killing the grid, in serial and parallel mode alike.
:func:`iter_sweep` yields the same cells one at a time, in grid order,
for harnesses (the figures) that reduce each cell to a few numbers and
so need not hold the whole grid's results.

The CLI form is ``repro.cli sweep --scenario NAME --set path=v1,v2
[--jobs N] [--out DIR]`` (or ``--spec FILE`` for the base).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.scenario.runner import ScenarioResult, run_scenario
from repro.scenario.spec import ScenarioSpec

__all__ = ["SweepCell", "SweepResult", "iter_sweep", "run_cells", "run_sweep"]

#: Default-name labels for ``None`` override values: pinning ``None``
#: keeps the surface's default, so the table shows the default's *name*
#: rather than the literal string ``None``.
NONE_LABELS: Dict[str, str] = {
    "network.bandwidth_model": "slots",
    "scheduler.name": "locality",
    "scheduler": "locality",
    "admission": "unbounded",
}


def _axis_label(axis: str, value: Any) -> str:
    if value is None:
        return NONE_LABELS.get(axis, "default")
    return str(value)


@dataclass
class SweepCell:
    """One grid point: the overrides applied and the run's outcome.

    Exactly one of ``result``/``error`` is set: a failing cell reports
    its error inline instead of killing the grid (per-cell isolation).
    ``wall_time_s`` is real execution time -- metadata for artifact
    stamping, never part of the serialized result payload (the
    parallel-vs-serial bit-for-bit contract covers payloads only).
    """

    overrides: Dict[str, Any]
    result: Optional[ScenarioResult] = None
    error: Optional[str] = None
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> ScenarioResult:
        """The cell's result; raises ``RuntimeError`` if it errored.

        For harnesses that need every cell (the figures, the compare
        experiments) rather than the CLI's inline error rows.
        """
        if self.error is not None:
            raise RuntimeError(
                f"sweep cell {self.overrides} failed: {self.error}"
            )
        return self.result


@dataclass
class SweepResult:
    """All cells of one sweep, in grid order."""

    base: ScenarioSpec
    axes: Dict[str, Tuple[Any, ...]]
    cells: List[SweepCell] = field(default_factory=list)

    def ok_cells(self) -> List[SweepCell]:
        return [c for c in self.cells if c.ok]

    def errored_cells(self) -> List[SweepCell]:
        return [c for c in self.cells if not c.ok]

    def _detail(self, cell: SweepCell) -> str:
        res = cell.result.result
        if cell.result.surface == "synthetic":
            return f"{res.throughput:.1f} ops/s"
        if cell.result.surface == "workload":
            return (
                f"p95 slowdown {res.slowdown_percentile(95):.2f}, "
                f"Jain {res.jain_fairness():.3f}"
            )
        return f"transfer {res.total_transfer_time:.2f}s"

    def has_slo(self) -> bool:
        return any(
            c.ok and c.result.slo is not None for c in self.cells
        )

    def has_analysis(self) -> bool:
        return any(
            c.ok and c.result.analysis is not None for c in self.cells
        )

    def slo_ranking(self) -> List[SweepCell]:
        """Cells ordered best-first by SLO attainment.

        Sort key: violated-rule count, then total debt, then makespan
        -- so fully-met cells lead and the deepest-in-debt cell is
        last.  Errored and SLO-less cells sort to the end (grid
        order preserved among themselves).
        """
        def key(indexed):
            i, c = indexed
            if not c.ok:
                return (2, 0, 0.0, 0.0, i)
            if c.result.slo is None:
                return (1, 0, 0.0, 0.0, i)
            report = c.result.slo
            return (
                0,
                report.n_violated,
                report.total_debt,
                c.result.makespan,
                i,
            )

        return [c for _, c in sorted(enumerate(self.cells), key=key)]

    def render(self) -> str:
        from repro.experiments.reporting import render_table

        with_slo = self.has_slo()
        with_analysis = self.has_analysis()
        headers = list(self.axes) + ["makespan (s)"]
        if with_slo:
            headers.append("SLO")
        if with_analysis:
            headers.append("bottleneck")
        headers.append("detail")
        rows = []
        cells = self.slo_ranking() if with_slo else self.cells
        for cell in cells:
            labels = [
                _axis_label(axis, cell.overrides[axis])
                for axis in self.axes
            ]
            if cell.error is not None:
                pad = ["--"] * (with_slo + with_analysis)
                rows.append(
                    labels + ["--"] + pad + [f"ERROR: {cell.error}"]
                )
                continue
            row = labels + [f"{cell.result.makespan:.3f}"]
            if with_slo:
                report = cell.result.slo
                if report is None:
                    row.append("--")
                elif report.status == "violated":
                    row.append(
                        f"violated x{report.n_violated} "
                        f"(debt {report.total_debt:.3g})"
                    )
                else:
                    row.append(report.status)
            if with_analysis:
                analysis = cell.result.analysis
                if analysis is None or not analysis.workflows:
                    row.append("--")
                else:
                    buckets = analysis.buckets
                    top = max(buckets, key=lambda b: buckets[b])
                    row.append(f"{top} ({buckets[top]:.3g}s)")
            rows.append(row + [self._detail(cell)])
        title = (
            f"sweep over {self.base.name!r} -- "
            f"{len(self.cells)} combinations"
        )
        if with_slo:
            title += " (ranked by SLO attainment)"
        return render_table(headers, rows, title=title)


def _run_cell(payload: Tuple[Dict[str, Any], ScenarioSpec, bool]) -> SweepCell:
    """Execute one self-contained cell; never raises on cell failure.

    Module-level so a ``multiprocessing.Pool`` can pickle it; the
    worker rebuilds the deployment, topology and controller entirely
    from the (pickled) frozen spec, which is what makes ``jobs=N``
    bit-for-bit equal to serial execution.
    """
    overrides, spec, quick = payload
    t0 = time.perf_counter()
    try:
        result = run_scenario(spec, quick=quick)
    except Exception as exc:  # per-cell isolation: report, don't kill
        return SweepCell(
            overrides=overrides,
            error=f"{type(exc).__name__}: {exc}",
            wall_time_s=time.perf_counter() - t0,
        )
    return SweepCell(
        overrides=overrides,
        result=result,
        wall_time_s=time.perf_counter() - t0,
    )


def run_cells(
    cells: Sequence[Tuple[Mapping[str, Any], ScenarioSpec]],
    quick: bool = False,
    jobs: int = 1,
) -> Iterator[SweepCell]:
    """Execute ``(overrides, spec)`` cells, yielding each in input order.

    The primitive under :func:`run_sweep` (and the compare experiments
    and Figs. 8 and 10, which build non-cartesian grids): each cell
    runs independently on a fresh deployment and failures are captured
    per-cell.  Cells are yielded as they finish, so a caller that keeps
    a few numbers per cell holds one run at a time, not the grid.
    ``jobs > 1`` dispatches cells to a ``multiprocessing.Pool``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    payloads = [(dict(overrides), spec, quick) for overrides, spec in cells]
    return _stream_cells(payloads, min(jobs, len(payloads)))


def _stream_cells(payloads, jobs: int) -> Iterator[SweepCell]:
    if jobs <= 1:
        yield from map(_run_cell, payloads)
        return
    import multiprocessing  # the pool only: serial sweeps never load it

    with multiprocessing.Pool(processes=jobs) as pool:
        # chunksize=1: cells are coarse units; keep ordering simple and
        # let slow cells overlap fast ones.
        yield from pool.imap(_run_cell, payloads, chunksize=1)


def iter_sweep(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    quick: bool = False,
    jobs: int = 1,
) -> Iterator[SweepCell]:
    """Yield :func:`run_sweep`'s cells one at a time, in grid order."""
    if not axes:
        raise ValueError("sweep needs at least one override axis")
    keys = list(axes)
    values = []
    for key in keys:
        vals = tuple(axes[key])
        if not vals:
            raise ValueError(f"sweep axis {key!r} has no values")
        values.append(vals)
    # A malformed override path fails its *cell*, not the grid --
    # replace() errors land in the cell's error slot like run errors.
    prepared: List[
        Tuple[Dict[str, Any], Optional[ScenarioSpec], Optional[str]]
    ] = []
    for combo in itertools.product(*values):
        overrides = dict(zip(keys, combo))
        try:
            prepared.append((overrides, base.replace(**overrides), None))
        except ValueError as exc:
            prepared.append(
                (overrides, None, f"{type(exc).__name__}: {exc}")
            )
    ran = run_cells(
        [(o, spec) for o, spec, err in prepared if err is None],
        quick=quick,
        jobs=jobs,
    )
    for overrides, _spec, err in prepared:
        yield (
            next(ran)
            if err is None
            else SweepCell(overrides=overrides, error=err)
        )


def run_sweep(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
    quick: bool = False,
    jobs: int = 1,
) -> SweepResult:
    """Run the cartesian product of ``axes`` overrides over ``base``.

    ``axes`` maps dotted spec paths (as accepted by
    :meth:`ScenarioSpec.replace`) to the values each axis takes; every
    combination is validated and executed independently.  ``jobs=N``
    runs cells in N worker processes (same results, see
    :func:`run_cells`).
    """
    axes = {key: tuple(vals) for key, vals in axes.items()}
    cells = iter_sweep(base, axes, quick, jobs)
    return SweepResult(base=base, axes=axes, cells=list(cells))
