"""Figure 8: completing a fixed 32,000-operation workload as nodes grow.

"We measured the time taken by each approach to complete a constant
number of 32,000 metadata operations."  Adding nodes divides the
per-node share, so time should fall ~linearly for the centralized and
decentralized approaches, "and only a degradation at larger scale for
the replicated strategy."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.metadata.controller import StrategyName
from repro.experiments.reporting import check, render_table
from repro.scenario import get_scenario, run_cells

__all__ = ["Fig8Result", "run_fig8", "PAPER_TOTAL_OPS"]

PAPER_TOTAL_OPS = 32_000
PAPER_NODE_COUNTS = (8, 16, 32, 64, 128)


@dataclass
class Fig8Result:
    node_counts: Sequence[int]
    total_ops: int
    #: strategy -> completion time per node count.
    completion: Dict[str, List[float]] = field(default_factory=dict)

    def properties(self) -> List[str]:
        dn = self.completion[StrategyName.DECENTRALIZED]
        dr = self.completion[StrategyName.HYBRID]
        rep = self.completion[StrategyName.REPLICATED]
        counts = list(self.node_counts)
        idx32 = counts.index(32) if 32 in counts else len(counts) // 2
        node_growth = counts[-1] / counts[idx32]
        # Degradation, paper-style: past 32 nodes the replicated
        # strategy converts extra nodes into little or no time gain
        # (the agent bottleneck), ending far behind the decentralized
        # pair.
        rep_speedup_late = rep[idx32] / rep[-1] if rep[-1] > 0 else 0
        out = [
            check(
                "decentralized completion time falls as nodes grow",
                all(a >= b * 0.9 for a, b in zip(dn, dn[1:])),
            ),
            check(
                "hybrid completion time falls as nodes grow",
                all(a >= b * 0.9 for a, b in zip(dr, dr[1:])),
            ),
            check(
                "replicated degrades at larger scale (stops converting "
                "nodes into speedup)",
                rep_speedup_late <= 0.6 * node_growth
                and rep[-1] > 2.0 * dr[-1],
                f"x{rep_speedup_late:.1f} speedup over x{node_growth:.0f} "
                f"nodes; {rep[-1]:.0f}s vs hybrid {dr[-1]:.0f}s at "
                f"{counts[-1]} nodes",
            ),
        ]
        return out

    def render(self) -> str:
        strategies = list(self.completion)
        rows = [
            [n] + [self.completion[s][i] for s in strategies]
            for i, n in enumerate(self.node_counts)
        ]
        table = render_table(
            ["nodes"] + strategies,
            rows,
            title=(
                f"Fig. 8 -- completion time (s) of {self.total_ops} "
                "total operations"
            ),
        )
        return table + "\n" + "\n".join(self.properties())


def run_fig8(
    node_counts: Sequence[int] = PAPER_NODE_COUNTS,
    total_ops: int = PAPER_TOTAL_OPS,
    seed: int = 0,
    jobs: int = 1,
) -> Fig8Result:
    """Run strategy x node count over ``paper_synthetic``, each fleet
    splitting ``total_ops`` evenly (so not a cartesian sweep)."""
    base = get_scenario("paper_synthetic").replace(seed=seed)
    cells = []
    for strat in StrategyName.all():
        for n in node_counts:
            overrides = {
                "strategy.name": strat,
                "n_nodes": n,
                "ops_per_node": max(1, total_ops // n),
            }
            cells.append((overrides, base.replace(**overrides)))
    result = Fig8Result(node_counts=tuple(node_counts), total_ops=total_ops)
    for cell in run_cells(cells, jobs=jobs):
        result.completion.setdefault(
            cell.overrides["strategy.name"], []
        ).append(cell.unwrap().makespan)
    return result
