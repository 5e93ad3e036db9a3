"""Figure 5: impact of metadata decentralization on makespan.

"Average execution time for a node performing metadata operations", 32
nodes evenly distributed over 4 datacenters, ops per node swept over
500 / 1,000 / 5,000 / 10,000 (half writers, half readers).  The grey
bars of the original figure (aggregate operation counts) are reported
as a column.

Paper properties checked:

- for small settings (<= 500 ops/node) the centralized baseline is an
  acceptable choice (within ~25 % of the best strategy);
- as the op count grows, decentralized strategies win, approaching a
  ~50 % time gain at the high end;
- the two decentralized variants nearly overlap in completion time
  (their difference only shows mid-run -- Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.metadata.controller import StrategyName
from repro.experiments.reporting import check, render_table
from repro.scenario import get_scenario, iter_sweep

__all__ = ["Fig5Result", "run_fig5", "PAPER_OPS_PER_NODE"]

PAPER_OPS_PER_NODE = (500, 1000, 5000, 10000)


@dataclass
class Fig5Result:
    ops_per_node: Sequence[int]
    n_nodes: int
    #: strategy -> mean node execution time per ops count.
    mean_node_time: Dict[str, List[float]] = field(default_factory=dict)
    #: aggregate op counts (the grey bars), aligned with ops_per_node.
    aggregate_ops: List[int] = field(default_factory=list)

    def gain_vs_centralized(self, strategy: str, idx: int = -1) -> float:
        base = self.mean_node_time[StrategyName.CENTRALIZED][idx]
        if base <= 0:
            return 0.0
        return 1.0 - self.mean_node_time[strategy][idx] / base

    def properties(self) -> List[str]:
        dn = self.mean_node_time[StrategyName.DECENTRALIZED]
        dr = self.mean_node_time[StrategyName.HYBRID]
        cen = self.mean_node_time[StrategyName.CENTRALIZED]
        best_dec_small = min(dn[0], dr[0])
        high_gain = max(
            self.gain_vs_centralized(StrategyName.DECENTRALIZED),
            self.gain_vs_centralized(StrategyName.HYBRID),
        )
        overlap = all(
            abs(a - b) / max(a, b) < 0.35 for a, b in zip(dn, dr)
        )
        return [
            check(
                "centralized acceptable at the smallest setting "
                "(paper: ~1 min absolute gain at best)",
                cen[0] - best_dec_small <= 120.0,
                f"decentralization saves only "
                f"{cen[0] - best_dec_small:.0f}s",
            ),
            check(
                "decentralized strategies win as ops grow (paper: ~50%)",
                high_gain >= 0.25,
                f"gain {high_gain:.0%} at {self.ops_per_node[-1]} ops/node",
            ),
            check(
                "both decentralized variants nearly overlap",
                overlap,
            ),
            check(
                "centralized degrades monotonically with load",
                all(a <= b * 1.05 for a, b in zip(cen, cen[1:])),
            ),
        ]

    def render(self) -> str:
        strategies = list(self.mean_node_time)
        rows = []
        for i, n in enumerate(self.ops_per_node):
            rows.append(
                [n, self.aggregate_ops[i]]
                + [self.mean_node_time[s][i] for s in strategies]
            )
        table = render_table(
            ["ops/node", "total ops"] + strategies,
            rows,
            title=(
                f"Fig. 5 -- mean node execution time (s), "
                f"{self.n_nodes} nodes / 4 DCs"
            ),
        )
        from repro.experiments.charts import bar_chart

        final = bar_chart(
            [(s, self.mean_node_time[s][-1]) for s in strategies],
            title=(
                f"node time at {self.ops_per_node[-1]} ops/node (s):"
            ),
            width=40,
        )
        return table + "\n" + final + "\n" + "\n".join(self.properties())


def run_fig5(
    ops_per_node: Sequence[int] = PAPER_OPS_PER_NODE,
    n_nodes: int = 32,
    seed: int = 0,
    jobs: int = 1,
) -> Fig5Result:
    """Sweep strategy x ops per node over ``paper_synthetic``."""
    result = Fig5Result(
        ops_per_node=tuple(ops_per_node),
        n_nodes=n_nodes,
        aggregate_ops=[n * n_nodes for n in ops_per_node],
    )
    for cell in iter_sweep(
        get_scenario("paper_synthetic").replace(n_nodes=n_nodes, seed=seed),
        {"strategy.name": StrategyName.all(), "ops_per_node": ops_per_node},
        jobs=jobs,
    ):
        result.mean_node_time.setdefault(
            cell.overrides["strategy.name"], []
        ).append(cell.unwrap().result.mean_node_time)
    return result
