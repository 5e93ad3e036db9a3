"""Figure 6: completion progress of the decentralized strategies.

"Percentage of operations completed along time by each of the
decentralized strategies: non-replicated (DN) and with local
replication (DR)", with the centralized average as reference.

Paper properties checked:

- between 20 % and 70 % progress, DR shows a speedup of at least ~1.25x
  over DN (the window that matters for proactive data provisioning);
- the centralized strategy starts reasonably but slows down as the
  registry queue builds, ending far behind the decentralized pair;
- site centrality: the best decentralized per-site completion belongs
  to the most central datacenter (East US) and the worst to the least
  central (South Central US).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cloud.presets import azure_4dc_topology
from repro.metadata.controller import StrategyName
from repro.experiments.reporting import check, render_table
from repro.scenario import get_scenario, iter_sweep

__all__ = ["Fig6Result", "run_fig6"]

PROGRESS_PERCENTS = tuple(range(10, 101, 10))


@dataclass
class Fig6Result:
    n_nodes: int
    ops_per_node: int
    percents: Sequence[float]
    #: strategy -> time (s) at each progress percent.
    curves: Dict[str, List[float]] = field(default_factory=dict)
    #: strategy -> site -> mean node completion time.
    site_times: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def speedup(self, lo: float = 20, hi: float = 70) -> float:
        """Mean DN/DR time ratio over the [lo, hi]% progress window."""
        dn = self.curves[StrategyName.DECENTRALIZED]
        dr = self.curves[StrategyName.HYBRID]
        ratios = [
            d / r
            for p, d, r in zip(self.percents, dn, dr)
            if lo <= p <= hi and r > 0
        ]
        return float(np.mean(ratios)) if ratios else 0.0

    def centrality_ordering(self) -> Tuple[str, str]:
        """(best site, worst site) by DR per-site completion time."""
        times = self.site_times[StrategyName.HYBRID]
        best = min(times, key=times.get)
        worst = max(times, key=times.get)
        return best, worst

    def properties(self) -> List[str]:
        topo = azure_4dc_topology()
        best, worst = self.centrality_ordering()
        cen = self.curves[StrategyName.CENTRALIZED]
        dn = self.curves[StrategyName.DECENTRALIZED]
        # "Fairly good start ... reaching up to twice the completion time"
        early_ratio = cen[0] / dn[0] if dn[0] > 0 else 0
        late_ratio = cen[-1] / dn[-1] if dn[-1] > 0 else 0
        return [
            check(
                "DR speedup >= 1.25x over DN in the 20-70% window",
                self.speedup() >= 1.25,
                f"measured {self.speedup():.2f}x",
            ),
            check(
                "centralized falls further behind as the run progresses",
                late_ratio > early_ratio and late_ratio >= 1.2,
                f"{early_ratio:.2f}x early -> {late_ratio:.2f}x late",
            ),
            check(
                "best decentralized site is the most central (East US)",
                best == topo.most_central().name,
                f"best={best}",
            ),
            check(
                "worst decentralized site is the least central (SC US)",
                worst == topo.least_central().name,
                f"worst={worst}",
            ),
        ]

    def render(self) -> str:
        strategies = list(self.curves)
        rows = [
            [p] + [self.curves[s][i] for s in strategies]
            for i, p in enumerate(self.percents)
        ]
        table = render_table(
            ["% done"] + strategies,
            rows,
            title=(
                f"Fig. 6 -- time (s) to reach each completion percentage "
                f"({self.n_nodes} nodes, {self.ops_per_node} ops/node)"
            ),
        )
        return table + "\n" + "\n".join(self.properties())


def run_fig6(
    n_nodes: int = 32,
    ops_per_node: int = 5000,
    seed: int = 0,
    percents: Sequence[float] = PROGRESS_PERCENTS,
    jobs: int = 1,
) -> Fig6Result:
    """Sweep the centralized reference and both decentralized
    strategies over ``paper_synthetic``."""
    base = get_scenario("paper_synthetic").replace(
        n_nodes=n_nodes, ops_per_node=ops_per_node, seed=seed
    )
    strategies = [
        StrategyName.CENTRALIZED,
        StrategyName.DECENTRALIZED,
        StrategyName.HYBRID,
    ]
    result = Fig6Result(
        n_nodes=n_nodes, ops_per_node=ops_per_node, percents=tuple(percents)
    )
    for cell in iter_sweep(base, {"strategy.name": strategies}, jobs=jobs):
        strat = cell.overrides["strategy.name"]
        run = cell.unwrap().result
        result.curves[strat] = [
            t for _, t in run.ops.progress_curve(percents)
        ]
        result.site_times[strat] = run.node_time_by_site()
    return result
