"""The Section VI-B synthetic benchmark: concurrent writers and readers.

"To simulate concurrent operations on the metadata registry, half of
the nodes act as writers and half as readers.  Writers post a set of
consecutive entries to the registry (e.g. file1, file2, ...) whereas
readers get a random set of files (e.g. file13, file201, ...) from it."

Each node performs ``ops_per_node`` operations back to back.  Reads use
plain lookup semantics (a not-found result completes the operation --
reads race writes by design in this benchmark).  Per-node completion
times and the full op trace are captured for Figs. 5-8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List

import numpy as np

from repro.cloud.deployment import Deployment
from repro.metadata.entry import RegistryEntry
from repro.metadata.stats import OpStats
from repro.metadata.strategies import MetadataStrategy

__all__ = ["SyntheticResult", "run_synthetic_workload"]


@dataclass
class SyntheticResult:
    """Outcome of one synthetic reader/writer run."""

    strategy: str
    n_nodes: int
    ops_per_node: int
    #: Wall (simulated) time from start to the last node's completion.
    makespan: float
    #: Per-node execution times, index-aligned with the deployment fleet.
    node_times: List[float]
    #: Site of each node (centrality analysis, Fig. 6 discussion).
    node_sites: List[str]
    #: Full op trace of the run.
    ops: OpStats = field(repr=False, default=None)

    @property
    def total_ops(self) -> int:
        return self.n_nodes * self.ops_per_node

    @property
    def mean_node_time(self) -> float:
        return float(np.mean(self.node_times))

    @property
    def throughput(self) -> float:
        """Aggregate completed operations per second (Fig. 7 metric)."""
        return self.total_ops / self.makespan if self.makespan > 0 else 0.0

    def node_time_by_site(self) -> Dict[str, float]:
        out: Dict[str, List[float]] = {}
        for t, s in zip(self.node_times, self.node_sites):
            out.setdefault(s, []).append(t)
        return {s: float(np.mean(v)) for s, v in out.items()}


def run_synthetic_workload(
    deployment: Deployment,
    strategy: MetadataStrategy,
    ops_per_node: int,
) -> SyntheticResult:
    """Run the reader/writer benchmark on a built deployment and strategy.

    Nodes alternate writer/reader roles (even index writes, odd reads),
    which also spreads both roles evenly across sites because the
    deployment places nodes round-robin.  ``ScenarioSpec.run`` builds
    both arguments from the spec (its ``NetworkSpec`` sets the WAN,
    its ``StrategySpec`` the strategy) and shuts the strategy down
    after the run.
    """
    env = deployment.env

    # Alternate writer/reader *within* each site so both roles are
    # evenly represented everywhere -- assigning roles by global node
    # index would correlate role with site (nodes are placed
    # round-robin) and corrupt the per-site centrality analysis.  The
    # starting role alternates by site so tiny fleets (one node per
    # site) still get both roles.
    writers, readers = [], []
    for s_idx, site in enumerate(deployment.sites):
        for k, vm in enumerate(deployment.workers_at(site)):
            (writers if (k + s_idx) % 2 == 0 else readers).append(vm)
    if not writers or not readers:
        raise ValueError(
            "deployment too small to host both writers and readers"
        )
    n_writers = len(writers)
    node_times: List[float] = [0.0] * len(deployment.workers)
    node_index = {vm.name: i for i, vm in enumerate(deployment.workers)}

    # Writers advance a visible progress counter so readers sample only
    # files that have actually been published somewhere -- the paper's
    # readers "get a random set of files from it", i.e. reads target
    # existing entries.  Under the replicated strategy an existing
    # entry may still be invisible *locally* until the sync agent's
    # next cycle, which is precisely the penalty the strategy pays on
    # metadata-intensive workloads.
    progress = [0] * n_writers

    def writer(vm, writer_id: int) -> Generator:
        start = env.now
        for i in range(ops_per_node):
            entry = RegistryEntry(
                key=f"file-{writer_id}-{i}",
                locations=frozenset({vm.site}),
            )
            yield from strategy.write(vm.site, entry)
            progress[writer_id] = i + 1
        node_times[node_index[vm.name]] = env.now - start

    def reader(vm, reader_id: int) -> Generator:
        rng = deployment.rng.blocks(f"reader-{reader_id}")
        start = env.now
        done = 0
        while done < ops_per_node:
            w = rng.integers(n_writers)
            if progress[w] == 0:
                # Nothing published by that writer yet: let writers run.
                yield 0.05
                continue
            j = rng.integers(progress[w])
            yield from strategy.read(
                vm.site, f"file-{w}-{j}", require_found=True
            )
            done += 1
        node_times[node_index[vm.name]] = env.now - start

    procs = [
        env.process(writer(vm, w), name=f"writer-{w}")
        for w, vm in enumerate(writers)
    ] + [
        env.process(reader(vm, r), name=f"reader-{r}")
        for r, vm in enumerate(readers)
    ]
    start = env.now
    from repro.sim import AllOf

    env.run(until=AllOf(env, procs))
    makespan = env.now - start

    return SyntheticResult(
        strategy=strategy.name,
        n_nodes=len(deployment.workers),
        ops_per_node=ops_per_node,
        makespan=makespan,
        node_times=node_times,
        node_sites=[vm.site for vm in deployment.workers],
        ops=strategy.stats,
    )
