"""Benchmarks for the Section VIII related-work comparisons.

The paper argues against namespace-subtree partitioning (hot-directory
imbalance) and against keeping metadata in a relational database ("too
heavy for metadata-intensive workloads").  Both arguments are measured
here against the implemented comparison strategies.
"""

from repro.cloud.deployment import Deployment
from repro.experiments.reporting import render_table
from repro.metadata.controller import ArchitectureController
from repro.metadata.entry import RegistryEntry
from repro.scenario import ScenarioSpec, StrategySpec
from repro.sim import AllOf


def test_subtree_vs_hashing_hot_directory(benchmark):
    """A popular directory funnels all traffic to one subtree owner,
    while DHT hashing spreads the same workload across every site."""

    def run():
        out = {}
        for strategy in ("subtree", "decentralized"):
            dep = Deployment(n_nodes=16, seed=7)
            ctrl = ArchitectureController(dep, strategy=strategy)
            strat = ctrl.strategy

            def client(vm, i, strat=strat):
                # Everyone hammers the same hot directory.
                for j in range(150):
                    yield from strat.write(
                        vm.site,
                        RegistryEntry(key=f"hot-dataset/part-{i}-{j}"),
                    )

            procs = [
                dep.env.process(client(vm, i))
                for i, vm in enumerate(dep.workers)
            ]
            dep.env.run(until=AllOf(dep.env, procs))
            makespan = dep.env.now
            counts = {
                site: reg.ops_served
                for site, reg in strat.registries.items()
            }
            imbalance = max(counts.values()) / max(
                1.0, sum(counts.values()) / len(counts)
            )
            ctrl.shutdown()
            out[strategy] = (makespan, imbalance)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, makespan, f"{imb:.2f}"]
        for name, (makespan, imb) in results.items()
    ]
    print(
        "\n"
        + render_table(
            ["strategy", "makespan (s)", "ops imbalance (max/mean)"],
            rows,
            title="Related work -- hot directory: subtree vs DHT hashing",
        )
    )
    sub_makespan, sub_imb = results["subtree"]
    dht_makespan, dht_imb = results["decentralized"]
    # Subtree partitioning: the hot directory's owner serves ~everything.
    assert sub_imb > 3.0
    assert dht_imb < 2.0
    # And the bottleneck costs real time.
    assert sub_makespan > dht_makespan


def test_relational_db_too_heavy(benchmark):
    """The in-memory registry sustains a metadata-intensive workload the
    database-backed one cannot (paper: ~10x in-memory advantage)."""

    def synthetic(strategy):
        return ScenarioSpec(
            surface="synthetic",
            strategy=StrategySpec(name=strategy),
            ops_per_node=400,
            n_nodes=16,
            seed=3,
        ).run().result

    def run():
        return synthetic("centralized"), synthetic("relational-db")

    mem, db = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        "\n"
        + render_table(
            ["backend", "makespan (s)", "throughput (ops/s)"],
            [
                ["in-memory cache", mem.makespan, mem.throughput],
                ["relational DB", db.makespan, db.throughput],
            ],
            title="Related work -- in-memory registry vs relational DB",
        )
    )
    assert db.makespan > mem.makespan
    benchmark.extra_info["db_slowdown"] = round(
        db.makespan / mem.makespan, 2
    )
