"""Runtime monitoring: time-series sampling of the metadata service.

Samples registry queue lengths, utilizations and replication backlogs
on a fixed simulated-time cadence, producing the timelines behind the
paper's saturation narratives (e.g. the centralized registry's queue
growing without bound in Fig. 5, or the sync agent falling behind past
32 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

import numpy as np

from repro.sim import Environment
from repro.metadata.strategies.base import MetadataStrategy

__all__ = ["RegistryMonitor", "Sample"]


@dataclass(frozen=True)
class Sample:
    """One sampling instant across all registry instances."""

    at: float
    #: site -> pending requests at the instance.
    queue_lengths: Dict[str, int]
    #: site -> cumulative utilization (busy fraction so far).
    utilizations: Dict[str, float]
    #: total replication/synchronization backlog (entries).
    propagation_backlog: int


class RegistryMonitor:
    """Samples a strategy's registries every ``interval`` sim-seconds.

    Start it before the workload, stop (or just stop sampling) after::

        mon = RegistryMonitor(env, strategy, interval=1.0)
        ... run workload ...
        mon.stop()
        print(mon.peak_queue_length("west-europe"))
    """

    def __init__(
        self,
        env: Environment,
        strategy: MetadataStrategy,
        interval: float = 1.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.strategy = strategy
        self.interval = interval
        self.samples: List[Sample] = []
        self._stopped = False
        env.process(self._run(), name="registry-monitor")

    def stop(self) -> None:
        self._stopped = True

    def _run(self) -> Generator:
        while not self._stopped:
            self.samples.append(self._sample())
            yield self.interval

    def _sample(self) -> Sample:
        backlog = 0
        pumps = getattr(self.strategy, "pumps", None)
        if pumps:
            backlog += sum(p.backlog for p in pumps.values())
        agent = getattr(self.strategy, "agent", None)
        if agent is not None:
            backlog += agent.lag
        return Sample(
            at=self.env.now,
            queue_lengths={
                site: reg.queue_length
                for site, reg in self.strategy.registries.items()
            },
            utilizations={
                site: reg.utilization()
                for site, reg in self.strategy.registries.items()
            },
            propagation_backlog=backlog,
        )

    # -- post-run analysis -------------------------------------------------

    def peak_queue_length(self, site: Optional[str] = None) -> int:
        """Max observed queue length, per site or across all."""
        if not self.samples:
            return 0
        if site is not None:
            return max(s.queue_lengths.get(site, 0) for s in self.samples)
        return max(
            max(s.queue_lengths.values(), default=0) for s in self.samples
        )

    def mean_backlog(self) -> float:
        if not self.samples:
            return 0.0
        return float(
            np.mean([s.propagation_backlog for s in self.samples])
        )

    def peak_backlog(self) -> int:
        if not self.samples:
            return 0
        return max(s.propagation_backlog for s in self.samples)

    def queue_timeline(self, site: str) -> List[tuple]:
        """(time, queue length) pairs for one site."""
        return [
            (s.at, s.queue_lengths.get(site, 0)) for s in self.samples
        ]

    def saturation_onset(self, site: str, threshold: int = 5) -> Optional[float]:
        """First sampling time the site's queue exceeded ``threshold``."""
        for s in self.samples:
            if s.queue_lengths.get(site, 0) > threshold:
                return s.at
        return None

    def __len__(self) -> int:
        return len(self.samples)
