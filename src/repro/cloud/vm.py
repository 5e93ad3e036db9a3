"""Virtual machines: the execution nodes of the deployment.

Mirrors the paper's Section V node taxonomy built on Azure PaaS roles:

- **worker nodes** execute application tasks (Azure Worker Roles);
- a **control node** drives the run (Azure Web Role);
- the **synchronization agent** is a dedicated worker used by the
  replicated strategy.

A VM is pinned to a datacenter, has a bounded number of cores (each task
occupies one core while executing) and accounts busy time so experiments
can report utilization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import Environment, Resource
from repro.cloud.topology import Datacenter
from repro.util.units import GB

__all__ = ["VMRole", "VMSize", "VirtualMachine"]


class VMRole(enum.Enum):
    WORKER = "worker"
    CONTROL = "control"
    SYNC_AGENT = "sync-agent"


@dataclass(frozen=True)
class VMSize:
    """An instance type: cores + memory (bytes)."""

    name: str
    cores: int
    memory: int

    def __post_init__(self):
        if self.cores <= 0 or self.memory <= 0:
            raise ValueError("VMSize cores and memory must be positive")


class VirtualMachine:
    """A compute node inside one datacenter.

    ``compute(duration)`` models task computation: it claims one core for
    ``duration`` simulated seconds.  Metadata and data I/O do *not*
    consume cores (they are network/service bound), matching how the
    paper separates sleep-simulated compute from I/O.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        datacenter: Datacenter,
        size: Optional[VMSize] = None,
        role: VMRole = VMRole.WORKER,
    ):
        self.env = env
        self.name = name
        self.datacenter = datacenter
        self.size = size or VMSize("small", cores=1, memory=int(1.75 * GB))
        self.role = role
        self._cores = Resource(env, capacity=self.size.cores)
        self.busy_time = 0.0
        self.tasks_executed = 0
        # Elastic-fleet lifecycle (repro.elastic).  Statically deployed
        # VMs are born warm at t=0 and never drain, so none of these
        # change behavior unless an autoscaler touches the fleet.
        self.provisioned_at = env.now
        self.warm_at = env.now  # computes before this run degraded
        self.warmup_factor = 1.0
        self.draining = False

    @property
    def site(self) -> str:
        """Name of the datacenter hosting this VM."""
        return self.datacenter.name

    def compute(self, duration: float) -> Generator:
        """Process: occupy one core for ``duration`` seconds.

        A freshly provisioned VM runs *degraded* until its warm-up
        deadline: any compute that grabs a core before ``warm_at`` is
        stretched by ``warmup_factor`` (cold caches, image pull, JIT --
        the usual first-minutes tax an autoscaler must amortize).
        """
        if duration < 0:
            raise ValueError(f"negative compute duration {duration}")
        with self._cores.request() as req:
            yield req
            if self.env.now < self.warm_at:
                duration *= self.warmup_factor
            start = self.env.now
            yield duration
            self.busy_time += self.env.now - start
            self.tasks_executed += 1

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of elapsed time (x cores) spent computing."""
        elapsed = horizon if horizon is not None else self.env.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.size.cores)

    def __repr__(self) -> str:
        return f"<VM {self.name} @{self.site} {self.role.value}>"
