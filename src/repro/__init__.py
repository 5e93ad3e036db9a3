"""repro: multi-site metadata management for geo-distributed cloud workflows.

A full reproduction of Pineda-Morales, Costan & Antoniu, *Towards
Multi-site Metadata Management for Geographically Distributed Cloud
Workflows* (IEEE CLUSTER 2015), built on a discrete-event simulated
multi-site cloud.

Quickstart::

    from repro import Deployment, ArchitectureController, RegistryEntry

    dep = Deployment(n_nodes=32, seed=7)
    ctrl = ArchitectureController(dep, strategy="hybrid")

    def publish(env):
        entry = RegistryEntry(key="image-001.fits")
        stored = yield from ctrl.write("west-europe", entry)
        found = yield from ctrl.read("east-us", "image-001.fits",
                                     require_found=True)

    dep.run_process(publish(dep.env))

The README's Layout section maps the architecture, and ``repro.cli
figures`` (README, Quick start) prints the paper-versus-measured checks.

The package re-exports the substrate and metadata names of the
quickstart, which every run loads anyway.  Execution planes load where
a run uses them: import the workload runner from
:mod:`repro.workload.runner` and the workflow engine from
:mod:`repro.workflow.engine`.
"""

from repro.cloud import (
    AZURE_4DC,
    CloudTopology,
    Datacenter,
    Deployment,
    Distance,
    Network,
    Region,
    VirtualMachine,
    azure_4dc_topology,
    make_topology,
)
from repro.metadata import (
    ArchitectureController,
    CacheManager,
    CentralizedStrategy,
    ConsistentHashRing,
    DecentralizedStrategy,
    HybridStrategy,
    MetadataConfig,
    MetadataRegistry,
    MetadataStrategy,
    OpKind,
    OpStats,
    RegistryEntry,
    ReplicatedStrategy,
    StrategyName,
)
from repro.scheduling import (
    PlacementPolicy,
    SCHEDULER_NAMES,
    make_scheduler,
)
from repro.sim import Environment
from repro.workload import (
    ADMISSION_NAMES,
    TenantSpec,
    WorkloadSpec,
)

__version__ = "1.0.0"

__all__ = [
    "ADMISSION_NAMES",
    "AZURE_4DC",
    "ArchitectureController",
    "CacheManager",
    "CentralizedStrategy",
    "CloudTopology",
    "ConsistentHashRing",
    "Datacenter",
    "DecentralizedStrategy",
    "Deployment",
    "Distance",
    "Environment",
    "HybridStrategy",
    "MetadataConfig",
    "MetadataRegistry",
    "MetadataStrategy",
    "Network",
    "OpKind",
    "OpStats",
    "PlacementPolicy",
    "Region",
    "RegistryEntry",
    "ReplicatedStrategy",
    "SCHEDULER_NAMES",
    "StrategyName",
    "TenantSpec",
    "VirtualMachine",
    "WorkloadSpec",
    "azure_4dc_topology",
    "make_scheduler",
    "make_topology",
]
