"""Multi-site cloud substrate.

Models the infrastructure of the paper's testbed: geographically
distributed datacenters interconnected by high-latency WANs, with
rentable VMs inside each datacenter.  Distances follow the paper's
three-level taxonomy (local / same-region / geo-distant, Section IV).

The concrete 4-datacenter Azure layout used throughout the evaluation
(North Europe, West Europe, South Central US, East US) is provided as
:data:`repro.cloud.presets.AZURE_4DC`.

The package re-exports the substrate every run builds (topology,
network, VMs, deployment, presets).  The fair-share flow solver
(:mod:`repro.cloud.flow`) and the fault injectors
(:mod:`repro.cloud.faults`) load only where a run uses them: import
them from their modules.
"""

from repro.cloud.topology import (
    CloudTopology,
    Datacenter,
    Distance,
    Region,
    SiteSpec,
)
from repro.cloud.network import (
    FlowAborted,
    Network,
    NetworkMessage,
    RpcError,
)
from repro.cloud.vm import VirtualMachine, VMRole, VMSize
from repro.cloud.deployment import Deployment
from repro.cloud.presets import (
    AZURE_4DC,
    AZURE_SMALL_VM,
    azure_4dc_topology,
    make_topology,
)

__all__ = [
    "AZURE_4DC",
    "AZURE_SMALL_VM",
    "CloudTopology",
    "Datacenter",
    "Deployment",
    "Distance",
    "FlowAborted",
    "Network",
    "NetworkMessage",
    "Region",
    "RpcError",
    "SiteSpec",
    "VMRole",
    "VMSize",
    "VirtualMachine",
    "azure_4dc_topology",
    "make_topology",
]
