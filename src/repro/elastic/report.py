"""The elastic control plane's run summary: actions taken, capacity paid.

An :class:`ElasticReport` rides on ``ScenarioResult.elastic`` and
persists into result artifacts.  Cost is the deployment's vm-seconds
ledger (provision -> decommission per VM, run end for survivors)
priced per **site class** -- the datacenter's region tag -- through the
spec's ``cost_rates`` multipliers (unlisted classes bill at 1.0
vm-second per vm-second), so a Pareto scenario can make geo-distant
capacity literally more expensive than local capacity.

:func:`render_elastic` renders the serialized block, so a live run and
a stored artifact print the same text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["ElasticReport", "render_elastic"]


@dataclass
class ElasticReport:
    """What the autoscaler did and what the fleet cost.

    Attributes
    ----------
    policy:
        Name of the deciding :class:`ElasticityPolicy`.
    actions:
        The decision log, in order: ``(t, site, delta)`` with positive
        deltas for scale-ups (decision time, not arrival time) and
        negative for drains.
    vm_seconds_by_site:
        The deployment's capacity ledger at run end.
    cost_by_class:
        vm-seconds aggregated per site class and priced by the spec's
        ``cost_rates``.
    fleet_initial / fleet_peak / fleet_final:
        Placeable worker counts: at controller start, at the high-water
        mark, and at run end.
    stranded_tasks:
        Tasks still assigned to draining VMs at run end.  Always zero
        under the drain contract; reported so a violation is loud.
    capacity_timeline:
        Per-site placeable-VM step series, ``site -> [(t, vms), ...]``
        in time order: the baseline at controller start, then every
        provisioning landing and drain start (an order changes nothing
        placeable yet, and a decommission only closes the ledger of a
        VM that already left placement).
    """

    policy: str
    actions: List[Tuple[float, str, int]] = field(default_factory=list)
    vm_seconds_by_site: Dict[str, float] = field(default_factory=dict)
    cost_by_class: Dict[str, float] = field(default_factory=dict)
    fleet_initial: int = 0
    fleet_peak: int = 0
    fleet_final: int = 0
    stranded_tasks: int = 0
    capacity_timeline: Dict[str, List[Tuple[float, int]]] = field(
        default_factory=dict
    )

    @property
    def vm_seconds(self) -> float:
        return sum(self.vm_seconds_by_site.values())

    @property
    def cost(self) -> float:
        return sum(self.cost_by_class.values())

    @property
    def n_scale_ups(self) -> int:
        return sum(1 for _, _, d in self.actions if d > 0)

    @property
    def n_scale_downs(self) -> int:
        return sum(1 for _, _, d in self.actions if d < 0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "actions": [
                {"t": t, "site": site, "delta": delta}
                for t, site, delta in self.actions
            ],
            "n_scale_ups": self.n_scale_ups,
            "n_scale_downs": self.n_scale_downs,
            "vm_seconds": self.vm_seconds,
            "vm_seconds_by_site": dict(self.vm_seconds_by_site),
            "cost": self.cost,
            "cost_by_class": dict(self.cost_by_class),
            "fleet_initial": self.fleet_initial,
            "fleet_peak": self.fleet_peak,
            "fleet_final": self.fleet_final,
            "stranded_tasks": self.stranded_tasks,
            "capacity_timeline": {
                site: [[t, vms] for t, vms in series]
                for site, series in self.capacity_timeline.items()
            },
        }


def render_elastic(block: Dict[str, object]) -> str:
    """The elastic summary of a serialized ``elastic`` block: the fleet
    and cost line, the action table and the capacity timeline (absent
    from blocks written before the timeline was recorded)."""
    from repro.experiments.reporting import render_table

    text = (
        f"elastic policy {block.get('policy', '?')}: "
        f"{block.get('n_scale_ups', 0)} scale-up(s), "
        f"{block.get('n_scale_downs', 0)} scale-down(s); fleet "
        f"{block.get('fleet_initial', 0)} -> peak "
        f"{block.get('fleet_peak', 0)} -> final "
        f"{block.get('fleet_final', 0)}; "
        f"{block.get('vm_seconds', 0.0):.1f} vm-seconds"
    )
    if block.get("cost_by_class"):
        text += f" ({block.get('cost', 0.0):.1f} priced)"
    rows = [
        [f"{a.get('t', 0.0):.2f}", a.get("site", "?"), a.get("delta", 0)]
        for a in block.get("actions") or []
    ]
    if rows:
        text += "\n" + render_table(["t (s)", "site", "delta"], rows)
    timeline = block.get("capacity_timeline") or {}
    if timeline:
        rows = [
            [site, f"{t:.2f}", vms]
            for site in sorted(timeline)
            for t, vms in timeline[site]
        ]
        text += "\n\n" + render_table(
            ["site", "t (s)", "placeable VMs"],
            rows,
            title="capacity timeline (elastic fleet, placeable VMs by site)",
        )
    return text
