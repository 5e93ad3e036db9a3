"""Discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction: the
multi-site cloud, the metadata registries, the workflow engine and every
experiment run on top of a simulated clock instead of wall-clock time.
Using virtual time makes WAN latency emulation exact and deterministic
(the paper's testbed latencies become model parameters, not sleeps).

The programming model follows the classic process-based DES style
(generators yielding events), so simulation code reads like sequential
pseudo-code of the distributed protocol it models::

    env = Environment()

    def client(env, registry):
        yield 0.5                        # think time: sleep
        with registry.request() as req:  # queue at a bounded resource
            yield req
            yield 0.001                  # service time

    env.process(client(env, registry))
    env.run()

Yielding a bare delay sleeps; build a :class:`Timeout`
(``env.timeout(d)``) only for a wait that is composed (``AnyOf``),
shared, cancelled or rescheduled.

Public API
----------
- :class:`Environment` -- event loop and virtual clock.
- :class:`Event`, :class:`Timeout`, :class:`Process` -- awaitables.
- :class:`AllOf`, :class:`AnyOf` -- condition events.
- :class:`Interrupt` -- cooperative process interruption.
- :class:`Resource`, :class:`PriorityResource` -- bounded servers with queues.
- :class:`Store`, :class:`FilterStore` -- producer/consumer channels.
- :class:`Container` -- continuous-quantity resource.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    EventPriority,
    Interrupt,
    Process,
    SimulationError,
    StopSimulation,
    Timeout,
)
from repro.sim.resources import (
    Container,
    FilterStore,
    PreemptivePriorityResource,
    PriorityRequest,
    PriorityResource,
    Preempted,
    Request,
    Resource,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "EventPriority",
    "FilterStore",
    "Interrupt",
    "Preempted",
    "PreemptivePriorityResource",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
