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
Only what the model runs; the module each part serves is named.

- :class:`Environment` -- event loop and virtual clock, with
  ``reschedule``/``cancel`` for the flow solver's completion timers
  (``cloud/flow.py``).
- :class:`Event`, :class:`Timeout`, :class:`Process` -- awaitables.
  Every layer runs as processes; a bare ``Event`` signals flow and task
  completion (``cloud/flow.py``, ``workflow/engine.py``).
- :class:`AllOf`, :class:`AnyOf` -- condition events.  ``AllOf`` joins
  task, stage and tenant processes (``workflow/engine.py``,
  ``workload/runner.py``); ``a | b`` builds the one ``AnyOf``, the
  replication pump's timer-or-nudge wait (``metadata/consistency.py``).
- :class:`Resource` -- bounded FIFO slots: registry servers, link
  slots, VM cores and the ``max_in_flight`` admission semaphore.
- :class:`Store` -- the replication pump's unbounded FIFO nudge buffer.
- :class:`EventPriority`, :class:`SimulationError` -- same-instant
  ordering and kernel errors.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    EventPriority,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Request, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventPriority",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
