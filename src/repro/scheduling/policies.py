"""The concrete placement policies.

Five policies ship with the subsystem, spanning the design space the
multi-site workflow literature argues over:

``round_robin``
    Fleet-wide rotation, blind to data and load.  The baseline every
    locality argument is made against (and the engine's historical
    behaviour for root tasks / with locality disabled).
``locality``
    The paper's Section III-D heuristic, extracted verbatim from the
    engine: run where the most input bytes were produced, spill
    nearest-first when the home site's workers are all busy.  The
    default -- it reproduces the seed experiments bit-for-bit.
``load_balanced``
    Global least-loaded worker, ties broken toward the data (then VM
    name).  Maximizes parallelism; ignores link quality.
``bandwidth_aware``
    Scores every candidate site by the *predicted time to stage the
    task's inputs there* under current congestion -- the fair bandwidth
    model's :meth:`FlowNetwork.estimate_rate
    <repro.cloud.flow.FlowNetwork.estimate_rate>` water-filling probe --
    falling back to the static ``latency + size/bandwidth`` figure under
    the slot model.  A queue term folds in waiting time, and a
    pending-bytes ledger (fed by the placement hooks) stops a burst of
    simultaneous placements from stampeding one fast link before its
    flows open.
``hybrid``
    Locality weighed against queue depth and predicted transfer time
    with tunable coefficients; with the transfer term zeroed it leans
    locality, with the locality term zeroed it approaches
    bandwidth-aware.

All policies are deterministic and RNG-free; see
``docs/scheduling.md`` for knobs and guidance on when each wins.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.scheduling.base import ClusterView, PlacementPolicy
from repro.util.checks import check_number

__all__ = [
    "BandwidthAwarePolicy",
    "HybridPolicy",
    "LoadBalancedPolicy",
    "LocalityPolicy",
    "RoundRobinPolicy",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "make_scheduler",
]


class RoundRobinPolicy(PlacementPolicy):
    """Rotate over the whole fleet in VM order, ignoring data and load."""

    name = "round_robin"

    def __init__(self):
        self._cursor = 0

    def place(self, task, workflow, parent_sites, cluster):
        vm = cluster.workers[self._cursor % len(cluster.workers)]
        self._cursor += 1
        return vm


class LocalityPolicy(PlacementPolicy):
    """The paper's data-locality heuristic (the historical default).

    Prefer the site where the most input bytes were produced, but
    *spill* to other sites (nearest first) when every VM there is
    already busy -- locality must not serialize a wide parallel stage
    onto one site's workers.  Root tasks round-robin across the fleet.
    This is a verbatim extraction of the engine's original ``_place``;
    it reproduces the seed experiments bit-for-bit.
    """

    name = "locality"

    def __init__(self):
        self._rr_cursor = 0

    def place(self, task, workflow, parent_sites, cluster):
        if parent_sites:
            weight = self.input_bytes_by_site(task, workflow, parent_sites)
            home = max(weight.items(), key=lambda kv: kv[1])[0]
            # Candidate order: data weight desc, then proximity to the
            # data-heavy site, so spilled tasks stay cheap to feed.
            candidates = sorted(
                cluster.sites,
                key=lambda s: (
                    -weight.get(s, 0.0),
                    cluster.topology.latency(home, s),
                ),
            )
            for site in candidates:
                idle = cluster.idle_vms(site)
                if idle:
                    return idle[0]
            # Everyone is busy: queue behind the least-loaded site,
            # biased toward locality via candidate order.
            site = min(
                (s for s in candidates if cluster.workers_at(s)),
                key=lambda s: cluster.site_load(s)
                / len(cluster.workers_at(s)),
            )
            return cluster.least_loaded_vm(site)
        vm = cluster.workers[self._rr_cursor % len(cluster.workers)]
        self._rr_cursor += 1
        return vm


class LoadBalancedPolicy(PlacementPolicy):
    """Global least-loaded worker, ties broken toward the data."""

    name = "load_balanced"

    def place(self, task, workflow, parent_sites, cluster):
        weight = self.input_bytes_by_site(task, workflow, parent_sites)
        return min(
            cluster.workers,
            key=lambda vm: (
                cluster.load_of(vm),
                -weight.get(vm.site, 0.0),
                vm.name,
            ),
        )


class BandwidthAwarePolicy(PlacementPolicy):
    """Place where the task's inputs arrive (and its turn comes) soonest.

    Every site hosting workers is scored with::

        score = staging + (site_load / n_workers) * (compute + staging)

    where ``staging`` is the predicted seconds to move the task's inputs
    to the site from their best replicas *given current congestion*
    (fair model: a water-filling probe via ``FlowNetwork.estimate_rate``
    that sees every active flow and all site egress/ingress caps; slot
    model: the static per-link figure) and the second term approximates
    queueing delay -- each task already queued at the site is assumed to
    cost about what this one will.  The lowest-scoring site wins; within
    it, an idle VM (name order) or the least-loaded one.

    ``pending_penalty`` scales a ledger of input bytes committed by this
    policy's own recent placements whose transfers have not *finished
    staging* yet (claimed in ``on_task_placed``, released in
    ``on_inputs_staged``; per directed site pair).  A simultaneous
    fan-out is placed in one simulation instant -- before any flow
    opens -- so without the ledger every task would see the same
    uncongested estimate and stampede the fastest link.  ``0`` disables
    the ledger; values above 1 make the policy more spread-happy.
    """

    name = "bandwidth_aware"

    def __init__(self, pending_penalty: float = 1.0):
        check_number("pending_penalty", pending_penalty, minimum=0)
        self.pending_penalty = float(pending_penalty)
        #: (src site, dst site) -> bytes committed but not yet complete.
        self._pending: Dict[Tuple[str, str], float] = {}
        #: task_id -> the ledger claims to release on completion.
        self._claims: Dict[str, List[Tuple[Tuple[str, str], int]]] = {}

    def _score(self, task, site, cluster: ClusterView) -> float:
        staging = self.staging_time(
            task, site, cluster, self._pending, self.pending_penalty
        )
        per_worker = cluster.site_load(site) / len(cluster.workers_at(site))
        return staging + per_worker * (task.compute_time + staging)

    def place(self, task, workflow, parent_sites, cluster):
        site = min(
            (s for s in cluster.sites if cluster.workers_at(s)),
            key=lambda s: (self._score(task, s, cluster), s),
        )
        idle = cluster.idle_vms(site)
        return idle[0] if idle else cluster.least_loaded_vm(site)

    def on_task_placed(self, task, vm, cluster):
        claims: List[Tuple[Tuple[str, str], int]] = []
        for f in task.inputs:
            src = self.best_source(f.name, f.size, vm.site, cluster)
            if src is None:
                continue
            pair = (src, vm.site)
            self._pending[pair] = self._pending.get(pair, 0.0) + f.size
            claims.append((pair, f.size))
        if claims:
            self._claims[task.task_id] = claims

    def _release_claims(self, task):
        for pair, size in self._claims.pop(task.task_id, ()):
            remaining = self._pending.get(pair, 0.0) - size
            if remaining > 0:
                self._pending[pair] = remaining
            else:
                self._pending.pop(pair, None)

    def on_inputs_staged(self, task, vm, cluster):
        # The transfers are done (or were local): real flows have come
        # and gone, so the ledger's pessimism is no longer needed.
        self._release_claims(task)

    def on_task_complete(self, task, vm, cluster):
        # Normally a no-op (claims released at staging time); covers
        # tasks whose staging failed mid-flight.
        self._release_claims(task)


class HybridPolicy(BandwidthAwarePolicy):
    """Locality weighed against queue depth and predicted transfer time.

    Scores every site hosting workers with three tunable terms::

        score = transfer_weight * staging
              + load_weight     * (site_load / n_workers) * (compute + staging)
              + locality_weight * remote_fraction * round_trip(home, site)

    ``staging`` and the queue term are exactly the bandwidth-aware
    policy's (including its pending-bytes ledger); the locality term
    charges sites holding few of the task's input bytes a metadata-
    affinity penalty proportional to the round trip to the data-heavy
    *home* site -- a proxy for the cross-site registry chatter
    (scratch-entry reads against parent keys) that made the paper
    schedule "close to the data production nodes".  Root tasks have no
    home, so only the first two terms act.

    With ``transfer_weight=0, load_weight=0`` the policy collapses to
    pure data affinity; with ``locality_weight=0`` it is bandwidth-aware
    placement.  The defaults (1, 1, 1) favor the transfer/queue terms on
    bulky workflows and the locality term on chatty small-file ones.
    """

    name = "hybrid"

    def __init__(
        self,
        locality_weight: float = 1.0,
        load_weight: float = 1.0,
        transfer_weight: float = 1.0,
        pending_penalty: float = 1.0,
    ):
        super().__init__(pending_penalty=pending_penalty)
        for label, w in (
            ("locality_weight", locality_weight),
            ("load_weight", load_weight),
            ("transfer_weight", transfer_weight),
        ):
            check_number(label, w, minimum=0)
        self.locality_weight = float(locality_weight)
        self.load_weight = float(load_weight)
        self.transfer_weight = float(transfer_weight)

    def place(self, task, workflow, parent_sites, cluster):
        weight = self.input_bytes_by_site(task, workflow, parent_sites)
        total = sum(weight.values())
        home = (
            max(weight.items(), key=lambda kv: kv[1])[0] if weight else None
        )

        def score(site: str) -> float:
            staging = self.staging_time(
                task, site, cluster, self._pending, self.pending_penalty
            )
            per_worker = cluster.site_load(site) / len(
                cluster.workers_at(site)
            )
            s = self.transfer_weight * staging
            s += self.load_weight * per_worker * (
                task.compute_time + staging
            )
            if home is not None and total > 0:
                remote_fraction = 1.0 - weight.get(site, 0.0) / total
                s += (
                    self.locality_weight
                    * remote_fraction
                    * cluster.network.round_trip(home, site)
                )
            return s

        site = min(
            (s for s in cluster.sites if cluster.workers_at(s)),
            key=lambda s: (score(s), s),
        )
        idle = cluster.idle_vms(site)
        return idle[0] if idle else cluster.least_loaded_vm(site)


#: name -> policy factory.  Factories accept the policy's knobs as
#: keyword arguments and return a fresh, stateless-history instance.
SCHEDULERS = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LocalityPolicy.name: LocalityPolicy,
    LoadBalancedPolicy.name: LoadBalancedPolicy,
    BandwidthAwarePolicy.name: BandwidthAwarePolicy,
    HybridPolicy.name: HybridPolicy,
}

#: Recognized values of the ``scheduler`` switch, in a stable order.
SCHEDULER_NAMES = (
    "locality",
    "round_robin",
    "load_balanced",
    "bandwidth_aware",
    "hybrid",
)


def make_scheduler(name: str, **knobs) -> PlacementPolicy:
    """Build a placement policy by registry name.

    ``knobs`` are passed to the policy's constructor; passing a knob the
    policy does not accept raises ``TypeError`` (the spec layer's
    validation gives friendlier errors).
    """
    try:
        factory = SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; expected one of {SCHEDULER_NAMES}"
        ) from None
    return factory(**knobs)
