"""Admission control for multi-tenant workload execution.

An :class:`AdmissionController` decides *when* a submitted workflow may
start executing on the shared deployment; time spent between submission
and admission is the queue wait the workload metrics report.  Three
policies ship:

``unbounded``
    Admit immediately -- the pure open-loop stress mode; concurrency is
    whatever the arrival process produces.
``max_in_flight``
    A global semaphore of ``limit`` concurrent workflows, FIFO.  The
    classic cluster-gateway policy: bounds metadata/WAN contention at
    the cost of queueing delay.
``token_bucket``
    Per-tenant rate limiting via the GCRA (virtual-scheduling) form of
    a token bucket: each tenant may burst ``burst`` workflows, then is
    paced at ``rate`` admissions/second.  Protects tenants from each
    other rather than the cluster from everyone.

All policies are deterministic and RNG-free: admission order depends
only on submission order and timing.  ``admit`` is a simulation process
(``yield from`` it); it returns an opaque token to hand back to
``release`` when the workflow finishes.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.sim import Environment
from repro.sim.resources import Resource
from repro.util.checks import check_number

__all__ = [
    "ADMISSIONS",
    "ADMISSION_NAMES",
    "AdmissionController",
    "MaxInFlightAdmission",
    "TokenBucketAdmission",
    "UnboundedAdmission",
    "make_admission",
]


class AdmissionController:
    """Abstract admission policy (see module docstring for contract)."""

    #: Registry name (set by concrete policies).
    name: str = "abstract"

    def __init__(self, env: Environment):
        self.env = env
        #: Completed admissions (diagnostics).
        self.admitted = 0

    @property
    def bound(self) -> Optional[int]:
        """Hard cap on concurrent in-flight workflows (None: unbounded)."""
        return None

    def admit(self, tenant: str) -> Generator:
        """Process: yield until ``tenant`` may start one workflow.

        Returns an opaque token for :meth:`release`.
        """
        raise NotImplementedError

    def release(self, token) -> None:
        """Hand back a slot acquired by :meth:`admit` (no-op default)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class UnboundedAdmission(AdmissionController):
    """Admit every submission immediately (no cap, no pacing)."""

    name = "unbounded"

    def admit(self, tenant: str) -> Generator:
        self.admitted += 1
        return None
        yield  # pragma: no cover - makes this a generator


class MaxInFlightAdmission(AdmissionController):
    """Global FIFO semaphore: at most ``limit`` workflows in flight."""

    name = "max_in_flight"

    def __init__(self, env: Environment, limit: int = 4):
        super().__init__(env)
        check_number("max_in_flight limit", limit)
        self._slots = Resource(env, capacity=limit)

    @property
    def bound(self) -> Optional[int]:
        return self._slots.capacity

    @property
    def in_flight(self) -> int:
        return self._slots.count

    def admit(self, tenant: str) -> Generator:
        request = self._slots.request()
        yield request
        self.admitted += 1
        return request

    def release(self, token) -> None:
        if token is not None:
            self._slots.release(token)


class TokenBucketAdmission(AdmissionController):
    """Per-tenant token bucket (GCRA virtual scheduling), FIFO per tenant.

    Each tenant owns an independent bucket of capacity ``burst`` tokens
    refilled at ``rate`` tokens/second; one admission costs one token.
    The implementation reserves the admission instant *before* waiting
    (the GCRA theoretical-arrival-time update), so simultaneous
    submissions from one tenant chain deterministically instead of all
    seeing the same bucket level.
    """

    name = "token_bucket"

    def __init__(
        self, env: Environment, rate: float = 1.0, burst: int = 1
    ):
        super().__init__(env)
        check_number("token rate", rate)
        check_number("token burst", burst, minimum=1)
        self.rate = float(rate)
        self.burst = int(burst)
        #: Tenant -> theoretical arrival time of its next admission.
        self._tat: Dict[str, float] = {}

    def admit(self, tenant: str) -> Generator:
        period = 1.0 / self.rate
        tolerance = (self.burst - 1) * period
        now = self.env.now
        tat = self._tat.get(tenant, float("-inf"))
        admit_at = max(now, tat - tolerance)
        self._tat[tenant] = max(tat, admit_at) + period
        if admit_at > now:
            yield admit_at - now
        self.admitted += 1
        return None


#: name -> controller class.  Knobs: ``max_in_flight`` takes ``limit``,
#: ``token_bucket`` takes ``rate`` and ``burst``.
ADMISSIONS = {
    UnboundedAdmission.name: UnboundedAdmission,
    MaxInFlightAdmission.name: MaxInFlightAdmission,
    TokenBucketAdmission.name: TokenBucketAdmission,
}

#: Recognized values of the ``admission`` switch, in a stable order.
ADMISSION_NAMES = ("unbounded", "max_in_flight", "token_bucket")


def make_admission(
    name: str, env: Environment, **knobs
) -> AdmissionController:
    """Build an admission controller by registry name.

    ``knobs`` go to the controller's constructor; a knob the policy does
    not accept raises ``TypeError`` (the spec layer's validation gives
    friendlier errors).
    """
    try:
        factory = ADMISSIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown admission policy {name!r}; expected one of "
            f"{ADMISSION_NAMES}"
        ) from None
    return factory(env, **knobs)
