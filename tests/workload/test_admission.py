"""Admission-control tests: policies and the runner's admission argument."""

import math

import pytest

from repro.sim import Environment
from repro.cloud.deployment import Deployment
from repro.metadata.controller import ArchitectureController
from repro.workload import (
    ADMISSION_NAMES,
    MaxInFlightAdmission,
    TokenBucketAdmission,
    UnboundedAdmission,
    make_admission,
)
from repro.workload.runner import WorkloadRunner


def drive(env, gen):
    """Run one admission process to completion; returns (value, end_time)."""
    proc = env.process(gen)
    value = env.run(until=proc)
    return value, env.now


class TestPolicies:
    def test_unbounded_admits_immediately(self):
        env = Environment()
        adm = UnboundedAdmission(env)
        _, at = drive(env, adm.admit("t"))
        assert at == 0.0
        assert adm.bound is None
        assert adm.admitted == 1

    def test_max_in_flight_blocks_at_limit(self):
        env = Environment()
        adm = MaxInFlightAdmission(env, limit=2)
        t1, _ = drive(env, adm.admit("a"))
        t2, _ = drive(env, adm.admit("b"))
        assert adm.in_flight == 2

        # A third admit must wait until someone releases.
        def third():
            token = yield from adm.admit("c")
            return token

        proc = env.process(third())
        env.run(until=env.timeout(1.0))
        assert adm.in_flight == 2  # still blocked
        adm.release(t1)
        env.run(until=proc)
        assert adm.in_flight == 2
        adm.release(t2)
        assert adm.bound == 2

    def test_token_bucket_burst_then_pacing(self):
        env = Environment()
        adm = TokenBucketAdmission(env, rate=1.0, burst=2)
        _, t1 = drive(env, adm.admit("t"))
        _, t2 = drive(env, adm.admit("t"))
        _, t3 = drive(env, adm.admit("t"))
        _, t4 = drive(env, adm.admit("t"))
        assert (t1, t2) == (0.0, 0.0)  # burst of 2
        assert (t3, t4) == (1.0, 2.0)  # then 1/s pacing

    def test_token_bucket_tenants_independent(self):
        env = Environment()
        adm = TokenBucketAdmission(env, rate=1.0, burst=1)
        _, t1 = drive(env, adm.admit("a"))
        _, t2 = drive(env, adm.admit("b"))
        assert t1 == t2 == 0.0  # b's bucket is untouched by a

    def test_token_bucket_refills_while_idle(self):
        env = Environment()
        adm = TokenBucketAdmission(env, rate=2.0, burst=1)
        drive(env, adm.admit("t"))
        env.run(until=env.timeout(5.0))  # plenty of idle refill
        _, at = drive(env, adm.admit("t"))
        assert at == 5.0  # no residual debt

    @pytest.mark.parametrize(
        "factory",
        [
            lambda env: MaxInFlightAdmission(env, limit=0),
            lambda env: TokenBucketAdmission(env, rate=0.0),
            lambda env: TokenBucketAdmission(env, rate=1.0, burst=0),
            # NaN passes "<= 0" checks: a NaN limit deadlocks, a NaN
            # rate admits everything at once.
            lambda env: MaxInFlightAdmission(env, limit=math.nan),
            lambda env: TokenBucketAdmission(env, rate=math.nan),
            lambda env: TokenBucketAdmission(env, rate=math.inf),
            lambda env: TokenBucketAdmission(env, rate=1.0, burst=math.nan),
        ],
    )
    def test_bad_knobs_rejected(self, factory):
        with pytest.raises(ValueError):
            factory(Environment())

    def test_make_admission_unknown_name(self):
        with pytest.raises(ValueError, match="unknown admission"):
            make_admission("nope", Environment())

    def test_registry_names_stable(self):
        assert ADMISSION_NAMES == (
            "unbounded",
            "max_in_flight",
            "token_bucket",
        )


class TestThreading:
    """The ``admission`` argument is the runner's only policy route."""

    @staticmethod
    def runner(admission=None):
        dep = Deployment(n_nodes=4, seed=0)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        runner = WorkloadRunner(dep, ctrl.strategy, admission=admission)
        ctrl.shutdown()
        return runner

    def test_runner_default_is_unbounded(self):
        assert self.runner().admission.name == "unbounded"

    def test_name_builds_the_controller_with_its_defaults(self):
        assert self.runner("max_in_flight").admission.bound == 4
        bucket = self.runner("token_bucket").admission
        assert (bucket.rate, bucket.burst) == (1.0, 1)

    def test_controller_instance_injected_directly(self):
        dep = Deployment(n_nodes=4, seed=0)
        ctrl = ArchitectureController(dep, strategy="hybrid")
        adm = MaxInFlightAdmission(dep.env, limit=2)
        runner = WorkloadRunner(dep, ctrl.strategy, admission=adm)
        ctrl.shutdown()
        assert runner.admission is adm

    def test_runner_rejects_unknown_admission(self):
        with pytest.raises(ValueError, match="unknown admission"):
            self.runner("nope")
