"""Chaos: RPC-layer injection points (``rpc.reply``) over both transports.

Contract under test: a dropped reply fails the launch transiently (so the
scheduler's retry machinery recovers it), an injected timeout isolates
exactly the targeted instance, and a corrupted reply flips exactly the
requested byte — all deterministically, on both the direct and ring
transports, for ensembles and for single-instance ``Loader.run`` alike.
"""

import pytest

from repro.errors import RPCError
from repro.faults import FAULT_EXIT, InjectedRPCFailure
from repro.gpu.device import GPUDevice
from repro.host.ensemble_loader import EnsembleLoader
from repro.host.launch import LaunchSpec
from repro.host.results import Observables
from tests.util import SMALL_DEVICE, as_single_run

LINES = [[str(i)] for i in (7, 8, 9, 10)]


def spec(plan=None, lines=LINES):
    return LaunchSpec(
        lines, thread_limit=32, collect_timing=False, fault_plan=plan
    )


@pytest.fixture(params=["direct", "ring"])
def transport(request):
    return request.param


def make_loader(prog, transport):
    return EnsembleLoader(
        prog,
        GPUDevice(SMALL_DEVICE),
        heap_bytes=1 << 20,
        rpc_transport=transport,
    )


class TestDrop:
    def test_dropped_reply_fails_launch_transiently(self, echo_prog, transport):
        loader = make_loader(echo_prog, transport)
        with pytest.raises(InjectedRPCFailure) as exc_info:
            loader.run_ensemble(spec("rpc_drop:rate=1.0:times=1"))
        # An RPCError subclass: upstream retry paths treat it like a real
        # wedged service thread.
        assert isinstance(exc_info.value, RPCError)
        # The launch is transient: the same loader immediately recovers.
        again = loader.run_ensemble(spec())
        assert again.return_codes == [7, 8, 9, 10]
        loader.close()

    def test_single_instance_drop_fails_run_transiently(self, echo_prog, transport):
        loader = make_loader(echo_prog, transport)
        with pytest.raises(InjectedRPCFailure):
            loader.run(spec("rpc_drop:rate=1.0:times=1", lines=[["7"]]))
        assert loader.run(spec(lines=[["7"]])).exit_code == 7
        loader.close()

    def test_rate_zero_never_fires(self, echo_prog, transport):
        loader = make_loader(echo_prog, transport)
        res = loader.run_ensemble(spec("rpc_drop:rate=0.0"))
        assert res.return_codes == [7, 8, 9, 10]
        assert not loader.device.faults.events
        loader.close()


class TestTimeout:
    def test_timeout_isolates_one_instance(self, echo_prog, transport):
        loader = make_loader(echo_prog, transport)
        res = loader.run_ensemble(spec("rpc_timeout:instance=2:times=1"))
        codes = [o.exit_code for o in res.instances]
        assert codes == [7, 8, FAULT_EXIT, 10]
        assert len(res.fault_reports) == 1
        report = res.fault_reports[0]
        assert report.kind == "rpc_timeout"
        assert report.instances == [2]
        assert res.instances[2].fault is report
        # The degraded result is queryable but not "all succeeded".
        assert not res.all_succeeded
        loader.close()

    def test_other_instances_keep_their_output(self, echo_prog, transport):
        loader = make_loader(echo_prog, transport)
        base = loader.run_ensemble(spec())
        hit = loader.run_ensemble(spec("rpc_timeout:instance=1:times=1"))
        for i in (0, 2, 3):
            assert hit.stdout_of(i) == base.stdout_of(i)
        loader.close()


    def test_single_instance_timeout_is_isolated(self, echo_prog, transport):
        """``Loader.run`` reports the fault the one-instance ensemble
        launch does: exit FAULT_EXIT, the report, and the output the host
        produced before the reply was lost."""
        loader = make_loader(echo_prog, transport)
        one = spec("rpc_timeout:times=1", lines=[["7"]])
        run = loader.run(one)
        assert run.exit_code == FAULT_EXIT
        assert run.fault.kind == "rpc_timeout"
        assert run.stdout == "instance 7 reporting\n"
        assert Observables.of(run) == as_single_run(
            Observables.of(loader.run_ensemble(one))
        )
        loader.close()


class TestCorrupt:
    def test_corrupt_flips_requested_byte_of_reply(self, reply_prog, transport):
        loader = make_loader(reply_prog, transport)
        base = loader.run_ensemble(spec(lines=[[]]))
        hit = loader.run_ensemble(
            spec("transport_corrupt:byte=0:times=1", lines=[[]])
        )
        # The guest returns printf's reply; byte 0 of it was XOR-flipped.
        assert hit.return_codes[0] == base.return_codes[0] ^ 0xFF
        loader.close()

    def test_single_instance_corrupt_flips_reply(self, reply_prog, transport):
        loader = make_loader(reply_prog, transport)
        base = loader.run(spec(lines=[[]]))
        hit = loader.run(spec("transport_corrupt:byte=0:times=1", lines=[[]]))
        assert hit.exit_code == base.exit_code ^ 0xFF
        loader.close()

    def test_corruption_is_deterministic(self, reply_prog, transport):
        loader = make_loader(reply_prog, transport)
        runs = [
            loader.run_ensemble(
                spec("transport_corrupt:byte=1:times=1", lines=[[]])
            ).return_codes
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        loader.close()


class TestDup:
    def test_duplicate_reply_is_reexecuted_on_direct(self, echo_prog):
        # The direct transport re-invokes the handler: printf runs twice,
        # so the duplicated line is visible in the instance's stdout.
        loader = make_loader(echo_prog, "direct")
        res = loader.run_ensemble(spec("rpc_dup:service=printf:times=1"))
        dupes = [
            o for o in res.instances
            if o.stdout.count("reporting") == 2
        ]
        assert len(dupes) == 1
        assert res.return_codes == [7, 8, 9, 10]
        loader.close()

    def test_ring_reexecutes_like_direct(self, echo_prog):
        # The ring publishes the request a second time: the same
        # duplicated line the direct transport prints.
        plan = "rpc_dup:service=printf:times=1"
        runs = {}
        for transport in ("direct", "ring"):
            loader = make_loader(echo_prog, transport)
            runs[transport] = Observables.of(loader.run_ensemble(spec(plan)))
            loader.close()
        assert runs["ring"] == runs["direct"]

    def test_single_instance_duplicate(self, echo_prog, transport):
        loader = make_loader(echo_prog, transport)
        run = loader.run(spec("rpc_dup:service=printf:times=1", lines=[["7"]]))
        assert run.stdout == "instance 7 reporting\n" * 2
        assert run.exit_code == 7
        loader.close()
