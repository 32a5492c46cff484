"""Unit tests for the versioned wire layer (:mod:`repro.wire`).

The property suite (tests/property/test_wire_property.py) covers breadth;
this file pins the contract corners: envelope policy, stable error codes,
unknown-field tolerance, version rejection, and hash stability.
"""

from __future__ import annotations

import pytest

from repro import wire
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport
from repro.host.ensemble_loader import InstanceOutcome
from repro.host.launch import LaunchSpec
from repro.sched.jobs import BatchRecord, JobResult, JobState, JobTicket
from repro.serve.protocol import Submission

from tests.serve.conftest import small_spec


class TestEnvelope:
    def test_envelope_carries_kind_and_version(self):
        data = wire.envelope("Thing")
        assert data == {
            "kind": "Thing",
            "schema_version": wire.WIRE_SCHEMA_VERSION,
        }

    def test_non_object_rejected(self):
        with pytest.raises(wire.WireError) as exc:
            wire.check_envelope([1, 2], "Thing")
        assert exc.value.code == wire.E_SCHEMA

    def test_wrong_kind_rejected(self):
        with pytest.raises(wire.WireError) as exc:
            wire.check_envelope(wire.envelope("Other"), "Thing")
        assert exc.value.code == wire.E_SCHEMA

    def test_newer_version_rejected_with_stable_code(self):
        data = wire.envelope("Thing")
        data["schema_version"] = wire.WIRE_SCHEMA_VERSION + 1
        with pytest.raises(wire.WireError) as exc:
            wire.check_envelope(data, "Thing")
        assert exc.value.code == wire.E_VERSION

    def test_unknown_fields_tolerated(self):
        ticket = JobTicket(job_id=7, tenant="t")
        doc = ticket.to_wire()
        doc["added_in_v9"] = {"nested": True}
        rt = JobTicket.from_wire(doc)
        assert rt == ticket

    def test_error_codes_are_frozen(self):
        assert wire.E_VERSION in wire.ERROR_CODES
        assert wire.E_DRAINING in wire.ERROR_CODES
        assert isinstance(wire.ERROR_CODES, frozenset)


class TestGetField:
    def test_missing_required_field(self):
        data = wire.envelope("JobTicket")
        with pytest.raises(wire.WireError) as exc:
            JobTicket.from_wire(data)
        assert exc.value.code == wire.E_SCHEMA
        assert "job_id" in str(exc.value)

    def test_explicit_null_reads_as_missing(self):
        doc = JobTicket(job_id=1).to_wire()
        doc["tenant"] = None
        assert JobTicket.from_wire(doc).tenant == ""

    def test_bool_is_not_an_int(self):
        doc = JobTicket(job_id=1).to_wire()
        doc["job_id"] = True
        with pytest.raises(wire.WireError):
            JobTicket.from_wire(doc)


class TestRoundTrips:
    def test_launch_spec_resolves_instances_at_serialization(self, tmp_path):
        path = tmp_path / "c.args"
        path.write_text("-n 8\n-n 16\n")
        spec = LaunchSpec(str(path), thread_limit=64)
        doc = spec.to_wire()
        # The document is self-contained: no file paths cross the wire.
        assert doc["instances"] == [["-n", "8"], ["-n", "16"]]
        rt = LaunchSpec.from_wire(doc)
        assert rt.resolve_instances() == spec.resolve_instances()
        assert rt.thread_limit == 64

    def test_launch_spec_with_fault_plan(self):
        plan = FaultPlan.parse("worker_death:times=1", seed=3)
        spec = small_spec(2, fault_plan=plan)
        rt = LaunchSpec.from_wire(spec.to_wire())
        assert rt.resolve_fault_plan().to_json() == plan.to_json()

    def test_fault_report_kind_survives(self):
        report = FaultReport(
            kind="oom",
            point="device.alloc",
            message="injected",
            job_id=3,
            device="pool1",
            instances=[0, 2],
        )
        doc = report.to_wire()
        assert doc["kind"] == "FaultReport"  # envelope kind
        assert doc["fault_kind"] == "oom"  # the fault's own kind
        rt = FaultReport.from_wire(doc)
        assert rt.kind == "oom"
        assert rt.instances == [0, 2]
        assert rt.device == "pool1"

    def test_job_result_full_fidelity(self):
        report = FaultReport(kind="poison", point="sched.dispatch", message="x")
        result = JobResult(
            job_id=5,
            instances=[
                InstanceOutcome(0, ["-n", "1"], 0, slot=0, stdout="hi\n"),
                InstanceOutcome(
                    1, ["-n", "2"], 254, slot=-1, stdout="", fault=report
                ),
            ],
            batches=[BatchRecord(0, 2, cycles=10.5)],
            total_cycles=10.5,
            retries=1,
            oom_splits=2,
            steps_used=300,
            fault_reports=[report],
        )
        rt = JobResult.from_wire(result.to_wire())
        assert rt.to_wire() == result.to_wire()
        assert rt.degraded
        assert rt.instances[1].fault.kind == "poison"
        assert rt.batches[0].cycles == 10.5

    def test_untimed_result(self):
        result = JobResult(
            job_id=0,
            instances=[InstanceOutcome(0, [], 0, slot=0, stdout="")],
            total_cycles=None,
        )
        assert JobResult.from_wire(result.to_wire()).total_cycles is None

    def test_submission_round_trip(self):
        sub = Submission(
            app="pagerank",
            spec=small_spec(2),
            tenant="alice",
            priority=3,
            retries=1,
            step_budget=1000,
            loader_opts={"heap_bytes": 4096, "pack": 2},
        )
        rt = Submission.from_wire(sub.to_wire())
        assert rt.to_wire() == sub.to_wire()


class TestFromWireAny:
    def test_dispatch_by_kind(self):
        ticket = JobTicket(job_id=9, tenant="z")
        value = wire.from_wire_any(ticket.to_wire())
        assert isinstance(value, JobTicket)
        assert value == ticket

    def test_unknown_kind(self):
        with pytest.raises(wire.WireError) as exc:
            wire.from_wire_any(wire.envelope("NoSuchThing"))
        assert exc.value.code == wire.E_SCHEMA

    def test_state_round_trip(self):
        ticket = JobTicket(job_id=1, state=JobState.COMPLETED)
        assert wire.from_wire_any(ticket.to_wire()).state is JobState.COMPLETED


class TestSpecHash:
    def test_stable_across_key_order(self):
        a = {"kind": "X", "alpha": 1, "beta": [1, 2]}
        b = {"beta": [1, 2], "alpha": 1, "kind": "X"}
        assert wire.spec_hash(a) == wire.spec_hash(b)

    def test_distinct_content_distinct_hash(self):
        assert wire.spec_hash(small_spec(2).to_wire()) != wire.spec_hash(
            small_spec(3).to_wire()
        )

    def test_prefixed_format(self):
        digest = wire.spec_hash({"kind": "X"})
        assert digest.startswith("sha256:")
        assert len(digest) == len("sha256:") + 32
