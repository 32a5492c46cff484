"""Property tests: every ``to_wire``/``from_wire`` pair round-trips.

The contract under test, for every serializable API type (LaunchSpec —
with and without a fault plan — FaultReport, InstanceOutcome incl.
degraded ones, BatchRecord, JobResult, JobTicket, Submission):

* **fidelity** — ``from_wire(x.to_wire())`` reproduces a value whose own
  wire document equals the original (``to_wire`` is injective up to the
  document);
* **dispatch** — :func:`repro.wire.from_wire_any` resolves the same
  value from the ``kind`` field alone;
* **tolerance** — injecting unknown fields into a document never breaks
  decoding and never changes the decoded value (the forward-compat
  policy of docs/serve.md).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import wire
from repro.faults.plan import KINDS, FaultPlan, FaultSpec
from repro.faults.report import FAULT_EXIT, FaultReport
from repro.host.ensemble_loader import InstanceOutcome
from repro.host.launch import LaunchSpec
from repro.runtime.backend import available_backends
from repro.sched.jobs import BatchRecord, JobResult, JobState, JobTicket
from repro.serve.protocol import Submission

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
tokens = st.lists(
    st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_categories=("Cs", "Cc")
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=4,
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)


@st.composite
def fault_plans(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    params = {}
    if draw(st.booleans()):
        params["rate"] = repr(draw(st.floats(0.0, 1.0, allow_nan=False, width=16)))
    if draw(st.booleans()):
        params["times"] = str(draw(st.integers(1, 9)))
    if "device" in KINDS[kind].selectors and draw(st.booleans()):
        params["device"] = draw(st.sampled_from(["*", "pool0", "pool1"]))
    specs = [FaultSpec(kind, params)]
    return FaultPlan(specs, seed=draw(st.integers(0, 2**31)))


@st.composite
def launch_specs(draw):
    instances = draw(st.lists(tokens, min_size=1, max_size=4))
    return LaunchSpec(
        arg_source=instances,
        thread_limit=draw(st.integers(1, 1024)),
        max_steps=draw(st.integers(1, 10**7)),
        collect_timing=draw(st.booleans()),
        fault_plan=draw(st.none() | fault_plans()),
        backend=draw(st.sampled_from(available_backends())),
    )


@st.composite
def fault_reports(draw):
    return FaultReport(
        kind=draw(st.sampled_from(sorted(KINDS))),
        point=draw(
            st.sampled_from(
                ["sched.dispatch", "device.alloc", "rpc.reply", "device.launch"]
            )
        ),
        message=draw(st.text(max_size=40)),
        job_id=draw(st.none() | st.integers(0, 1000)),
        device=draw(st.none() | st.sampled_from(["pool0", "pool1"])),
        instances=draw(st.lists(st.integers(0, 100), max_size=5)),
        attempts=draw(st.integers(0, 5)),
    )


@st.composite
def instance_outcomes(draw, index=None):
    degraded = draw(st.booleans())
    return InstanceOutcome(
        index=draw(st.integers(0, 100)) if index is None else index,
        args=draw(tokens),
        exit_code=FAULT_EXIT if degraded else draw(st.integers(-1, 255)),
        slot=-1 if degraded else draw(st.integers(0, 63)),
        stdout=draw(st.text(max_size=60)),
        fault=draw(fault_reports()) if degraded else None,
    )


@st.composite
def batch_records(draw):
    return BatchRecord(
        first_instance=draw(st.integers(0, 100)),
        size=draw(st.integers(1, 64)),
        cycles=draw(
            st.none() | st.floats(0.0, 1e9, allow_nan=False)
        ),
    )


@st.composite
def job_results(draw):
    instances = [
        draw(instance_outcomes(index=i))
        for i in range(draw(st.integers(1, 4)))
    ]
    reports = [o.fault for o in instances if o.fault is not None]
    return JobResult(
        job_id=draw(st.integers(0, 10**6)),
        instances=instances,
        batches=draw(st.lists(batch_records(), max_size=3)),
        total_cycles=draw(
            st.none() | st.floats(0.0, 1e12, allow_nan=False)
        ),
        retries=draw(st.integers(0, 9)),
        oom_splits=draw(st.integers(0, 9)),
        steps_used=draw(st.integers(0, 10**9)),
        fault_reports=reports,
    )


@st.composite
def job_tickets(draw):
    return JobTicket(
        job_id=draw(st.integers(0, 10**9)),
        tenant=draw(names | st.just("")),
        spec_hash=draw(st.just("") | st.just("sha256:" + "0" * 32)),
        state=draw(st.sampled_from(list(JobState))),
    )


@st.composite
def submissions(draw):
    opts = {}
    if draw(st.booleans()):
        opts["heap_bytes"] = draw(st.integers(1024, 1 << 30))
    if draw(st.booleans()):
        opts["pack"] = draw(st.integers(1, 8))
    if draw(st.booleans()):
        opts["allow_races"] = draw(st.booleans())
    return Submission(
        app=draw(names),
        spec=draw(launch_specs()),
        tenant=draw(names),
        priority=draw(st.integers(0, 9)),
        retries=draw(st.none() | st.integers(0, 9)),
        step_budget=draw(st.none() | st.integers(1, 10**9)),
        loader_opts=opts,
    )


ALL_TYPES = st.one_of(
    launch_specs(),
    fault_plans(),
    fault_reports(),
    instance_outcomes(),
    batch_records(),
    job_results(),
    job_tickets(),
    submissions(),
)


# ---------------------------------------------------------------------------
# the three universal properties
# ---------------------------------------------------------------------------
@settings(max_examples=250, deadline=None)
@given(ALL_TYPES)
def test_round_trip_fidelity(value):
    doc = value.to_wire()
    assert doc["schema_version"] == wire.WIRE_SCHEMA_VERSION
    revived = type(value).from_wire(doc)
    assert revived.to_wire() == doc


@settings(max_examples=250, deadline=None)
@given(ALL_TYPES)
def test_from_wire_any_dispatches_by_kind(value):
    revived = wire.from_wire_any(value.to_wire())
    assert type(revived) is type(value)
    assert revived.to_wire() == value.to_wire()


@settings(max_examples=250, deadline=None)
@given(
    ALL_TYPES,
    st.dictionaries(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=3, max_size=12
        ).map(lambda s: f"x_{s}"),
        st.none() | st.booleans() | st.integers() | st.text(max_size=8),
        max_size=3,
    ),
)
def test_unknown_fields_tolerated(value, extra):
    doc = value.to_wire()
    polluted = dict(doc)
    polluted.update(extra)
    revived = wire.from_wire_any(polluted)
    assert revived.to_wire() == doc


@settings(max_examples=100, deadline=None)
@given(ALL_TYPES)
def test_documents_are_json_and_hashable(value):
    import json

    doc = value.to_wire()
    assert json.loads(wire.canonical_json(doc)) == doc
    assert wire.spec_hash(doc) == wire.spec_hash(json.loads(json.dumps(doc)))


@settings(max_examples=100, deadline=None)
@given(ALL_TYPES, st.integers(2, 99))
def test_newer_schema_version_rejected(value, bump):
    doc = value.to_wire()
    doc["schema_version"] = wire.WIRE_SCHEMA_VERSION + bump
    try:
        wire.from_wire_any(doc)
    except wire.WireError as exc:
        assert exc.code == wire.E_VERSION
    else:
        raise AssertionError("newer schema_version must be rejected")
