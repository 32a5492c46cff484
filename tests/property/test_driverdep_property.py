"""Property tests: driver-loop classifier stability and the
safe-loop sequential-equivalence contract.

Small driver loops are *generated* — safe sweeps built from reductions
and loop-locals, and unsafe variants seeded with one dependence of each
kind — then pushed through the analyzer (and, for safe loops, through
the full trace/launch/replay engine against the sequential oracle).
"""

import linecache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import Severity
from repro.analysis.driverdep import DepKind, analyze_driver
from repro.frontend.autoensemble import AutoRunResult, auto_launch

# ---------------------------------------------------------------------------
# Driver-source generation
# ---------------------------------------------------------------------------

REDUCTION_TEMPLATES = [
    ("acc = 0", "acc = acc + r.exit_code"),
    ("acc = 1", "acc = acc * (1 + r.exit_code)"),
    ("acc = 0", "acc += r.exit_code"),
    ("acc = 10**9", "acc = min(acc, r.exit_code)"),
    ("acc = -1", "acc = max(r.exit_code, acc)"),
]

FILLERS = [
    "t{i} = x * {k}",
    "t{i} = str(x) + '-{k}'",
    "t{i} = [x, {k}]",
]


def make_safe_source(values, red_idx, fillers, with_append):
    init, update = REDUCTION_TEMPLATES[red_idx]
    body = [f"def driver(run):", f"    {init}", "    out = []",
            f"    for x in {values!r}:"]
    for i, f_idx in enumerate(fillers):
        body.append("        " + FILLERS[f_idx].format(i=i, k=i + 2))
    body.append("        r = run(['-n', str(x)])")
    body.append(f"        {update}")
    if with_append:
        body.append("        out.append(r.stdout)")
    body.append("    return acc, out")
    return "\n".join(body) + "\n"


UNSAFE_SEEDS = {
    DepKind.FLOW: (
        "prev = 0",
        ["        r = run(['-n', str(x + prev)])",
         "        prev = prev + r.exit_code"],
    ),
    DepKind.OUTPUT: (
        "last = 0",
        ["        run(['-n', str(x)])", "        last = x"],
    ),
    DepKind.IO: (
        "pass",
        ["        r = run(['-n', str(x)])", "        print(x)"],
    ),
    DepKind.ALIAS: (
        "table = {}",
        ["        r = run(['-n', str(x)])",
         "        table[x] = r.exit_code"],
    ),
    DepKind.ANTI: (
        "q = [1, 2, 3, 4]",
        ["        run(['-n', str(q[0])])", "        q.pop(0)"],
    ),
    DepKind.CONTROL: (
        "pass",
        ["        r = run(['-n', str(x)])",
         "        if r.exit_code:", "            break"],
    ),
}


def make_unsafe_source(values, kind, fillers):
    prologue, seed_lines = UNSAFE_SEEDS[kind]
    body = [f"def driver(run):", f"    {prologue}",
            f"    for x in {values!r}:"]
    for i, f_idx in enumerate(fillers):
        body.append("        " + FILLERS[f_idx].format(i=i, k=i + 2))
    body.extend(seed_lines)
    return "\n".join(body) + "\n"


_counter = [0]


def load_driver(source):
    """Materialize generated source as a live function getsource() finds."""
    _counter[0] += 1
    filename = f"<gen-driver-{_counter[0]}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename
    )
    ns = {}
    exec(compile(source, filename, "exec"), ns)
    return ns["driver"]


def fake_backend(calls):
    return [
        AutoRunResult(
            index=i, args=args, exit_code=len(args[-1]) % 3,
            stdout=" ".join(args) + "\n",
        )
        for i, args in enumerate(calls)
    ]


def fake_sequential(args):
    return len(args[-1]) % 3, " ".join(args) + "\n"


values_st = st.lists(st.integers(0, 10**6), min_size=0, max_size=6)
fillers_st = st.lists(st.integers(0, len(FILLERS) - 1), max_size=3)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values_st,
    st.integers(0, len(REDUCTION_TEMPLATES) - 1),
    fillers_st,
    st.booleans(),
)
def test_safe_loops_classified_safe_and_stable(values, red_idx, fillers, append):
    source = make_safe_source(values, red_idx, fillers, append)
    (first,) = analyze_driver(source, func_name="driver")
    (second,) = analyze_driver(source, func_name="driver")
    assert first.safe, [d.format() for d in first.diagnostics]
    assert first.summary() == second.summary()
    assert [d.format() for d in first.diagnostics] == [
        d.format() for d in second.diagnostics
    ]
    kinds = {n: i.kind.value for n, i in first.names.items()}
    assert kinds["acc"] == "reduction"
    assert kinds["x"] == "induction"
    expected_reductions = 2 if append else 1
    assert len(first.reductions) == expected_reductions


@settings(max_examples=60, deadline=None)
@given(
    values_st,
    st.sampled_from(sorted(UNSAFE_SEEDS, key=lambda k: k.value)),
    fillers_st,
)
def test_unsafe_loops_always_rejected(values, kind, fillers):
    source = make_unsafe_source(values, kind, fillers)
    (cls,) = analyze_driver(source, func_name="driver")
    errors = [d for d in cls.diagnostics if d.severity >= Severity.ERROR]
    assert errors, f"{kind} loop escaped the classifier:\n{source}"
    assert all(d.loc and d.loc[0] > 0 for d in errors)
    # stability: same verdict on re-analysis
    (again,) = analyze_driver(source, func_name="driver")
    assert [d.format() for d in again.diagnostics] == [
        d.format() for d in cls.diagnostics
    ]


@settings(max_examples=40, deadline=None)
@given(
    values_st,
    st.integers(0, len(REDUCTION_TEMPLATES) - 1),
    fillers_st,
    st.booleans(),
)
def test_safe_loops_bitwise_equal_to_sequential(values, red_idx, fillers, append):
    source = make_safe_source(values, red_idx, fillers, append)
    fn = load_driver(source)
    auto = auto_launch(fn, execute=fake_backend)
    seq = auto_launch(fn, mode="sequential", sequential_execute=fake_sequential)
    assert auto.value == seq.value
    assert [
        (r.index, r.args, r.exit_code, r.stdout) for r in auto.instances
    ] == [(r.index, r.args, r.exit_code, r.stdout) for r in seq.instances]
