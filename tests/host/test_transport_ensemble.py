"""Ring RPC transport under ensemble execution: per-instance output must
stay correctly keyed even when all calls funnel through one ring."""

from repro.frontend import Program, i64, ptr_ptr
from repro.host.launch import LaunchSpec
from tests.oracle import ORACLE, Config, Input, check


def chatty():
    prog = Program("ring_ens")

    @prog.main
    def main(argc: i64, argv: ptr_ptr) -> i64:
        me = atoi(argv[1])  # noqa: F821
        printf("from instance %ld\n", me)  # noqa: F821
        return me

    return prog


def test_ensemble_over_ring_matches_direct():
    lines = [[str(i)] for i in (7, 8, 9, 10)]
    spec = LaunchSpec(lines, thread_limit=32)
    runs = check(
        Input(chatty(), spec=spec, heap_bytes=1 << 20),
        [Config(transport="ring"), Config("compiled", transport="ring")],
    )
    instances = runs[ORACLE].obs.instances
    assert [code for _, _, code, _, _ in instances] == [7, 8, 9, 10]
    assert [out for _, _, _, out, _ in instances] == [
        f"from instance {7 + i}\n" for i in range(4)
    ]
