"""Call graph construction and SCC condensation."""

from repro.analysis.callgraph import EXTERNAL, build_callgraph
from repro.ir.builder import IRBuilder
from repro.ir.module import Function, Module
from repro.ir.types import I64, ScalarType


def _fn(module, name, callees=(), *, kernel=False, extern=()):
    fn = Function(name, [], ScalarType.VOID, is_kernel=kernel)
    b = IRBuilder(fn)
    b.set_block(fn.add_block("entry"))
    for callee in callees:
        b.call(callee, [], ScalarType.VOID)
    for callee in extern:
        b.call(callee, [], ScalarType.VOID)
    b.ret()
    module.add_function(fn)
    return fn


def chain_module():
    """main -> helper -> leaf, plus an external printf edge."""
    m = Module("m")
    _fn(m, "leaf")
    _fn(m, "helper", ["leaf"], extern=["printf"])
    _fn(m, "main", ["helper"], kernel=True)
    m.extern_host.add("printf")
    return m


def recursive_module():
    """even -> odd -> even mutual recursion plus a self-loop."""
    m = Module("m")
    _fn(m, "odd", ["even"])
    _fn(m, "even", ["odd"])
    _fn(m, "self_rec", ["self_rec"])
    _fn(m, "main", ["even", "self_rec"], kernel=True)
    return m


class TestEdges:
    def test_direct_edges(self):
        cg = build_callgraph(chain_module())
        assert cg.callees["main"] == {"helper"}
        assert cg.callees["helper"] == {"leaf"}
        assert cg.callers["leaf"] == {"helper"}
        assert cg.callees["leaf"] == set()

    def test_external_site_recorded_but_not_an_edge(self):
        cg = build_callgraph(chain_module())
        ext = [s for s in cg.sites if s.callee == "printf"]
        assert len(ext) == 1 and ext[0].caller == "helper"
        assert "printf" not in cg.callees
        assert EXTERNAL not in cg.callees

    def test_sites_of(self):
        cg = build_callgraph(chain_module())
        assert [s.caller for s in cg.sites_of("leaf")] == ["helper"]


class TestSCCs:
    def test_acyclic_sccs_are_singletons(self):
        cg = build_callgraph(chain_module())
        assert all(len(scc) == 1 for scc in cg.sccs)
        assert not cg.is_recursive("helper")

    def test_mutual_recursion_merges(self):
        cg = build_callgraph(recursive_module())
        cycle = next(scc for scc in cg.sccs if len(scc) == 2)
        assert set(cycle) == {"even", "odd"}
        assert cg.is_recursive("even") and cg.is_recursive("odd")

    def test_self_loop_is_recursive(self):
        cg = build_callgraph(recursive_module())
        assert cg.is_recursive("self_rec")
        assert not cg.is_recursive("main")
