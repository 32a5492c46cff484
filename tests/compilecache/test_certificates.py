"""Safety certificates in the compile cache.

* **Key sensitivity** — mutating any single input (source, opt level,
  analyzer version) moves the cache key, so certificates can never be
  confused across compiles.
* **Disk-tier integrity** — a persisted executable's stamped
  certificates (``module.metadata[SAFETY_META]``, the one copy the
  loader and the device read) round-trip intact; a version-stale or
  malformed stamp is re-derived with the current analyzer, never used to
  skip a guard or the launch gate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.safety as safety
from repro.analysis.safety import (
    ANALYZER_VERSION,
    SAFETY_META,
    SafetyCertificate,
    Verdict,
    certificates_for,
)
from repro.compilecache import ExecutableCache
from repro.compilecache.cache import DISK_MAGIC
from repro.errors import DeviceTrap, LoaderError
from repro.frontend.dsl import Program
from repro.gpu.device import GPUDevice
from repro.host.loader import Loader
from repro.passes.pipeline import pipeline_fingerprint
from repro.runtime.compiled import SAFETY_CERT_KEY
from repro.tools.safety_check import BROKEN
from tests.util import SMALL_DEVICE

source_hashes = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=32
).map(lambda s: "src:" + s)
opt_levels = st.sampled_from([0, 1, 2])

SRC = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(16)
    for i in dgpu.parallel_range(16):
        buf[i] = i + 1
    return buf[7]
"""

#: A program whose one load is statically DISPROVEN (it faults on every
#: run), so a stamp that hides the verdict is observable.
OOB = BROKEN["oob"][0]


@settings(max_examples=30, deadline=None)
@given(source_hashes, opt_levels)
def test_single_input_mutation_moves_the_key(src, opt):
    cache = ExecutableCache()
    base = cache.key_for(src, opt_level=opt).digest()
    assert cache.key_for(src + "0", opt_level=opt).digest() != base
    assert cache.key_for(src, opt_level=(opt + 1) % 3).digest() != base


def test_analyzer_version_bump_moves_fingerprint_and_key(monkeypatch):
    base_fp = pipeline_fingerprint(2)
    cache = ExecutableCache()
    base_key = cache.key_for("src:abc", opt_level=2).digest()
    monkeypatch.setattr(safety, "ANALYZER_VERSION", ANALYZER_VERSION + 1)
    assert pipeline_fingerprint(2) != base_fp
    assert cache.key_for("src:abc", opt_level=2).digest() != base_key


def _rewrite_entry(path, mutate):
    """Unpickle a disk entry, apply ``mutate`` to the payload dict, and
    write it back with a *valid* checksum — the corruption under test is
    inside the certificate, not the framing."""
    blob = open(path, "rb").read()
    rest = blob[len(DISK_MAGIC):]
    _, _, payload = rest.partition(b"\n")
    data = pickle.loads(payload)
    mutate(data)
    payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    checksum = hashlib.sha256(payload).hexdigest().encode("ascii")
    open(path, "wb").write(DISK_MAGIC + checksum + b"\n" + payload)


class TestDiskCertificates:
    def _disk_load(self, src, mutate=None):
        """Build ``src`` at -O2 into a disk tier, let ``mutate`` rewrite
        the stored module's stamped certificate map, and load the entry
        back through a fresh cache."""
        with tempfile.TemporaryDirectory() as d:
            cache = ExecutableCache(d)
            built = cache.get_or_build(Program.from_source(src), opt_level=2)
            if mutate is not None:
                _rewrite_entry(
                    cache._path(built.digest),
                    lambda data: mutate(data["module"].metadata),
                )
            loaded = ExecutableCache(d).get_or_build(
                Program.from_source(src), opt_level=2
            )
        assert loaded.tier == "disk"
        return built.module, loaded.module

    def _assert_rederived(self, module):
        """The loader's DISPROVEN gate refuses the launch, and with the
        gate overridden every lowered kernel carries a current
        certificate that keeps the guard: the run traps."""
        with pytest.raises(LoaderError, match="refusing to launch"):
            Loader(module, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20).run(
                [], thread_limit=8, collect_timing=False
            )
        loader = Loader(
            module, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20,
            allow_unsafe=True,
        )
        with pytest.raises(DeviceTrap):
            loader.run(
                [], thread_limit=8, collect_timing=False,
                backend="compiled", safety_mode="unchecked",
            )
        assert loader.image.lowered
        for kern in loader.image.lowered.values():
            cert = kern.backend_cache[SAFETY_CERT_KEY]
            assert isinstance(cert, SafetyCertificate)
            assert cert.analyzer_version == ANALYZER_VERSION
            assert cert.disproven()

    def test_certificates_roundtrip_via_disk(self):
        built, loaded = self._disk_load(SRC)
        stamped = loaded.metadata[SAFETY_META]
        assert certificates_for(loaded) is stamped  # served, not re-derived
        assert {k: c.to_dict() for k, c in stamped.items()} == {
            k: c.to_dict() for k, c in built.metadata[SAFETY_META].items()
        }
        loader = Loader(loaded, GPUDevice(SMALL_DEVICE), heap_bytes=1 << 20)
        assert loader.run([], thread_limit=32, collect_timing=False).exit_code == 8
        for name, kern in loader.image.lowered.items():
            assert kern.backend_cache[SAFETY_CERT_KEY] is stamped[name]

    def test_stale_certificate_version_is_rebuilt_not_served(self):
        def forge(metadata):
            # A stale stamp claiming every site PROVEN: served, it would
            # pass the launch gate and elide every guard.
            for cert in metadata[SAFETY_META].values():
                cert.analyzer_version = ANALYZER_VERSION + 41
                cert.sites = {
                    pc: dataclasses.replace(
                        proof,
                        null=Verdict.PROVEN,
                        align=Verdict.PROVEN,
                        bounds=Verdict.PROVEN,
                        trap=Verdict.PROVEN,
                    )
                    for pc, proof in cert.sites.items()
                }

        _, loaded = self._disk_load(OOB, forge)
        self._assert_rederived(loaded)

    def test_garbage_certificate_payload_is_rebuilt_not_served(self):
        def forge(metadata):
            # Look-alikes carrying the current version and no sites.
            metadata[SAFETY_META] = {
                name: SimpleNamespace(
                    kernel=name, analyzer_version=ANALYZER_VERSION,
                    sites={}, disproven=list,
                )
                for name in metadata[SAFETY_META]
            }

        _, loaded = self._disk_load(OOB, forge)
        self._assert_rederived(loaded)
