"""Safety certificates in the compile cache.

* **Key sensitivity** — mutating any single input (source, opt level,
  backend, analyzer version) moves the cache key, so certificates can
  never be confused across compiles.
* **Disk-tier integrity** — a persisted certificate map round-trips
  intact; a corrupted or version-stale copy loads back as *absent* and
  is rebuilt with the current analyzer, never served.
"""

from __future__ import annotations

import hashlib
import pickle
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.safety as safety
from repro.analysis.safety import ANALYZER_VERSION, SafetyCertificate
from repro.compilecache import ExecutableCache
from repro.compilecache.cache import DISK_MAGIC
from repro.frontend.dsl import Program
from repro.passes.pipeline import pipeline_fingerprint

source_hashes = st.text(
    alphabet="0123456789abcdef", min_size=8, max_size=32
).map(lambda s: "src:" + s)
opt_levels = st.sampled_from([0, 1, 2])
backends = st.sampled_from(["*", "interp", "compiled"])

SRC = """
def main(argc: i64, argv: ptr_ptr) -> i64:
    buf = malloc_i64(16)
    for i in dgpu.parallel_range(16):
        buf[i] = i + 1
    return buf[7]
"""


@settings(max_examples=30, deadline=None)
@given(source_hashes, opt_levels, backends)
def test_single_input_mutation_moves_the_key(src, opt, backend):
    cache = ExecutableCache()
    base = cache.key_for(src, opt_level=opt, backend=backend).digest()
    assert (
        cache.key_for(src + "0", opt_level=opt, backend=backend).digest()
        != base
    )
    assert (
        cache.key_for(src, opt_level=(opt + 1) % 3, backend=backend).digest()
        != base
    )
    other = "interp" if backend != "interp" else "compiled"
    assert (
        cache.key_for(src, opt_level=opt, backend=other).digest() != base
    )


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
    def _build(self, cache_dir):
        cache = ExecutableCache(cache_dir)
        entry = cache.get_or_build(Program.from_source(SRC), opt_level=2)
        certs = entry.safety  # fill the analysis box
        assert certs and all(
            isinstance(c, SafetyCertificate) for c in certs.values()
        )
        cache._store_disk(entry.digest, entry)  # persist the filled box
        return cache, entry

    def test_certificates_roundtrip_via_disk(self):
        with tempfile.TemporaryDirectory() as d:
            _, built = self._build(d)
            loaded = ExecutableCache(d).get_or_build(
                Program.from_source(SRC), opt_level=2
            )
            assert loaded.tier == "disk"
            assert loaded.box.safety is not None
            assert {k: c.counts() for k, c in loaded.safety.items()} == {
                k: c.counts() for k, c in built.safety.items()
            }

    def test_stale_certificate_version_is_rebuilt_not_served(self):
        with tempfile.TemporaryDirectory() as d:
            cache, entry = self._build(d)

            def clobber(data):
                for cert in data["safety"].values():
                    cert.analyzer_version = ANALYZER_VERSION + 41
                for cert in data["module"].metadata.get(
                    safety.SAFETY_META, {}
                ).values():
                    cert.analyzer_version = ANALYZER_VERSION + 41

            _rewrite_entry(cache._path(entry.digest), clobber)
            loaded = ExecutableCache(d).get_or_build(
                Program.from_source(SRC), opt_level=2
            )
            assert loaded.tier == "disk"
            assert loaded.box.safety is None  # the stale copy was dropped
            rebuilt = loaded.safety  # lazily re-analyzed on demand
            assert all(
                c.analyzer_version == ANALYZER_VERSION
                for c in rebuilt.values()
            )

    def test_garbage_certificate_payload_is_rebuilt_not_served(self):
        with tempfile.TemporaryDirectory() as d:
            cache, entry = self._build(d)
            _rewrite_entry(
                cache._path(entry.digest),
                lambda data: data.update(safety={"k": "not a certificate"}),
            )
            loaded = ExecutableCache(d).get_or_build(
                Program.from_source(SRC), opt_level=2
            )
            assert loaded.box.safety is None
            assert all(
                isinstance(c, SafetyCertificate)
                for c in loaded.safety.values()
            )
