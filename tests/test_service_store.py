"""The content-addressed reply store and its hashing contract."""

import os
import subprocess
import sys

import pytest

import repro
from repro.obs.metrics import digest
from repro.service import ArtifactKey, ArtifactStore
from repro.session import CompileConfig, source_key

SOURCE = """
class P { var v; def init(v) { this.v = v; } }
def main() { var p = new P(7); print(p.v); }
"""


def _key(kind="optimize", source=SOURCE, config=None, extra=""):
    return ArtifactKey.for_request(kind, source, config or CompileConfig(), extra)


def _value(store, family, **labels):
    """One family of the store's registry: its labeled series, or the sum."""
    instrument = store.metrics.families[family]
    return instrument.labels(**labels).value if labels else instrument.value


def _lookups(store):
    """(hits, misses) as the registry's digest reads them."""
    d = digest(store.metrics.to_dict())
    return d.cache_hits, d.cache_misses


class TestAddressing:
    def test_same_request_same_key(self):
        assert _key() == _key()

    def test_kind_source_config_all_discriminate(self):
        base = _key()
        assert _key(kind="analyze") != base
        assert _key(source=SOURCE + "\n// changed") != base
        assert _key(config=CompileConfig(inline=False)) != base

    def test_run_build_facet_lands_in_config_half(self):
        plain = _key(kind="run")
        assert _key(kind="run", extra="inline") != plain
        assert _key(kind="run", extra="inline") == _key(kind="run", extra="inline")

    def test_key_ignores_who_asked(self):
        # No tenant, connection, or request id in the address: two
        # clients sending the same compile share one artifact.
        fields = {f for f in ArtifactKey.__dataclass_fields__}
        assert fields == {"kind", "source_key", "config_key"}

    def test_config_key_matches_session_memo_key(self):
        # One canonical hashing scheme across the store and Session
        # memoization.
        config = CompileConfig(inline=False, max_rounds=2)
        assert _key(config=config).config_key == config.content_key()

    def test_hash_stable_across_processes(self):
        """The address must not depend on PYTHONHASHSEED or process state."""
        script = (
            "from repro.service import ArtifactKey\n"
            "from repro.session import CompileConfig\n"
            "import sys\n"
            "key = ArtifactKey.for_request('optimize', sys.stdin.read(), CompileConfig())\n"
            "print(key.source_key, key.config_key)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONHASHSEED"] = "12345"
        child = subprocess.run(
            [sys.executable, "-c", script],
            input=SOURCE,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        ours = _key()
        assert child.stdout.split() == [ours.source_key, ours.config_key]

    def test_source_key_is_text_hash(self):
        assert source_key(SOURCE) == source_key(SOURCE)
        assert source_key(SOURCE) != source_key(SOURCE + " ")
        assert len(source_key(SOURCE)) == 16


class TestLRU:
    def test_roundtrip(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put(key, b'{"x":1}')
        assert store.get(key) == b'{"x":1}'
        assert _lookups(store) == (1, 0)
        assert digest(store.metrics.to_dict()).hit_rate == 1.0
        assert _value(store, "service_store_entries") == 1
        assert _value(store, "service_store_bytes") == len(b'{"x":1}')

    def test_miss_counts(self):
        store = ArtifactStore(max_entries=4)
        assert store.get(_key()) is None
        assert _lookups(store) == (0, 1)

    def test_entry_cap_evicts_least_recent(self):
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put(a, b"1")
        store.put(b, b"22")
        store.put(c, b"333")  # a is the oldest -> evicted
        assert a not in store and b in store and c in store
        assert _value(store, "service_store_evictions_total") == 1
        assert _value(store, "service_store_entries") == 2
        assert _value(store, "service_store_bytes") == 5

    def test_get_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put(a, b"1")
        store.put(b, b"2")
        assert store.get(a) == b"1"  # a is now the most recent
        store.put(c, b"3")  # so b is evicted instead
        assert a in store and b not in store and c in store

    def test_overwrite_replaces_without_double_count(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put(key, b"x" * 100)
        store.put(key, b"y" * 10)
        assert len(store) == 1
        assert store.get(key) == b"y" * 10
        assert _value(store, "service_store_bytes") == 10
        assert _value(store, "service_store_evictions_total") == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_entries=0)


class TestReplyBytes:
    def test_hit_serves_bytes_and_counts_once(self):
        # The daemon splices the served bytes into its response as they
        # are, so a hit hands back the very object that was stored.
        store = ArtifactStore(max_entries=4)
        key = _key()
        reply = b'{"ok":true,"x":1}'
        store.put(key, reply)
        assert store.get(key) is reply
        assert _lookups(store) == (1, 0)
        series = store.metrics.to_dict()["service_store_hits_total"]["series"]
        assert series == [{"labels": {}, "value": 1}]

    def test_reply_bytes_count_toward_the_byte_cap(self):
        # max_entries is the store's only bound; service_store_bytes is
        # how its size is read, so every resident reply counts in full,
        # an overwrite replaces its old length and an eviction drops it.
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put(a, b"y" * 30)
        store.put(b, b"z" * 12)
        assert _value(store, "service_store_bytes") == 42
        store.put(a, b"y" * 50)  # a longer reply under the same key
        assert _value(store, "service_store_bytes") == 62
        store.put(c, b"w" * 5)  # b is the oldest -> evicted
        assert b not in store
        assert _value(store, "service_store_bytes") == 55

    def test_hit_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put(a, b"ra")
        store.put(b, b"rbb")
        assert store.get(a) == b"ra"
        store.put(c, b"rcccc")  # b is now the oldest -> evicted
        assert a in store and b not in store
        assert store.get(b) is None
        assert _lookups(store) == (1, 1)
        assert _value(store, "service_store_bytes") == len(b"ra") + len(b"rcccc")
