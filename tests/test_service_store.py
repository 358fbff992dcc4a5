"""The content-addressed artifact store and its hashing contract."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.service import ArtifactKey, ArtifactStore
from repro.session import CompileConfig, source_key

SOURCE = """
class P { var v; def init(v) { this.v = v; } }
def main() { var p = new P(7); print(p.v); }
"""


def _key(kind="optimize", source=SOURCE, config=None, extra=""):
    return ArtifactKey.for_request(kind, source, config or CompileConfig(), extra)


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
        store.put(key, {"reply": 42})
        assert store.get(key) == {"reply": 42}
        assert (store.hits, store.misses) == (1, 0)
        assert store.hit_rate == 1.0

    def test_miss_counts(self):
        store = ArtifactStore(max_entries=4)
        assert store.get(_key()) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_entry_cap_evicts_least_recent(self):
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put(a, 1)
        store.put(b, 2)
        store.put(c, 3)  # a is the oldest -> evicted
        assert a not in store and b in store and c in store
        assert store.evictions == 1

    def test_get_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put(a, 1)
        store.put(b, 2)
        assert store.get(a) == 1  # a is now the most recent
        store.put(c, 3)  # so b is evicted instead
        assert a in store and b not in store and c in store

    def test_byte_cap_evicts(self):
        store = ArtifactStore(max_entries=64, max_bytes=200)
        keys = [_key(kind=f"k{i}") for i in range(8)]
        for key in keys:
            store.put_bytes(key, b"x" * 64)
        assert len(store) < 8
        assert store.evictions >= 1
        assert store.stats()["bytes"] <= 200 + 64  # one entry always kept

    def test_overwrite_replaces_without_double_count(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put_bytes(key, b"x" * 100)
        store.put_bytes(key, b"y" * 10)
        assert len(store) == 1
        assert store.stats()["bytes"] == 10

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ArtifactStore(max_entries=0)


class TestCorruption:
    def test_corrupt_blob_is_a_miss_not_a_crash(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put_bytes(key, b"this is not a pickle")
        assert store.get(key) is None
        assert (store.hits, store.misses, store.corrupt) == (0, 1, 1)
        # The damaged entry is gone: the next put repopulates cleanly.
        assert key not in store
        store.put(key, "fresh")
        assert store.get(key) == "fresh"

    def test_truncated_pickle_is_a_miss(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put_bytes(key, pickle.dumps({"big": list(range(100))})[:7])
        assert store.get(key) is None
        assert store.corrupt == 1

    def test_stats_shape(self):
        store = ArtifactStore(max_entries=4)
        stats = store.stats()
        assert set(stats) == {
            "entries", "bytes", "max_entries", "max_bytes",
            "hits", "misses", "reply_bytes_hits", "hit_rate",
            "evictions", "corrupt",
        }


class TestReplyBytes:
    def test_hit_serves_bytes_and_counts_once(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put_bytes(key, pickle.dumps({"reply": 1}), reply_bytes=b'{"x":1}')
        assert store.get_reply_bytes(key) == b'{"x":1}'
        assert (store.hits, store.misses, store.reply_bytes_hits) == (1, 0, 1)

    def test_absent_entry_probes_without_counting_a_miss(self):
        # The caller falls back to get(), which does the counting — a
        # warm-path probe must not double-book the outcome.
        store = ArtifactStore(max_entries=4)
        assert store.get_reply_bytes(_key()) is None
        assert (store.hits, store.misses, store.reply_bytes_hits) == (0, 0, 0)

    def test_entry_without_bytes_probes_without_counting(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put(key, {"reply": 1})  # no reply_bytes (pre-upgrade producer)
        assert store.get_reply_bytes(key) is None
        assert (store.hits, store.misses, store.reply_bytes_hits) == (0, 0, 0)
        assert store.get(key) == {"reply": 1}
        assert store.hits == 1

    def test_reply_bytes_count_toward_the_byte_cap(self):
        store = ArtifactStore(max_entries=4)
        key = _key()
        store.put_bytes(key, b"x" * 10, reply_bytes=b"y" * 30)
        assert store.stats()["bytes"] == 40
        store.put_bytes(key, b"x" * 10)  # overwrite drops the reply bytes
        assert store.stats()["bytes"] == 10

    def test_hit_refreshes_recency(self):
        store = ArtifactStore(max_entries=2)
        a, b, c = _key(kind="a"), _key(kind="b"), _key(kind="c")
        store.put_bytes(a, b"1", reply_bytes=b"ra")
        store.put_bytes(b, b"2", reply_bytes=b"rb")
        assert store.get_reply_bytes(a) == b"ra"
        store.put_bytes(c, b"3")  # b is now the oldest -> evicted
        assert a in store and b not in store
