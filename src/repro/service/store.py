"""The content-addressed compiled-artifact store.

Every artifact the compile service produces is addressed by **what was
compiled**, never by who asked: the key is ``(kind, source_key,
config_key)`` where ``source_key`` is the SHA-256 of the program text
(:func:`repro.session.source_key`) and ``config_key`` is the canonical
content hash of the :class:`repro.session.CompileConfig`
(:meth:`~repro.session.CompileConfig.content_key`, a sha256 of its
canonical JSON).  Two clients sending the same program with
the same config therefore share one artifact, across connections and
across time.

Values are stored **pickled**: a worker process pickles the artifact
blob once (optimized IR + analysis summary + the exact reply payload),
the daemon keeps the bytes, and a warm hit unpickles the same bytes
every time — which is what makes cache-hit replies bit-identical to the
cold compile that populated the entry.  A corrupt entry (truncated or
garbage bytes) is treated as a **miss**: the entry is discarded,
``service_store_corrupt_total`` ticks, and the caller recompiles — the
store never takes the daemon down.

Bounds and counters: entries are LRU-evicted past ``max_entries`` (and
``max_bytes``, when set).  Every lookup outcome, put and eviction is
counted once, in the store's :class:`~repro.obs.metrics.MetricsRegistry`
(the daemon's own, or a fresh one for a standalone store) as the
``service_store_*`` families; the ``metrics`` op, ``repro metrics`` and
the loadgen report all read them from there.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from ..session import CompileConfig, source_key


@dataclass(frozen=True, slots=True)
class ArtifactKey:
    """One content address: what operation, which source, which config."""

    kind: str  # "optimize" | "analyze" | "run" | ...
    source_key: str
    config_key: str

    @classmethod
    def for_request(
        cls, kind: str, source: str, config: CompileConfig, extra: str = ""
    ) -> "ArtifactKey":
        """The address of (``kind``, ``source``, ``config``).

        ``extra`` folds request facets that change the answer but live
        outside the config (e.g. the build name of a ``run``) into the
        config half of the address.
        """
        key = config.content_key()
        if extra:
            key = f"{key}:{extra}"
        return cls(kind=kind, source_key=source_key(source), config_key=key)


class ArtifactStore:
    """Content-addressed, LRU-bounded map of pickled artifacts.

    ``metrics`` is the registry the store counts in; ``None`` builds a
    private one, readable as :attr:`metrics`.
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        # Pre-bound label children: the hot path is one dict update, no
        # kwargs allocation.
        hits = metrics.counter(
            "service_store_hits_total", "Artifact-store hits", labels=("path",)
        )
        self._m_hit_artifact = hits.labels(path="artifact")
        self._m_hit_reply_bytes = hits.labels(path="reply_bytes")
        self._m_miss = metrics.counter(
            "service_store_misses_total", "Artifact-store misses"
        )
        self._m_evict = metrics.counter(
            "service_store_evictions_total", "Artifact-store LRU evictions"
        )
        self._m_corrupt = metrics.counter(
            "service_store_corrupt_total", "Corrupt cache entries discarded"
        )
        self._m_put = metrics.counter(
            "service_store_puts_total", "Artifacts stored"
        )
        self._m_entries = metrics.gauge(
            "service_store_entries", "Live artifact-store entries"
        )
        self._m_bytes = metrics.gauge(
            "service_store_bytes", "Artifact-store resident bytes"
        )
        self._m_artifact_bytes = metrics.histogram(
            "service_artifact_bytes",
            "Stored artifact blob size",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        #: key -> (pickled blob, canonical encoded reply bytes or None).
        self._entries: OrderedDict[ArtifactKey, tuple[bytes, bytes | None]] = (
            OrderedDict()
        )
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    # Lookup / insert.

    def get_reply_bytes(self, key: ArtifactKey) -> bytes | None:
        """The canonical encoded reply bytes, or ``None``.

        A present entry without reply bytes (a pre-upgrade producer, or
        an op whose reply is uncacheable) returns ``None`` *without*
        counting a miss — the caller falls back to :meth:`get` and that
        lookup does the counting.  A hit counts under
        ``path="reply_bytes"``, so the scrape shows how many warm replies
        skipped the unpickle + re-encode entirely.
        """
        entry = self._entries.get(key)
        if entry is None or entry[1] is None:
            return None
        self._m_hit_reply_bytes.inc()
        self._entries.move_to_end(key)
        return entry[1]

    def get(self, key: ArtifactKey) -> object | None:
        """The unpickled artifact (LRU-refreshing), or ``None`` on miss.

        The lookup is counted once, after the unpickle.  A blob that
        fails to unpickle is **discarded and counted as a miss** (plus
        ``corrupt``): a damaged cache entry must never be worse than no
        cache entry.
        """
        entry = self._entries.get(key)
        if entry is not None:
            try:
                artifact = pickle.loads(entry[0])
            except Exception:
                self._m_corrupt.inc()
                self._drop(key)
            else:
                self._m_hit_artifact.inc()
                self._entries.move_to_end(key)
                return artifact
        self._m_miss.inc()
        return None

    def put(self, key: ArtifactKey, value: object) -> bytes:
        """Pickle ``value`` and store it; returns the stored bytes."""
        return self.put_bytes(key, pickle.dumps(value))

    def put_bytes(
        self, key: ArtifactKey, blob: bytes, reply_bytes: bytes | None = None
    ) -> bytes:
        """Store an already-pickled blob (what workers ship back).

        ``reply_bytes`` is the reply payload in its canonical wire
        encoding; when given, warm hits can serve it via
        :meth:`get_reply_bytes` without touching the pickle.
        """
        if key in self._entries:
            self._drop(key)
        self._entries[key] = (blob, reply_bytes)
        self._total_bytes += self._entry_bytes((blob, reply_bytes))
        self._m_put.inc()
        self._m_artifact_bytes.observe(len(blob))
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None
            and self._total_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            evicted_key, evicted = self._entries.popitem(last=False)
            self._total_bytes -= self._entry_bytes(evicted)
            self._m_evict.inc()
            if evicted_key == key:
                break
        self._update_size_gauges()
        return blob

    @staticmethod
    def _entry_bytes(entry: tuple[bytes, bytes | None]) -> int:
        blob, reply_bytes = entry
        return len(blob) + (len(reply_bytes) if reply_bytes is not None else 0)

    def _drop(self, key: ArtifactKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._total_bytes -= self._entry_bytes(entry)
            self._update_size_gauges()

    def clear(self) -> None:
        self._entries.clear()
        self._total_bytes = 0
        self._update_size_gauges()

    def _update_size_gauges(self) -> None:
        self._m_entries.set(len(self._entries))
        self._m_bytes.set(self._total_bytes)
