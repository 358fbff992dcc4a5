"""The content-addressed reply store.

Every reply the compile service produces is addressed by **what was
compiled**, never by who asked: the key is ``(kind, source_key,
config_key)`` where ``source_key`` is the SHA-256 of the program text
(:func:`repro.session.source_key`) and ``config_key`` is the canonical
content hash of the :class:`repro.session.CompileConfig`
(:meth:`~repro.session.CompileConfig.content_key`, a sha256 of its
canonical JSON).  Two clients sending the same program with
the same config therefore share one entry, across connections and
across time.

The value is the reply in its canonical wire encoding (sorted keys, no
whitespace): the daemon encodes a cold reply once, stores those bytes,
and splices the same bytes into every later response for the address —
which is what makes cache-hit replies bit-identical to the cold compile
that populated the entry.

Bounds and counters: entries are LRU-evicted past ``max_entries``.
Every lookup outcome, put and eviction is counted once, in the store's
:class:`~repro.obs.metrics.MetricsRegistry` (the daemon's own, or a
fresh one for a standalone store) as the ``service_store_*`` families;
the ``metrics`` op, ``repro metrics`` and the loadgen report all read
them from there.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry
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
    """Content-addressed, LRU-bounded map of canonical reply bytes.

    ``metrics`` is the registry the store counts in; ``None`` builds a
    private one, readable as :attr:`metrics`.
    """

    def __init__(
        self, max_entries: int = 256, metrics: MetricsRegistry | None = None
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_hit = metrics.counter("service_store_hits_total", "Artifact-store hits")
        self._m_miss = metrics.counter(
            "service_store_misses_total", "Artifact-store misses"
        )
        self._m_evict = metrics.counter(
            "service_store_evictions_total", "Artifact-store LRU evictions"
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
        self._entries: OrderedDict[ArtifactKey, bytes] = OrderedDict()
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self._entries

    def get(self, key: ArtifactKey) -> bytes | None:
        """The stored reply bytes (LRU-refreshing), or ``None`` on miss."""
        reply_bytes = self._entries.get(key)
        if reply_bytes is None:
            self._m_miss.inc()
            return None
        self._m_hit.inc()
        self._entries.move_to_end(key)
        return reply_bytes

    def put(self, key: ArtifactKey, reply_bytes: bytes) -> None:
        """Store ``reply_bytes`` under ``key``, evicting past ``max_entries``."""
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._total_bytes -= len(previous)
        self._entries[key] = reply_bytes
        self._total_bytes += len(reply_bytes)
        self._m_put.inc()
        if len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self._total_bytes -= len(evicted)
            self._m_evict.inc()
        self._m_entries.set(len(self._entries))
        self._m_bytes.set(self._total_bytes)
