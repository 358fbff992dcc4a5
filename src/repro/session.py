"""The unified compile API.

:class:`Session` is the front door of the package: it owns the source
text, the analysis configuration, and the tracer, threads them through
every phase exactly once, and caches intermediate artifacts — the
compiled IR, analysis results (via a shared
:class:`~repro.analysis.AnalysisCache`), and one
:class:`~repro.inlining.pipeline.OptimizeReport` per distinct
:class:`CompileConfig`::

    from repro import CompileConfig, Session

    session = Session(SOURCE)
    program = session.compile()          # parse + lower once
    result = session.analyze()           # flow analysis of the raw IR
    report = session.optimize()          # object inlining ON (cached)
    run = session.run("inline")          # execute the inlined build

    session.optimize(CompileConfig(inline=False))   # devirtualize-only
    session.run()                        # run the unoptimized program

Repeated calls are free: ``compile`` parses once, ``optimize`` memoizes
per config content hash, and ``analyze``/``optimize`` share analysis
results for identical (program, config) pairs, so ``session.analyze()``
followed by ``session.optimize()`` runs the (expensive) fixpoint once.

:class:`CompileConfig` is the **canonical, immutable description of one
build**: the pipeline switches plus the analysis knobs, with one
canonical JSON serialization (:meth:`CompileConfig.to_dict`) and a
content hash of it (:meth:`CompileConfig.content_key`).  The service's
artifact store (:mod:`repro.service.store`) addresses compiled
artifacts by ``(source_key, CompileConfig.content_key())`` — one
hashing scheme everywhere.

:class:`SessionPool` manages one session per (tenant, source) with LRU
bounds and a per-tenant child tracer lane — the long-lived form of the
API the compile service daemon (:mod:`repro.service`) is built on.
Code that wants no caching uses the primitives underneath
(:func:`repro.ir.compile_source`, :func:`repro.analysis.analyze`,
:func:`repro.inlining.pipeline.optimize`,
:func:`repro.runtime.run_program`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

from .analysis import AnalysisCache, AnalysisConfig, AnalysisResult
from .analysis import analyze as _analyze
from .inlining.pipeline import OptimizeReport
from .inlining.pipeline import optimize as _optimize
from .ir import compile_source as _compile_source
from .ir import format_program
from .ir.model import IRProgram
from .obs import NULL_METRICS, NULL_TRACER
from .runtime import CacheConfig, RunResult
from .runtime import run_program as _run_program


def source_key(source: str) -> str:
    """Content hash of a source program (stable across processes).

    The other half of the artifact-store address: an artifact is
    identified by ``(source_key(source), config.content_key())``.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, slots=True)
class CompileConfig:
    """One immutable, content-hashable build configuration.

    Pipeline switches mirror :func:`repro.inlining.pipeline.optimize`;
    ``analysis`` carries the :class:`~repro.analysis.AnalysisConfig`
    knobs (``None`` means "the session's config, or the defaults").

    Instances are frozen so one object can safely key both session memo
    tables and the service artifact store; both use
    :meth:`content_key`, so there is exactly one canonical
    serialization of "what was compiled".
    """

    inline: bool = True
    devirtualize: bool = True
    manual_only: bool = False
    inline_methods_pass: bool = True
    escape_pass: bool = True
    cache_loads_pass: bool = True
    dce_pass: bool = True
    max_rounds: int = 1
    analysis: AnalysisConfig | None = None

    @classmethod
    def for_build(cls, build: str, analysis: AnalysisConfig | None = None) -> "CompileConfig":
        """The named build configurations (``BUILD_CONFIGS``) as configs.

        ``"plain"`` has no pipeline at all and therefore no config;
        asking for it is an error — use :meth:`Session.compile`.
        """
        config = BUILD_CONFIGS[build]
        if config is None:
            raise ValueError(f"build {build!r} is the unoptimized program; it has no CompileConfig")
        if analysis is not None:
            config = dataclasses.replace(config, analysis=analysis)
        return config

    def resolved(self, analysis: AnalysisConfig | None = None) -> "CompileConfig":
        """This config with the analysis knobs made explicit."""
        if self.analysis is not None:
            return self
        return dataclasses.replace(self, analysis=analysis or AnalysisConfig())

    def pipeline_options(self) -> dict:
        """The keyword arguments for the underlying pipeline call."""
        options = dataclasses.asdict(self)
        options.pop("analysis")
        return options

    def to_dict(self) -> dict:
        """The canonical JSON-serializable form (hashed as-is)."""
        payload = dataclasses.asdict(self)
        payload["analysis"] = (
            dataclasses.asdict(self.analysis) if self.analysis is not None else None
        )
        return payload

    def content_key(self) -> str:
        """Content hash: the first 16 hex digits of the sha256 of
        :meth:`to_dict` as canonical JSON (sorted keys, no spaces)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: ``Session.run``/``program_for`` build names -> :class:`CompileConfig`.
#: ``"plain"`` is the unoptimized compiled program (no config).
BUILD_CONFIGS: dict[str, CompileConfig | None] = {
    "plain": None,
    "noinline": CompileConfig(inline=False),
    "inline": CompileConfig(inline=True),
    "noescape": CompileConfig(inline=True, escape_pass=False),
    "manual": CompileConfig(manual_only=True),
    "opt": CompileConfig(inline=True, max_rounds=3),
}


class Session:
    """One source program moving through the compile pipeline.

    Exactly one of ``source`` (mini-ICC++ text) or ``program`` (an
    already-lowered :class:`IRProgram`) must be given.  ``config`` and
    ``tracer`` are threaded through every subsequent phase.
    """

    def __init__(
        self,
        source: str | None = None,
        *,
        program: IRProgram | None = None,
        path: str = "<session>",
        config: AnalysisConfig | None = None,
        tracer=NULL_TRACER,
    ) -> None:
        if (source is None) == (program is None):
            raise ValueError("Session needs exactly one of `source` or `program`")
        self._source = source
        self._path = path
        self._program = program
        self.config = config
        self.tracer = tracer
        #: Shared analysis memo: ``analyze()``, every ``optimize()`` build,
        #: and the pipeline's nested rounds all draw from this cache.
        self.analysis_cache = AnalysisCache()
        self._analysis: AnalysisResult | None = None
        self._reports: dict[str, OptimizeReport] = {}

    # ------------------------------------------------------------------
    # Identity.

    def source_key(self) -> str:
        """Content hash of this session's program.

        Source-backed sessions hash the source text (stable across
        processes); program-backed sessions hash the printed IR, which
        is stable for one compile but may embed process-local uids.
        """
        if self._source is not None:
            return source_key(self._source)
        return source_key(format_program(self.compile()))

    # ------------------------------------------------------------------
    # Pipeline phases.

    def compile(self) -> IRProgram:
        """Parse + lower the source to IR (cached)."""
        if self._program is None:
            self._program = _compile_source(self._source, self._path)
        return self._program

    def analyze(self, tracer=None) -> AnalysisResult:
        """Flow-analyze the compiled program (cached).

        ``tracer`` overrides the session tracer for this call — used by
        concurrent drivers (the bench harness, the service worker) that
        give every work unit its own tracer and merge them at join.  A
        memoized result is returned as-is: no phase re-runs, so nothing
        new is traced.
        """
        if self._analysis is None:
            program = self.compile()
            config = self.config or AnalysisConfig()
            result = self.analysis_cache.get(program, config)
            if result is None:
                result = _analyze(
                    program, config, self.tracer if tracer is None else tracer
                )
                self.analysis_cache.put(program, config, result)
            self._analysis = result
        return self._analysis

    def optimize(
        self,
        config: CompileConfig | None = None,
        *,
        tracer=None,
        metrics=None,
    ) -> OptimizeReport:
        """Run the inlining pipeline; one cached report per config.

        The build is described by a :class:`CompileConfig` (default:
        object inlining on), the same object the artifact store hashes;
        reports are memoized by :meth:`CompileConfig.content_key`.  The
        analysis knobs come from ``config.analysis``, falling back to the
        session's ``AnalysisConfig``.  ``tracer`` overrides the session
        tracer for this call (see :meth:`analyze` — memoized reports are
        returned without re-tracing).  ``metrics`` (a
        :class:`repro.obs.metrics.MetricsRegistry`) receives per-stage
        pipeline observations for this call; like the tracer, a memoized
        report records nothing new.
        """
        resolved = (config or CompileConfig()).resolved(self.config)
        key = resolved.content_key()
        report = self._reports.get(key)
        if report is None:
            report = _optimize(
                self.compile(),
                config=resolved.analysis,
                tracer=self.tracer if tracer is None else tracer,
                metrics=NULL_METRICS if metrics is None else metrics,
                analysis_cache=self.analysis_cache,
                **resolved.pipeline_options(),
            )
            self._reports[key] = report
        return report

    def program_for(self, build: str = "plain") -> IRProgram:
        """The program of one named build configuration.

        ``"plain"`` (compiled, unoptimized), ``"noinline"``
        (devirtualization only), ``"inline"`` (object inlining),
        ``"noescape"`` (object inlining with the escape stage disabled),
        or ``"manual"`` (manually annotated inlining only).
        """
        config = BUILD_CONFIGS[build]
        if config is None:
            return self.compile()
        return self.optimize(config).program

    def run(
        self,
        build: str = "plain",
        cache_config: CacheConfig | None = None,
        tracer=None,
        **run_options,
    ) -> RunResult:
        """Execute one build on the instrumented VM.

        ``tracer`` overrides the session tracer for this run only.
        """
        return _run_program(
            self.program_for(build),
            cache_config,
            tracer=self.tracer if tracer is None else tracer,
            **run_options,
        )


class SessionPool:
    """A bounded pool of sessions keyed by (tenant, source).

    The long-lived face of the API: a daemon (or any concurrent driver)
    asks the pool for *the* session of a source program and gets the
    same warm object back on every repeat — compiled IR, analysis
    fixpoint, and per-config reports all already in place.

    - **Per-tenant tracing** — each tenant gets its own
      :meth:`Tracer.child` lane, created on first use; session-level
      events of different tenants never interleave.  :meth:`close`
      merges every lane back into the parent tracer.
    - **LRU bounds** — at most ``max_sessions`` live sessions; the least
      recently used is evicted when a new one would exceed the bound.
      ``hits``/``misses``/``evictions`` count pool traffic.
    """

    def __init__(
        self,
        *,
        config: AnalysisConfig | None = None,
        tracer=NULL_TRACER,
        max_sessions: int = 64,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.config = config
        self.tracer = tracer
        self.max_sessions = max_sessions
        self._sessions: OrderedDict[tuple[str, str], Session] = OrderedDict()
        self._tenant_tracers: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._closed = False

    def __len__(self) -> int:
        return len(self._sessions)

    def tracer_for(self, tenant: str):
        """The tenant's tracer lane (a :meth:`Tracer.child`, cached)."""
        lane = self._tenant_tracers.get(tenant)
        if lane is None:
            lane = self.tracer.child()
            self._tenant_tracers[tenant] = lane
        return lane

    def session(
        self, source: str, *, tenant: str = "default", path: str | None = None
    ) -> Session:
        """The pooled session of ``source`` for ``tenant`` (LRU)."""
        key = (tenant, source_key(source))
        session = self._sessions.get(key)
        if session is not None:
            self.hits += 1
            self._sessions.move_to_end(key)
            return session
        self.misses += 1
        session = Session(
            source,
            path=path or f"<{tenant}:{key[1]}>",
            config=self.config,
            tracer=self.tracer_for(tenant),
        )
        self._sessions[key] = session
        while len(self._sessions) > self.max_sessions:
            self._sessions.popitem(last=False)
            self.evictions += 1
        return session

    def stats(self) -> dict:
        """Pool counters (JSON-serializable, for the service stats op)."""
        return {
            "sessions": len(self._sessions),
            "tenants": len(self._tenant_tracers),
            "max_sessions": self.max_sessions,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        """Merge every tenant lane into the parent tracer (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.tracer.enabled:
            for lane in self._tenant_tracers.values():
                self.tracer.merge(lane)
        self._tenant_tracers.clear()
        self._sessions.clear()
