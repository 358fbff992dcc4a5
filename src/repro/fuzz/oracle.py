"""Differential oracle over the build matrix.

One fuzz iteration compiles a generated program under every build
configuration and runs each on the instrumented VM.  The **plain**
build (compiled, unoptimized) is the reference semantics; every
optimized build must agree with it bit for bit on printed output, and
must additionally satisfy the optimizer's own promises:

- **output** — identical ``print`` stream across all builds;
- **allocations** — an optimizing build never heap-allocates *more*
  than the plain build (inlining and escape promotion only remove
  heap traffic, never add it);
- **frame balance** — the frame region ends a run at depth one (the
  entry activation's region), i.e. every ``push_frame`` was popped;
- **no crashes** — no build raises ``HeapError``, a validation error,
  or any unexpected exception the plain build does not raise.

A violation becomes a :class:`Divergence`.  Divergences are bucketed by
a **triage key** — ``kind:build:normalized-detail`` with digit runs
collapsed to ``#`` — so a thousand seeds tripping one compiler bug
produce one bucket, not a thousand reports.  When a corpus directory is
given, the first few offending programs per bucket are archived as
replayable ``.icc`` sources with a ``.json`` sidecar.

The oracle can additionally round-trip every program through a live
compile daemon (``service=True``) and compare the daemon's run replies
against the in-process results, which exercises the whole
protocol/worker/cache stack with adversarial inputs.

Resource-limit aborts on the *reference* build (a generated program
that is simply too hot for the step or heap budget, or that recurses
past the VM's call-depth budget) are **explained skips**, not
divergences: the generator aims for terminating programs, but the
oracle does not trust it — the budget is the backstop.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field

from ..runtime import HeapError, ResourceLimitError
from ..session import BUILD_CONFIGS, Session
from .gen import GenConfig, generate_source

#: The builds every fuzzed program is checked under.  ``plain`` is the
#: reference; the rest must agree with it.
FUZZ_BUILDS: tuple[str, ...] = tuple(BUILD_CONFIGS)

#: Step budget for the reference run; optimized builds get a multiple
#: (inlining can trade instructions for locality, never orders of
#: magnitude more steps).
DEFAULT_MAX_STEPS = 2_000_000
_OPT_BUDGET_FACTOR = 4

#: How many offending programs to archive per triage bucket.
_CORPUS_CAP_PER_BUCKET = 5

_DIGITS = re.compile(r"\d+")
_HEX = re.compile(r"0x[0-9a-fA-F]+")


def _normalize_detail(detail: str) -> str:
    """Collapse run-specific noise so one bug yields one triage key."""
    detail = detail.splitlines()[0] if detail else ""
    detail = _HEX.sub("0x#", detail)
    detail = _DIGITS.sub("#", detail)
    return detail[:160]


@dataclass(frozen=True, slots=True)
class Divergence:
    """One oracle violation on one (seed, build)."""

    seed: int
    kind: str  # frontend | optimize-error | runtime-error | heap-error |
    #            output-mismatch | alloc-regression | frame-imbalance |
    #            service-error | service-mismatch
    build: str
    detail: str
    source: str

    @property
    def triage_key(self) -> str:
        return f"{self.kind}:{self.build}:{_normalize_detail(self.detail)}"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "kind": self.kind,
            "build": self.build,
            "detail": self.detail,
            "triage_key": self.triage_key,
        }


@dataclass(slots=True)
class CheckResult:
    """The oracle's verdict on one generated program."""

    seed: int
    divergences: list[Divergence] = field(default_factory=list)
    skipped: str | None = None

    @property
    def clean(self) -> bool:
        return not self.divergences and self.skipped is None


def check_program(
    source: str,
    *,
    seed: int = -1,
    builds: tuple[str, ...] = FUZZ_BUILDS,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_heap_cells: int | None = None,
    client=None,
) -> CheckResult:
    """Run the differential oracle on one program.

    ``client`` (a connected :class:`~repro.service.client.ServiceClient`)
    additionally replays every build through the daemon and compares its
    run replies to the in-process outputs.
    """
    result = CheckResult(seed=seed)

    def diverge(kind: str, build: str, detail: str = "") -> None:
        result.divergences.append(
            Divergence(seed=seed, kind=kind, build=build, detail=detail, source=source)
        )

    try:
        session = Session(source, path=f"<fuzz:{seed}>")
        session.compile()  # sessions are lazy: parse and lower here
    except Exception as exc:  # parse/lower errors on generated code
        diverge("frontend", "-", f"{type(exc).__name__}: {exc}")
        return result

    budgets = {"max_steps": max_steps, "max_heap_cells": max_heap_cells}

    # Reference semantics first; a program too hot for the budget is an
    # explained skip, not a finding.
    try:
        base = session.run("plain", **budgets)
    except ResourceLimitError as exc:
        result.skipped = f"{type(exc).__name__}: {exc}"
        return result
    except HeapError as exc:
        diverge("heap-error", "plain", f"{type(exc).__name__}: {exc}")
        return result
    except Exception as exc:
        diverge("runtime-error", "plain", f"{type(exc).__name__}: {exc}")
        return result
    if base.heap.frame_depth != 1:
        diverge("frame-imbalance", "plain", f"depth={base.heap.frame_depth}")

    opt_budgets = {
        "max_steps": max_steps * _OPT_BUDGET_FACTOR,
        "max_heap_cells": max_heap_cells,
    }
    outputs: dict[str, list[str]] = {"plain": base.output}
    for build in builds:
        if build == "plain":
            continue
        try:
            program = session.program_for(build)
        except Exception as exc:
            diverge("optimize-error", build, f"{type(exc).__name__}: {exc}")
            continue
        del program
        try:
            run = session.run(build, **opt_budgets)
        except HeapError as exc:
            diverge("heap-error", build, f"{type(exc).__name__}: {exc}")
            continue
        except Exception as exc:  # includes ResourceLimitError: the 4x
            # budget means an optimized build that blows it diverged.
            diverge("runtime-error", build, f"{type(exc).__name__}: {exc}")
            continue
        outputs[build] = run.output
        if run.output != base.output:
            diverge(
                "output-mismatch",
                build,
                _first_difference(base.output, run.output),
            )
        if run.stats.allocations > base.stats.allocations:
            diverge(
                "alloc-regression",
                build,
                f"{run.stats.allocations} > base {base.stats.allocations}",
            )
        if run.heap.frame_depth != 1:
            diverge("frame-imbalance", build, f"depth={run.heap.frame_depth}")

    if client is not None:
        _check_service(source, seed, builds, outputs, budgets, client, diverge)
    return result


def _first_difference(expected: list[str], got: list[str]) -> str:
    for index, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return f"line {index}: {a!r} != {b!r}"
    return f"length {len(expected)} != {len(got)}"


def _check_service(source, seed, builds, outputs, budgets, client, diverge) -> None:
    """Replay every successfully-run build through the daemon."""
    for build, expected in outputs.items():
        if build not in builds:
            continue
        try:
            response = client.request(
                "run",
                source=source,
                path=f"<fuzz:{seed}>",
                build=build,
                max_steps=budgets["max_steps"] * _OPT_BUDGET_FACTOR,
                max_heap_cells=budgets["max_heap_cells"],
            )
        except Exception as exc:
            diverge("service-error", build, f"{type(exc).__name__}: {exc}")
            continue
        if not response.ok:
            diverge("service-error", build, response.error or "error reply")
            continue
        got = response.result.get("output") if isinstance(response.result, dict) else None
        if got != expected:
            diverge(
                "service-mismatch",
                build,
                _first_difference(expected, got if isinstance(got, list) else []),
            )


@dataclass(slots=True)
class FuzzReport:
    """The aggregate outcome of one fuzzing run."""

    seeds_run: int = 0
    clean: int = 0
    skipped: int = 0
    elapsed: float = 0.0
    divergences: list[Divergence] = field(default_factory=list)
    #: triage_key -> occurrence count across all seeds.
    buckets: dict[str, int] = field(default_factory=dict)
    #: triage_key -> representative seeds (first few).
    examples: dict[str, list[int]] = field(default_factory=dict)
    archived: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seeds_run": self.seeds_run,
            "clean": self.clean,
            "skipped": self.skipped,
            "elapsed_s": round(self.elapsed, 3),
            "ok": self.ok,
            "archived": self.archived,
            "buckets": [
                {
                    "triage_key": key,
                    "count": count,
                    "example_seeds": self.examples.get(key, []),
                }
                for key, count in sorted(
                    self.buckets.items(), key=lambda kv: -kv[1]
                )
            ],
            "divergences": [d.to_dict() for d in self.divergences[:200]],
        }

    def render(self) -> str:
        lines = [
            f"fuzz: {self.seeds_run} seeds, {self.clean} clean, "
            f"{self.skipped} skipped (resource budget), "
            f"{len(self.divergences)} divergences in {len(self.buckets)} "
            f"buckets, {self.elapsed:.1f}s"
        ]
        for key, count in sorted(self.buckets.items(), key=lambda kv: -kv[1]):
            seeds = ", ".join(str(s) for s in self.examples.get(key, [])[:5])
            lines.append(f"  {count:5d}x {key}  (seeds: {seeds})")
        if self.ok:
            lines.append("  no divergences")
        return "\n".join(lines)


def _bucket_slug(key: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", key)[:80] or "bucket"


def run_fuzz(
    *,
    seeds: int = 100,
    start_seed: int = 0,
    time_budget: float | None = None,
    corpus_dir: str | None = None,
    gen_config: GenConfig | None = None,
    builds: tuple[str, ...] = FUZZ_BUILDS,
    max_steps: int = DEFAULT_MAX_STEPS,
    max_heap_cells: int | None = None,
    client=None,
    progress=None,
) -> FuzzReport:
    """Fuzz ``seeds`` programs (or until ``time_budget`` seconds elapse).

    ``corpus_dir`` archives up to a handful of offending programs per
    triage bucket as ``<bucket>/<seed>.icc`` plus a ``.json`` sidecar
    holding the divergence records, replayable with
    ``repro fuzz --replay`` or simply ``repro run``.
    """
    report = FuzzReport()
    started = time.monotonic()
    for seed in range(start_seed, start_seed + seeds):
        if time_budget is not None and time.monotonic() - started >= time_budget:
            break
        source = generate_source(seed, gen_config)
        result = check_program(
            source,
            seed=seed,
            builds=builds,
            max_steps=max_steps,
            max_heap_cells=max_heap_cells,
            client=client,
        )
        report.seeds_run += 1
        if result.skipped is not None:
            report.skipped += 1
        elif not result.divergences:
            report.clean += 1
        for divergence in result.divergences:
            report.divergences.append(divergence)
            key = divergence.triage_key
            report.buckets[key] = report.buckets.get(key, 0) + 1
            seen = report.examples.setdefault(key, [])
            if len(seen) < _CORPUS_CAP_PER_BUCKET:
                seen.append(seed)
                if corpus_dir is not None:
                    _archive(corpus_dir, divergence)
                    report.archived += 1
        if progress is not None:
            progress(seed, result)
    report.elapsed = time.monotonic() - started
    return report


def _archive(corpus_dir: str, divergence: Divergence) -> None:
    import os

    bucket = os.path.join(corpus_dir, _bucket_slug(divergence.triage_key))
    os.makedirs(bucket, exist_ok=True)
    stem = os.path.join(bucket, f"seed{divergence.seed}")
    with open(stem + ".icc", "w", encoding="utf-8") as handle:
        handle.write(divergence.source)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(divergence.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
