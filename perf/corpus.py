"""The benchmark's inputs and the reference data they are checked against.

Every input is source text: the five Figure-17 programs, and programs
from the seeded generator :func:`repro.fuzz.gen.generate_source`.  The
generated corpora draw from a fixed pool of generator seeds,
``range(POOL_SIZE)`` minus the seeds ``expected/pool.json`` excludes:
those whose programs a ``compile`` operation failed on when
``expected/`` was recorded (compiler bugs, listed with their errors).
Excluding them keeps every run measuring instead of failing on a known
bug; a new failure on a pool program is a regression and is counted.

Draws leave out the costliest 1% of the pool and are stratified by
compile cost (each program's optimize time over the five builds,
measured once when recording and kept in ``pool.json``): the pool is
cut into equal slices by cost and a corpus takes one program per slice
in turn.  Every seed thus gets other programs with the same cost
distribution, so a metric's spread across seeds measures the system,
not the luck of the draw.

A corpus is a pure function of ``(name, seed)``.  ``expected/corpus.sha256``
freezes the seed-0 corpora and the whole pool; :func:`check_frozen`
refuses to benchmark when the generator (or a Figure-17 source) has
drifted, because the numbers would then describe other inputs.
Regenerating ``expected/`` (``bench.py --record``) is a change to the
benchmark, not to the program.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
EXPECTED_FIG17 = EXPECTED_DIR / "fig17.json"
POOL = EXPECTED_DIR / "pool.json"
CORPUS_HASHES = EXPECTED_DIR / "corpus.sha256"

#: Builds of the Figure-17 workload (the paper's two Concert bars).
FIG17_BUILDS = ("noinline", "inline")

#: Generator seeds the generated corpora are drawn from.
POOL_SIZE = 4000
#: Draws skip the costliest 1% of the pool: their compile times spread
#: over a factor of two, so whichever one a seed drew would set the
#: ``compile`` tail.  richards stays in that workload as its heavy program.
COST_CUTOFF = 0.99
#: Generated programs in the ``compile`` workload (plus richards).
COMPILE_PROGRAMS = 120
#: Generated hot sources of the service workloads (plus the Figure-17 five).
HOT_GENERATED = 11
#: Cold sources of ``service-mixed`` made during set-up; a run that
#: needs more continues the same stream.
COLD_PREGENERATED = 256
#: Cost slices of the cold stream: every 32 cold requests span them all.
COLD_STRATA = 32


def fig17_sources() -> dict[str, str]:
    """The Figure-17 programs, name -> source (polyover split by variant)."""
    from repro.bench.harness import PERFORMANCE_PROGRAMS

    return dict(PERFORMANCE_PROGRAMS)


def pool_costs() -> dict[int, float]:
    """Generator seed -> recorded compile time (ms) of its program."""
    costs = json.loads(POOL.read_text(encoding="utf-8"))["compile_ms"]
    return {seed: cost for seed, cost in enumerate(costs) if cost is not None}


def drawn(name: str, seed: int, strata: int) -> list[int]:
    """Pool seeds in the order corpus ``name`` draws them at ``seed``:
    rounds of one seed from each of ``strata`` cost slices, so the first
    ``k * strata`` seeds have the pool's cost distribution.

    ``random.Random`` seeded with a string hashes it with SHA-512, so the
    order does not depend on ``PYTHONHASHSEED``.
    """
    costs = pool_costs()
    ordered = sorted(costs, key=lambda s: (costs[s], s))
    ordered = ordered[: int(len(ordered) * COST_CUTOFF)]
    rng = random.Random(f"{name}:{seed}")
    slices = [ordered[i * len(ordered) // strata:(i + 1) * len(ordered) // strata]
              for i in range(strata)]
    for slice_ in slices:
        rng.shuffle(slice_)
    seeds = []
    for round_ in range(min(map(len, slices))):
        order = list(range(strata))
        rng.shuffle(order)
        seeds.extend(slices[i][round_] for i in order)
    return seeds


def generated(name: str, seed: int, count: int) -> list[str]:
    from repro.fuzz.gen import generate_source

    return [generate_source(s) for s in drawn(name, seed, count)[:count]]


def compile_sources(seed: int) -> dict[str, str]:
    """richards plus ``COMPILE_PROGRAMS`` generated programs."""
    sources = {"richards": fig17_sources()["richards"]}
    for index, source in enumerate(generated("compile", seed, COMPILE_PROGRAMS)):
        sources[f"gen{index:03d}"] = source
    return sources


def hot_sources(seed: int) -> list[str]:
    """The 16 sources the service workloads keep hot."""
    return list(fig17_sources().values()) + generated("service-hot", seed, HOT_GENERATED)


def cold_stream(seed: int):
    """Endless stream of generated sources outside the hot set.  It
    cycles through the pool; by the time a source comes round again the
    daemon's store has long evicted it."""
    from repro.fuzz.gen import generate_source

    hot = set(drawn("service-hot", seed, HOT_GENERATED)[:HOT_GENERATED])
    cold = [s for s in drawn("service-cold", seed, COLD_STRATA) if s not in hot]
    return (generate_source(s) for s in itertools.cycle(cold))


def corpora(seed: int) -> dict[str, list[str]]:
    """Every corpus a run at ``seed`` draws from (the cold one truncated
    to its set-up part)."""
    return {
        "fig17": list(fig17_sources().values()),
        "compile": list(compile_sources(seed).values()),
        "service-hot": hot_sources(seed),
        "service-cold": list(itertools.islice(cold_stream(seed), COLD_PREGENERATED)),
    }


def digest(sources: list[str]) -> str:
    hasher = hashlib.sha256()
    for source in sources:
        hasher.update(source.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


def frozen_digests() -> dict[str, str]:
    """What ``expected/corpus.sha256`` holds: the seed-0 corpora and the
    whole generator pool, excluded seeds included."""
    from repro.fuzz.gen import generate_source

    digests = {name: digest(sources) for name, sources in corpora(0).items()}
    digests["pool"] = digest([generate_source(s) for s in range(POOL_SIZE)])
    return digests


def check_frozen() -> list[str]:
    """Names of the corpora whose hash differs from the frozen one."""
    frozen = {}
    for line in CORPUS_HASHES.read_text(encoding="utf-8").splitlines():
        if line.strip():
            value, name = line.split()
            frozen[name] = value
    actual = frozen_digests()
    return sorted(
        name for name in frozen.keys() | actual.keys() if frozen.get(name) != actual.get(name)
    )


def load_expected() -> dict:
    return json.loads(EXPECTED_FIG17.read_text(encoding="utf-8"))
