"""Fault injection for the compile service (chaos testing).

A :class:`FaultPlan` describes, as independent per-request probabilities,
the ways a worker can misbehave:

- ``error_rate`` — the worker raises :class:`InjectedFault` mid-request
  (the daemon turns it into a clean error reply).
- ``hang_rate`` — the worker sleeps ``hang_seconds`` before answering
  (long enough to trip the per-request timeout when configured so).
- ``crash_rate`` — the worker process dies via ``os._exit`` (exercises
  the pool-rebuild + requeue path).

The plan is threaded **daemon -> task dict -> worker** (never read from
the environment inside the worker), so in-process calls to
``service_work`` — the loadgen verify oracle, tests — are never
accidentally fault-injected.  ``FaultPlan.from_env`` exists for the CLI:
``REPRO_FAULT_PLAN='{"error_rate": 0.05}' repro serve ...``.  A plan
naming a field :class:`FaultPlan` does not have is rejected, never
silently dropped: a misspelt kind would otherwise serve with no chaos.

Draws are deterministic per ``(plan seed, pid, request counter)`` so a
chaos run is reproducible given a single worker process.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass

#: Environment variable the CLI/daemon consult at startup.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class InjectedFault(RuntimeError):
    """A deliberately injected worker failure (chaos mode)."""


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Per-request fault probabilities (all independent, in [0, 1])."""

    error_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 2.0
    crash_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("error_rate", "hang_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")

    @property
    def active(self) -> bool:
        return any((self.error_rate, self.hang_rate, self.crash_rate))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict | None) -> "FaultPlan":
        if not payload:
            return cls()
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown fault-plan field(s): {', '.join(unknown)}")
        return cls(**payload)

    @classmethod
    def from_env(cls, environ: dict | None = None) -> "FaultPlan":
        """The plan in ``$REPRO_FAULT_PLAN`` (JSON), or an inactive one."""
        raw = (environ if environ is not None else os.environ).get(FAULT_PLAN_ENV)
        if not raw:
            return cls()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"{FAULT_PLAN_ENV} is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"{FAULT_PLAN_ENV} must be a JSON object")
        return cls.from_dict(payload)


#: "none" | "error" | "hang" | "crash"
def draw(plan: FaultPlan, rng: random.Random) -> str:
    """One fault decision; independent uniform draw per category."""
    if rng.random() < plan.crash_rate:
        return "crash"
    if rng.random() < plan.error_rate:
        return "error"
    if rng.random() < plan.hang_rate:
        return "hang"
    return "none"
