"""Method and object contours (§3.2.1 of the paper).

A *method contour* is the unit of context sensitivity: one abstract
execution environment of a callable, discriminated by properties of its
arguments.  An *object contour* abstracts the objects created by one
``new`` (or ``array``) site under one creating method contour — the
paper's *creator* sensitivity.

Contours are created on demand: a call site asks the
:class:`ContourManager` for the contour matching its argument signature
and gets a fresh one the first time.  Two sensitivity levels mirror the
paper's two configurations:

- ``concert`` (the baseline used for the "without inlining" runs of
  Figures 16/17): argument signatures use class names, the receiver uses
  object-contour ids (the paper's creator sensitivity for ``self``).
- ``inlining``: additionally discriminates every argument by object
  contour ids *and* by its field-origin tag set.  Keying on the exact tag
  tuple constructively guarantees the paper's call-confluence rule
  (``Tags(Arg(c1,i)) ⊆ Tags(Arg(c2,i))`` within a contour) and realizes
  the splits of Figures 8 and 9.

Explosion control: per-callable and per-site caps.  When a cap is hit the
manager widens to a single *summary* contour for that callable/site and
records the widening; the inlining decision later disqualifies any
candidate field whose analysis touched widened state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .values import AbstractVal, BOTTOM, join

SENSITIVITY_CONCERT = "concert"
SENSITIVITY_INLINING = "inlining"


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Knobs for the flow analysis."""

    sensitivity: str = SENSITIVITY_INLINING
    max_method_contours_per_callable: int = 64
    max_object_contours_per_site: int = 32
    max_local_passes: int = 30
    max_worklist_steps: int = 600_000
    #: Local passes after the first re-run only instructions whose input
    #: registers changed, and fact recording replays one sweep over each
    #: contour's cached fixpoint registers.  ``False`` runs every pass in
    #: full and re-derives the registers before recording: the
    #: from-scratch reference the differential tests compare against.
    incremental: bool = True

    def with_sensitivity(self, sensitivity: str) -> "AnalysisConfig":
        return replace(self, sensitivity=sensitivity)


@dataclass(slots=True)
class MethodContour:
    """One analysis context of a callable."""

    id: int
    callable_name: str
    key: object  # signature the contour was created for ('SUMMARY' when widened)
    arg_values: list[AbstractVal]
    ret: AbstractVal = BOTTOM
    #: (caller contour id, call-site uid) pairs that read this contour's return.
    callers: set = field(default_factory=set)
    summary: bool = False
    #: Set by the engine's GC when no live call edge reaches the contour.
    #: Retired contours keep their identity (a later call with the same
    #: signature revives them — id stability keeps the fixpoint monotone)
    #: but do not count against the widening caps.
    retired: bool = False

    def join_args(self, args: list[AbstractVal]) -> bool:
        """Join ``args`` into the contour; True if anything grew."""
        grew = False
        for index, value in enumerate(args):
            merged = join(self.arg_values[index], value)
            if merged != self.arg_values[index]:
                self.arg_values[index] = merged
                grew = True
        return grew


@dataclass(slots=True)
class ObjectContour:
    """Objects created by one allocation site in one creator contour."""

    id: int
    class_name: str  # '@array' for arrays
    site_uid: int
    creator_id: int | None  # None for summary contours
    is_array: bool = False
    summary: bool = False

    @property
    def describes_arrays(self) -> bool:
        return self.is_array


ARRAY_CLASS = "@array"


class ContourManager:
    """Owns all contours; hands them out on demand with widening caps."""

    def __init__(self, config: AnalysisConfig) -> None:
        self.config = config
        self.method_contours: dict[int, MethodContour] = {}
        self.object_contours: dict[int, ObjectContour] = {}
        self._next_id = 1
        self._method_by_key: dict[object, int] = {}
        self._object_by_key: dict[object, int] = {}
        self.contours_of_callable: dict[str, list[int]] = {}
        self.contours_of_site: dict[int, list[int]] = {}
        #: Callables widened to a summary contour.
        self.widened_callables: set[str] = set()
        #: Allocation-site uids widened to a summary object contour.
        self.widened_sites: set[int] = set()
        #: Lifetime creation counts (splits included), for observability;
        #: unlike ``method_contour_count()`` these never shrink under GC.
        self.created_method_contours = 0
        self.created_object_contours = 0
        #: Set by the analysis engine: collects stale (unreachable) method
        #: contours so they stop counting against the caps.  Called right
        #: before a cap would force widening.
        self.gc_hook = None
        #: Set by the analysis engine: called as ``widen_hook(summary,
        #: dependents)`` when widening folds existing contours into a fresh
        #: summary, so the engine can re-enqueue the contours that saw the
        #: narrower pre-summary state.
        self.widen_hook = None

    def remove_method_contour(self, contour_id: int) -> None:
        """Drop a stale contour entirely (final post-fixpoint pruning only;
        mid-analysis GC uses ``retired`` so contour ids stay stable)."""
        contour = self.method_contours.pop(contour_id, None)
        if contour is None:
            return
        self._method_by_key.pop(contour.key, None)
        ids = self.contours_of_callable.get(contour.callable_name)
        if ids and contour_id in ids:
            ids.remove(contour_id)

    def _live_callable_count(self, callable_name: str) -> int:
        ids = self.contours_of_callable.get(callable_name, [])
        return sum(1 for i in ids if not self.method_contours[i].retired)

    def _live_site_count(self, site_uid: int) -> int:
        """Object contours of a site whose creator contour is still live.

        Contours created under since-retired method contours are garbage;
        they must not push a site into widening.
        """
        count = 0
        for contour_id in self.contours_of_site.get(site_uid, []):
            contour = self.object_contours[contour_id]
            if contour.creator_id is None:
                count += 1
                continue
            creator = self.method_contours.get(contour.creator_id)
            if creator is not None and not creator.retired:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Signatures.

    def _arg_signature(self, value: AbstractVal, is_receiver: bool) -> object:
        if self.config.sensitivity == SENSITIVITY_INLINING:
            return (value.atoms, value.tags)
        # Baseline: class names for arguments, contour ids for the receiver.
        if is_receiver:
            return value.atoms
        names = frozenset(
            self.object_contours[a].class_name if isinstance(a, int) else a
            for a in value.atoms
        )
        return names

    def method_key(
        self, callable_name: str, args: list[AbstractVal], is_method: bool
    ) -> object:
        signature = tuple(
            self._arg_signature(value, is_method and index == 0)
            for index, value in enumerate(args)
        )
        return (callable_name, signature)

    # ------------------------------------------------------------------
    # Method contours.

    def get_method_contour(
        self, callable_name: str, args: list[AbstractVal], is_method: bool
    ) -> tuple[MethodContour, bool]:
        """Find or create the contour for this call; returns (contour, created)."""
        existing_ids = self.contours_of_callable.setdefault(callable_name, [])
        if callable_name in self.widened_callables:
            summary_id = self._method_by_key.get((callable_name, "SUMMARY"))
            if summary_id is None:
                # The summary was garbage-collected while unreachable;
                # recreate it (the callable stays widened).
                return self._widen_callable(callable_name, len(args)), True
            return self.method_contours[summary_id], False

        key = self.method_key(callable_name, args, is_method)
        contour_id = self._method_by_key.get(key)
        if contour_id is not None:
            contour = self.method_contours[contour_id]
            contour.retired = False  # revived by a live call edge
            return contour, False

        if len(existing_ids) >= self.config.max_method_contours_per_callable:
            if self.gc_hook is not None:
                self.gc_hook()
            if (
                self._live_callable_count(callable_name)
                >= self.config.max_method_contours_per_callable
            ):
                return self._widen_callable(callable_name, len(args)), True

        contour = MethodContour(
            id=self._next_id,
            callable_name=callable_name,
            key=key,
            arg_values=[BOTTOM] * len(args),
        )
        self._next_id += 1
        self.created_method_contours += 1
        self.method_contours[contour.id] = contour
        self._method_by_key[key] = contour.id
        existing_ids.append(contour.id)
        return contour, True

    def _widen_callable(self, callable_name: str, num_args: int) -> MethodContour:
        """Collapse a callable to one summary contour (cap exceeded)."""
        self.widened_callables.add(callable_name)
        key = (callable_name, "SUMMARY")
        contour_id = self._method_by_key.get(key)
        if contour_id is not None:
            return self.method_contours[contour_id]
        contour = MethodContour(
            id=self._next_id,
            callable_name=callable_name,
            key=key,
            arg_values=[BOTTOM] * num_args,
            summary=True,
        )
        self._next_id += 1
        self.method_contours[contour.id] = contour
        self._method_by_key[key] = contour.id
        self.contours_of_callable[callable_name].append(contour.id)
        # Fold every existing contour's knowledge into the summary so the
        # widened result stays an over-approximation.
        for existing_id in self.contours_of_callable[callable_name]:
            existing = self.method_contours[existing_id]
            if existing.id == contour.id:
                continue
            contour.join_args(existing.arg_values)
            contour.ret = join(contour.ret, existing.ret)
            contour.callers |= existing.callers
        if self.widen_hook is not None:
            self.widen_hook(contour, set(contour.callers))
        return contour

    # ------------------------------------------------------------------
    # Object contours.

    def get_object_contour(
        self,
        class_name: str,
        site_uid: int,
        creator_id: int,
        is_array: bool = False,
    ) -> tuple[ObjectContour, bool]:
        site_ids = self.contours_of_site.setdefault(site_uid, [])
        if site_uid in self.widened_sites:
            return self.object_contours[self._object_by_key[(site_uid, None)]], False

        key = (site_uid, creator_id)
        contour_id = self._object_by_key.get(key)
        if contour_id is not None:
            return self.object_contours[contour_id], False

        if len(site_ids) >= self.config.max_object_contours_per_site:
            if self.gc_hook is not None:
                self.gc_hook()
            if self._live_site_count(site_uid) >= self.config.max_object_contours_per_site:
                return self._widen_site(class_name, site_uid, is_array), True

        contour = ObjectContour(
            id=self._next_id,
            class_name=class_name,
            site_uid=site_uid,
            creator_id=creator_id,
            is_array=is_array,
        )
        self._next_id += 1
        self.created_object_contours += 1
        self.object_contours[contour.id] = contour
        self._object_by_key[key] = contour.id
        site_ids.append(contour.id)
        return contour, True

    def _widen_site(self, class_name: str, site_uid: int, is_array: bool) -> ObjectContour:
        self.widened_sites.add(site_uid)
        key = (site_uid, None)
        contour_id = self._object_by_key.get(key)
        if contour_id is not None:
            return self.object_contours[contour_id]
        contour = ObjectContour(
            id=self._next_id,
            class_name=class_name,
            site_uid=site_uid,
            creator_id=None,
            is_array=is_array,
            summary=True,
        )
        self._next_id += 1
        self.object_contours[contour.id] = contour
        self._object_by_key[key] = contour.id
        self.contours_of_site[site_uid].append(contour.id)
        if self.widen_hook is not None:
            creators = {
                self.object_contours[cid].creator_id
                for cid in self.contours_of_site[site_uid]
                if self.object_contours[cid].creator_id is not None
            }
            self.widen_hook(contour, creators)
        return contour

    # ------------------------------------------------------------------
    # Metrics (Figure 16).

    def method_contour_count(self) -> int:
        return len(self.method_contours)

    def object_contour_count(self) -> int:
        return len(self.object_contours)

    def reached_callables(self) -> set[str]:
        return {c.callable_name for c in self.method_contours.values()}

    def contours_per_method(self) -> float:
        """Average number of method contours per reached callable."""
        reached = self.reached_callables()
        if not reached:
            return 0.0
        return len(self.method_contours) / len(reached)
