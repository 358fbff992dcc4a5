"""Simulated heap.

Objects and arrays live at real (simulated) addresses handed out by a bump
allocator, so that field and element accesses produce a realistic address
trace for the cache simulator.  Slot size is 8 bytes; objects carry an
8-byte header, arrays a 16-byte header.

Inline arrays use the parallel-array layout the paper describes for OOPACK:
field ``j`` of element ``i`` lives at ``base + header + (j*n + i) * 8``,
so iterating one field across elements is unit-stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .values import ArrayRef, ObjectRef, Value, ViewRef

SLOT_SIZE = 8
OBJECT_HEADER = 8
ARRAY_HEADER = 16
#: Heap allocations model a real allocator: an 8-byte malloc header per
#: block and bin rounding to 16 bytes.  Stack allocations skip both.
MALLOC_HEADER = 8
MALLOC_ALIGN = 16


class HeapError(Exception):
    """Raised on invalid heap accesses (VM-level type errors)."""


@dataclass(slots=True)
class _ObjectRecord:
    class_name: str
    layout: tuple[str, ...]  # field order, inherited first
    slots: list[Value]
    #: Source position of the allocating instruction; only populated when
    #: the interpreter runs with locality attribution enabled.
    alloc_site: str | None = None

    def slot_index(self, field_name: str) -> int:
        try:
            return self.layout.index(field_name)
        except ValueError:
            raise HeapError(
                f"object of class {self.class_name!r} has no field {field_name!r}"
            ) from None


@dataclass(slots=True)
class _ArrayRecord:
    length: int
    inline_layout: str | None
    inline_fields: tuple[str, ...]  # element class layout for inline arrays
    parallel: bool  # SoA (field-major) if True, AoS (element-major) if False
    slots: list[Value]
    #: See :attr:`_ObjectRecord.alloc_site`.
    alloc_site: str | None = None
    #: Declared element class (analysis-proven, reference arrays only);
    #: sharpens locality labels from ``<array>`` to ``Cls[]``.
    elem_class: str | None = None


@dataclass(slots=True)
class HeapStats:
    """Allocation statistics, queried by the cost model and benchmarks."""

    objects_allocated: int = 0
    arrays_allocated: int = 0
    bytes_allocated: int = 0
    allocations_by_class: dict[str, int] = field(default_factory=dict)


class Heap:
    """Bump-allocated simulated heap holding objects and arrays."""

    #: Base of the simulated stack region, far from the heap so frame
    #: temporaries do not dilute heap locality.  The region only grows:
    #: stack-like objects produced by the inlining transformation may be
    #: copied by value into containers that outlive the allocating frame.
    STACK_BASE = 1 << 40
    #: Base of the *frame* region for escape-proven allocations.  Unlike
    #: ``STACK_BASE`` it is a real stack: :meth:`push_frame` /
    #: :meth:`pop_frame` bracket each activation, the bump pointer rewinds
    #: on pop, and popped records are deleted — a dangling reference (which
    #: the escape analysis must make impossible) fails loudly instead of
    #: silently reading stale state.
    FRAME_BASE = 1 << 41

    def __init__(self, base_address: int = 0x10000) -> None:
        self._next_address = base_address
        self._next_stack_address = self.STACK_BASE
        self._next_frame_address = self.FRAME_BASE
        #: Addresses allocated by each open frame; the outermost list is a
        #: root region for frame allocations made outside any bracket.
        self._frame_allocs: list[list[int]] = [[]]
        #: Address -> record.  The interpreter's decoded accessors read
        #: these directly on their fast paths and fall back to the
        #: methods below for every error case.
        self.objects: dict[int, _ObjectRecord] = {}
        self.arrays: dict[int, _ArrayRecord] = {}
        self.stats = HeapStats()

    # ------------------------------------------------------------------
    # Frame region.

    def push_frame(self) -> int:
        """Open a frame; returns the marker to hand back to pop_frame."""
        self._frame_allocs.append([])
        return self._next_frame_address

    def pop_frame(self, marker: int) -> None:
        """Reclaim every frame allocation made since the matching push."""
        for address in self._frame_allocs.pop():
            self.objects.pop(address, None)
        self._next_frame_address = marker

    @property
    def frame_depth(self) -> int:
        """Open frame regions including the root region.

        A balanced run ends at depth 1: every ``push_frame`` saw its
        matching ``pop_frame``.  The fuzz oracle asserts this on every
        build's final heap.
        """
        return len(self._frame_allocs)

    # ------------------------------------------------------------------
    # Allocation.

    def _bump(self, size: int, on_stack: bool = False) -> int:
        if on_stack:
            aligned = (size + SLOT_SIZE - 1) // SLOT_SIZE * SLOT_SIZE
            address = self._next_stack_address
            self._next_stack_address += aligned
            return address
        block = size + MALLOC_HEADER
        aligned = (block + MALLOC_ALIGN - 1) // MALLOC_ALIGN * MALLOC_ALIGN
        address = self._next_address + MALLOC_HEADER
        self._next_address += aligned
        return address

    def _bump_frame(self, size: int) -> int:
        aligned = (size + SLOT_SIZE - 1) // SLOT_SIZE * SLOT_SIZE
        address = self._next_frame_address
        self._next_frame_address += aligned
        self._frame_allocs[-1].append(address)
        return address

    def alloc_object(
        self,
        class_name: str,
        layout: tuple[str, ...],
        on_stack: bool = False,
        alloc_site: str | None = None,
        frame_local: bool = False,
    ) -> ObjectRef:
        size = OBJECT_HEADER + len(layout) * SLOT_SIZE
        if frame_local:
            address = self._bump_frame(size)
        else:
            address = self._bump(size, on_stack)
        self.objects[address] = _ObjectRecord(
            class_name=class_name,
            layout=layout,
            slots=[None] * len(layout),
            alloc_site=alloc_site,
        )
        self.stats.objects_allocated += 1
        self.stats.bytes_allocated += size
        by_class = self.stats.allocations_by_class
        by_class[class_name] = by_class.get(class_name, 0) + 1
        return ObjectRef(address, class_name)

    def alloc_array(
        self,
        length: int,
        inline_layout: str | None = None,
        inline_fields: tuple[str, ...] = (),
        parallel: bool = False,
        alloc_site: str | None = None,
        elem_class: str | None = None,
    ) -> ArrayRef:
        if length < 0:
            raise HeapError(f"negative array length {length}")
        slots_per_elem = len(inline_fields) if inline_layout else 1
        size = ARRAY_HEADER + length * slots_per_elem * SLOT_SIZE
        address = self._bump(size)
        self.arrays[address] = _ArrayRecord(
            length=length,
            inline_layout=inline_layout,
            inline_fields=inline_fields,
            parallel=parallel,
            slots=[None] * (length * slots_per_elem),
            alloc_site=alloc_site,
            elem_class=elem_class,
        )
        self.stats.arrays_allocated += 1
        self.stats.bytes_allocated += size
        return ArrayRef(address, length, inline_layout)

    # ------------------------------------------------------------------
    # Object access.  Each accessor returns (value-or-None, address) so the
    # interpreter can feed the address to the cache simulator.

    def _object(self, ref: ObjectRef) -> _ObjectRecord:
        record = self.objects.get(ref.address)
        if record is None:
            raise HeapError(f"dangling object reference {ref!r}")
        return record

    def field_address(self, ref: ObjectRef, field_name: str) -> int:
        record = self._object(ref)
        return ref.address + OBJECT_HEADER + record.slot_index(field_name) * SLOT_SIZE

    def read_field(self, ref: ObjectRef, field_name: str) -> tuple[Value, int]:
        record = self._object(ref)
        index = record.slot_index(field_name)
        return record.slots[index], ref.address + OBJECT_HEADER + index * SLOT_SIZE

    def write_field(self, ref: ObjectRef, field_name: str, value: Value) -> int:
        record = self._object(ref)
        index = record.slot_index(field_name)
        record.slots[index] = value
        return ref.address + OBJECT_HEADER + index * SLOT_SIZE

    def read_field_indexed(
        self, ref: ObjectRef, base_field: str, length: int, offset: int
    ) -> tuple[Value, int]:
        record = self._object(ref)
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise HeapError(f"indexed field offset must be an int, got {offset!r}")
        if not (0 <= offset < length):
            raise HeapError(f"indexed field offset {offset} out of range [0, {length})")
        index = record.slot_index(base_field) + offset
        if index >= len(record.slots):
            raise HeapError(f"indexed field slot {index} beyond object layout")
        return record.slots[index], ref.address + OBJECT_HEADER + index * SLOT_SIZE

    def write_field_indexed(
        self, ref: ObjectRef, base_field: str, length: int, offset: int, value: Value
    ) -> int:
        record = self._object(ref)
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise HeapError(f"indexed field offset must be an int, got {offset!r}")
        if not (0 <= offset < length):
            raise HeapError(f"indexed field offset {offset} out of range [0, {length})")
        index = record.slot_index(base_field) + offset
        if index >= len(record.slots):
            raise HeapError(f"indexed field slot {index} beyond object layout")
        record.slots[index] = value
        return ref.address + OBJECT_HEADER + index * SLOT_SIZE

    def object_layout(self, ref: ObjectRef) -> tuple[str, ...]:
        return self._object(ref).layout

    def site_of(self, ref: Value) -> str | None:
        """The allocation site recorded for ``ref``'s backing block.

        Views resolve to their underlying inline array.  Returns ``None``
        for non-heap values, dangling references, or allocations made
        without attribution enabled.
        """
        if isinstance(ref, ObjectRef):
            record = self.objects.get(ref.address)
        elif isinstance(ref, ArrayRef):
            record = self.arrays.get(ref.address)
        elif isinstance(ref, ViewRef):
            record = self.arrays.get(ref.array.address)
        else:
            return None
        return record.alloc_site if record is not None else None

    def elem_class_of(self, ref: Value) -> str | None:
        """The declared element class of an array, if one was recorded."""
        if isinstance(ref, ArrayRef):
            record = self.arrays.get(ref.address)
            return record.elem_class if record is not None else None
        return None

    # ------------------------------------------------------------------
    # Array access.

    def _array(self, ref: ArrayRef) -> _ArrayRecord:
        record = self.arrays.get(ref.address)
        if record is None:
            raise HeapError(f"dangling array reference {ref!r}")
        return record

    def _check_index(self, record: _ArrayRecord, index: int) -> None:
        if not isinstance(index, int) or isinstance(index, bool):
            raise HeapError(f"array index must be an int, got {index!r}")
        if not (0 <= index < record.length):
            raise HeapError(f"array index {index} out of range [0, {record.length})")

    def read_element(self, ref: ArrayRef, index: int) -> tuple[Value, int]:
        record = self._array(ref)
        self._check_index(record, index)
        if record.inline_layout is not None:
            raise HeapError("read_element on inline array; use element views")
        return record.slots[index], ref.address + ARRAY_HEADER + index * SLOT_SIZE

    def write_element(self, ref: ArrayRef, index: int, value: Value) -> int:
        record = self._array(ref)
        self._check_index(record, index)
        if record.inline_layout is not None:
            raise HeapError("write_element on inline array; use element views")
        record.slots[index] = value
        return ref.address + ARRAY_HEADER + index * SLOT_SIZE

    # -- inline (parallel-array) element state --------------------------

    def _inline_slot(self, record: _ArrayRecord, index: int, field_name: str) -> int:
        try:
            field_index = record.inline_fields.index(field_name)
        except ValueError:
            raise HeapError(
                f"inline array of {record.inline_layout!r} has no field {field_name!r}"
            ) from None
        if record.parallel:
            return field_index * record.length + index
        return index * len(record.inline_fields) + field_index

    def read_inline_field(
        self, ref: ArrayRef, index: int, field_name: str
    ) -> tuple[Value, int]:
        record = self._array(ref)
        self._check_index(record, index)
        slot = self._inline_slot(record, index, field_name)
        return record.slots[slot], ref.address + ARRAY_HEADER + slot * SLOT_SIZE

    def write_inline_field(
        self, ref: ArrayRef, index: int, field_name: str, value: Value
    ) -> int:
        record = self._array(ref)
        self._check_index(record, index)
        slot = self._inline_slot(record, index, field_name)
        record.slots[slot] = value
        return ref.address + ARRAY_HEADER + slot * SLOT_SIZE

    def array_length(self, ref: ArrayRef) -> int:
        return self._array(ref).length

    @property
    def high_water_mark(self) -> int:
        """Total bytes handed out so far."""
        return self._next_address
