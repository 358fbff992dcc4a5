"""Runtime value representations for the VM.

Primitive values are the host Python natives (``int``, ``float``, ``bool``,
``str``, ``None``).  Heap values are explicit handles carrying the simulated
heap address so the cache simulator sees realistic memory traffic:

- :class:`ObjectRef` — a reference to a heap object (uniform model).
- :class:`ArrayRef` — a reference to an array.  Plain arrays hold element
  references; *inline arrays* (created by the transformation) hold object
  state directly in parallel-array layout.
- :class:`ViewRef` — a fat pointer ``(array, index)`` to one inline array
  element, produced by :class:`repro.ir.model.MakeView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter


@dataclass(frozen=True, slots=True)
class ObjectRef:
    """Handle to a heap-allocated object."""

    address: int
    class_name: str

    def __repr__(self) -> str:
        return f"<{self.class_name}@{self.address:#x}>"


@dataclass(frozen=True, slots=True)
class ArrayRef:
    """Handle to a heap-allocated array.

    ``inline_layout`` names the element class for inline arrays, or is
    ``None`` for ordinary reference arrays.
    """

    address: int
    length: int
    inline_layout: str | None = None

    def __repr__(self) -> str:
        kind = f" inline[{self.inline_layout}]" if self.inline_layout else ""
        return f"<array[{self.length}]{kind}@{self.address:#x}>"


class ViewRef(tuple):
    """Fat pointer to one element of an inline array.

    Field reads/writes through a view address the parallel arrays directly:
    no object header, no extra indirection.

    A ``MakeView`` builds one per executed instruction, so it is a tuple
    ``(array, index, class_name)`` built by ``tuple.__new__``: less than
    half a frozen dataclass's cost.  It stays immutable and hashable, and
    it equals only a view of the same array, index and class (never a
    plain tuple).  The VM's hot tier reads the fields by position.
    """

    __slots__ = ()

    def __new__(cls, array: ArrayRef, index: int, class_name: str) -> "ViewRef":
        return tuple.__new__(cls, (array, index, class_name))

    array = property(itemgetter(0), doc="The inline array.")
    index = property(itemgetter(1), doc="The element's index.")
    class_name = property(itemgetter(2), doc="The element class the view exposes.")

    def __eq__(self, other: object) -> bool:
        return type(other) is ViewRef and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"<view {self[2]} {self[0]!r}[{self[1]}]>"


Value = object  # int | float | bool | str | None | ObjectRef | ArrayRef | ViewRef


def is_truthy(value: Value) -> bool:
    """Mini-ICC++ truthiness: nil, false, 0, 0.0, and "" are falsy."""
    if value is None or value is False:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    return True


def format_value(value: Value) -> str:
    """Render a value the way ``print`` does (stable across builds)."""
    if value is None:
        return "nil"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        # A fixed format keeps output identical between the uniform and
        # transformed builds regardless of accumulated float noise.
        return f"{value:.6g}"
    if isinstance(value, (ObjectRef, ViewRef)):
        # Class names change under the transformation (variants, views); a
        # uniform rendering keeps observable output identical across builds.
        return "<object>"
    if isinstance(value, ArrayRef):
        return f"<array[{value.length}]>"
    return str(value)
