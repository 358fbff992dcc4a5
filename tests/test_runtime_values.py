"""Runtime value representation and cost-model unit tests."""

import pytest

from repro.runtime.costmodel import CostModel, ExecutionStats
from repro.runtime.values import (
    ArrayRef,
    ObjectRef,
    ViewRef,
    format_value,
    is_truthy,
)


class TestTruthiness:
    def test_falsy_values(self):
        for value in (None, False, 0, 0.0, ""):
            assert not is_truthy(value), value

    def test_truthy_values(self):
        for value in (True, 1, -1, 0.5, "x", ObjectRef(0x10, "A"), ArrayRef(0x20, 0)):
            assert is_truthy(value), value

    def test_empty_array_is_truthy(self):
        # Arrays are references: even a zero-length array is a real object.
        assert is_truthy(ArrayRef(0x20, 0))


class TestFormatting:
    def test_primitives(self):
        assert format_value(None) == "nil"
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(7) == "7"
        assert format_value("s") == "s"

    def test_float_formatting_is_stable(self):
        assert format_value(2.5) == "2.5"
        assert format_value(1.0) == "1"
        assert format_value(1.0 / 3.0) == "0.333333"

    def test_objects_render_opaquely(self):
        """Class names change across builds (variants/views); formatting
        must not leak them or output equivalence breaks."""
        assert format_value(ObjectRef(0x10, "Rectangle")) == "<object>"
        assert format_value(ObjectRef(0x10, "Rectangle$1")) == "<object>"
        array = ArrayRef(0x20, 4, inline_layout="P@elem3")
        view = ViewRef(array, 2, "P@elem3")
        assert format_value(view) == "<object>"

    def test_array_renders_length_only(self):
        assert format_value(ArrayRef(0x20, 4)) == "<array[4]>"
        assert format_value(ArrayRef(0x20, 4, "P@elem3")) == "<array[4]>"


class TestReferenceIdentity:
    def test_object_refs_compare_by_address(self):
        a = ObjectRef(0x10, "A")
        b = ObjectRef(0x10, "A")
        c = ObjectRef(0x18, "A")
        assert a == b
        assert a != c

    def test_view_refs_compare_by_slot(self):
        array = ArrayRef(0x20, 4, "P")
        assert ViewRef(array, 1, "P") == ViewRef(array, 1, "P")
        assert ViewRef(array, 1, "P") != ViewRef(array, 2, "P")


class TestViewRef:
    """A view is a tuple underneath (cheap to build); its contract is
    still that of an immutable value with three named fields."""

    ARRAY = ArrayRef(0x20, 4, "P")

    def test_fields(self):
        view = ViewRef(self.ARRAY, 2, "P@elem3")
        assert (view.array, view.index, view.class_name) == (self.ARRAY, 2, "P@elem3")

    def test_immutable(self):
        view = ViewRef(self.ARRAY, 2, "P")
        for name in ("array", "index", "class_name", "other"):
            with pytest.raises(AttributeError):
                setattr(view, name, 0)

    def test_equal_only_to_the_same_view(self):
        view = ViewRef(self.ARRAY, 2, "P")
        assert view == ViewRef(self.ARRAY, 2, "P")
        assert not view != ViewRef(self.ARRAY, 2, "P")
        for other in (
            ViewRef(ArrayRef(0x28, 4, "P"), 2, "P"),
            ViewRef(self.ARRAY, 3, "P"),
            ViewRef(self.ARRAY, 2, "Q"),
            (self.ARRAY, 2, "P"),
            [self.ARRAY, 2, "P"],
        ):
            assert view != other
            assert not view == other

    def test_hashable(self):
        views = {ViewRef(self.ARRAY, 2, "P"), ViewRef(self.ARRAY, 2, "P")}
        assert len(views) == 1
        assert ViewRef(self.ARRAY, 2, "P") in views
        assert ViewRef(self.ARRAY, 1, "P") not in views

    def test_repr_and_format(self):
        view = ViewRef(self.ARRAY, 2, "P")
        assert repr(view) == "<view P <array[4] inline[P]@0x20>[2]>"
        assert format_value(view) == "<object>"

    def test_pickles_and_copies(self):
        import copy
        import pickle

        view = ViewRef(self.ARRAY, 2, "P")
        for clone in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
            assert type(clone) is ViewRef
            assert clone == view


class TestCostModel:
    def test_zero_stats_zero_cycles(self):
        assert ExecutionStats().cycles() == 0

    def test_each_component_charged(self):
        model = CostModel()
        stats = ExecutionStats()
        stats.instructions = 10
        assert stats.cycles(model) == 10 * model.base_instr

        stats = ExecutionStats()
        stats.allocations = 2
        assert stats.cycles(model) == 2 * model.alloc_base

        stats = ExecutionStats()
        stats.stack_allocations = 3
        assert stats.cycles(model) == 3 * model.stack_alloc

        stats = ExecutionStats()
        stats.dynamic_dispatches = 5
        assert stats.cycles(model) == 5 * model.dynamic_dispatch

    def test_stack_allocation_far_cheaper_than_heap(self):
        model = CostModel()
        assert model.stack_alloc * 10 < model.alloc_base

    def test_cache_misses_charged(self):
        stats = ExecutionStats()
        stats.cache.reads = 4
        stats.cache.read_misses = 2
        model = CostModel()
        assert stats.cycles(model) == 2 * model.miss_penalty

    def test_custom_model(self):
        stats = ExecutionStats()
        stats.heap_reads = 7
        assert stats.cycles(CostModel(mem_access=5)) == 35

    def test_summary_keys(self):
        summary = ExecutionStats().summary()
        for key in ("instructions", "allocations", "stack_allocations",
                    "cache_misses", "cycles", "cache_miss_rate"):
            assert key in summary
