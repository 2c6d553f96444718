"""Instruction model: opclasses, static/dynamic instructions."""

import dataclasses

import pytest

from repro.isa.instruction import (
    BranchBehavior,
    DynInst,
    DynState,
    MemBehavior,
    MemPattern,
    OpClass,
    StaticInst,
)


class TestOpClass:
    def test_mem_classes(self):
        assert OpClass.LOAD.is_mem and OpClass.STORE.is_mem and OpClass.PREFETCH.is_mem
        assert not OpClass.IALU.is_mem

    def test_control_classes(self):
        for op in (OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET):
            assert op.is_control
        assert not OpClass.LOAD.is_control

    def test_fp_classes(self):
        for op in (OpClass.FALU, OpClass.FMULT, OpClass.FDIV, OpClass.FSQRT):
            assert op.is_fp
        assert not OpClass.IALU.is_fp

    def test_classes_disjoint(self):
        for op in OpClass:
            assert not (op.is_mem and op.is_control)


class TestStaticInst:
    def test_memory_inst_requires_behavior(self):
        with pytest.raises(ValueError):
            StaticInst(pc=4, opclass=OpClass.LOAD, dest=1, srcs=(2,))

    def test_branch_requires_behavior(self):
        with pytest.raises(ValueError):
            StaticInst(pc=4, opclass=OpClass.BRANCH, srcs=(1,))

    def test_plain_alu_ok(self):
        st = StaticInst(pc=4, opclass=OpClass.IALU, dest=3, srcs=(1, 2))
        assert st.writes_reg

    def test_store_has_no_dest(self):
        st = StaticInst(
            pc=4, opclass=OpClass.STORE, srcs=(1, 2),
            mem=MemBehavior(MemPattern.HOT, base=0, footprint=4096),
        )
        assert not st.writes_reg

    def test_ace_hint_defaults_true(self):
        st = StaticInst(pc=4, opclass=OpClass.IALU, dest=1)
        assert st.ace_hint is True  # conservative default


class TestDynInst:
    def _dyn(self):
        st = StaticInst(pc=0x10, opclass=OpClass.IALU, dest=1, srcs=(2,))
        return DynInst(tag=5, thread=1, static=st, stream_pos=7)

    def test_initial_state(self):
        d = self._dyn()
        assert d.state == DynState.FETCHED
        assert d.ace is None
        assert d.is_ready  # no pending producer tags

    def test_pc_and_opclass_delegate(self):
        d = self._dyn()
        assert d.pc == 0x10
        assert d.opclass == OpClass.IALU

    def test_pending_tags_block_readiness(self):
        d = self._dyn()
        d.src_tags = [3]
        assert not d.is_ready

    def test_repr_mentions_tag_and_state(self):
        text = repr(self._dyn())
        assert "tag=5" in text and "FETCHED" in text

    def test_constructor_sets_every_other_field_to_its_default(self):
        """The hand-written positional constructor agrees with the
        declared field defaults."""
        st = StaticInst(pc=0x10, opclass=OpClass.IALU, dest=1)
        cp = (3, 1, 7, (2,))
        d = DynInst(5, 1, st, 7, 40, False, cp)
        given = {"tag": 5, "thread": 1, "static": st, "stream_pos": 7,
                 "fetch_cycle": 40, "ace_pred": False, "checkpoint": cp}
        for f in dataclasses.fields(DynInst):
            if f.name in given:
                assert getattr(d, f.name) == given[f.name], f.name
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(d, f.name) == f.default_factory(), f.name
            else:
                assert getattr(d, f.name) == f.default, f.name
        assert d.src_tags is not DynInst(6, 1, st, 8).src_tags


class TestBranchBehavior:
    def test_loop_fields_default_off(self):
        bb = BranchBehavior(taken_bias=0.5)
        assert bb.loop_period == 0
        assert bb.loop_trip == 0
