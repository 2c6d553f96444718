"""Functional unit pools and latencies (Table 2)."""

import pytest

from repro.config import MachineConfig
from repro.core.functional_units import FunctionalUnitPool
from repro.core.pipeline import SMTPipeline
from repro.isa.generator import generate_program
from repro.isa.instruction import (
    OP_IS_CONTROL,
    OP_IS_MEM,
    OP_LATENCY_FIELD,
    OpClass,
    op_latency_table,
)
from tests.stage_reference import fu_available, fu_try_issue


@pytest.fixture()
def pool():
    return FunctionalUnitPool(MachineConfig())


class TestPools:
    def test_ialu_pool_limit(self, pool):
        for _ in range(8):
            assert fu_try_issue(pool, OpClass.IALU)
        assert not fu_try_issue(pool, OpClass.IALU)

    def test_branch_shares_ialu(self, pool):
        for _ in range(8):
            assert fu_try_issue(pool, OpClass.BRANCH)
        assert not fu_try_issue(pool, OpClass.IALU)

    def test_loadstore_pool_limit(self, pool):
        for _ in range(4):
            assert fu_try_issue(pool, OpClass.LOAD)
        assert not fu_try_issue(pool, OpClass.STORE)

    def test_fp_pools_independent_of_int(self, pool):
        for _ in range(8):
            fu_try_issue(pool, OpClass.IALU)
        assert fu_try_issue(pool, OpClass.FALU)

    def test_mult_div_shared_pool(self, pool):
        for _ in range(4):
            assert fu_try_issue(pool, OpClass.IMULT)
        assert not fu_try_issue(pool, OpClass.IDIV)

    def test_fp_mult_div_sqrt_shared(self, pool):
        for _ in range(4):
            assert fu_try_issue(pool, OpClass.FDIV)
        assert not fu_try_issue(pool, OpClass.FSQRT)

    def test_new_cycle_releases(self, pool):
        for _ in range(8):
            fu_try_issue(pool, OpClass.IALU)
        pool.new_cycle()
        assert fu_try_issue(pool, OpClass.IALU)

    def test_available(self, pool):
        assert fu_available(pool, OpClass.LOAD) == 4
        fu_try_issue(pool, OpClass.LOAD)
        assert fu_available(pool, OpClass.PREFETCH) == 3

    def test_total_units(self, pool):
        assert pool.total_units == 8 + 4 + 4 + 8 + 4

    def test_busy_integral(self, pool):
        fu_try_issue(pool, OpClass.IALU)
        fu_try_issue(pool, OpClass.FALU)
        assert pool.busy_integral == 2


class TestLatencies:
    def setup_method(self):
        self.m = MachineConfig()

    @pytest.mark.parametrize("op,attr", [
        (OpClass.IALU, "lat_int_alu"),
        (OpClass.IMULT, "lat_int_mult"),
        (OpClass.IDIV, "lat_int_div"),
        (OpClass.FALU, "lat_fp_alu"),
        (OpClass.FMULT, "lat_fp_mult"),
        (OpClass.FDIV, "lat_fp_div"),
        (OpClass.FSQRT, "lat_fp_sqrt"),
    ])
    def test_latency_mapping(self, op, attr):
        assert op_latency(self.m, op) == getattr(self.m, attr)

    def test_control_is_single_cycle(self):
        assert op_latency(self.m, OpClass.BRANCH) == 1
        assert op_latency(self.m, OpClass.NOP) == 1

    def test_latency_ordering(self):
        # divides are slower than multiplies which are slower than adds
        assert (
            op_latency(self.m, OpClass.IALU)
            < op_latency(self.m, OpClass.IMULT)
            < op_latency(self.m, OpClass.IDIV)
        )


#: Every opclass's latency field; memory and control classes fall back
#: to the integer ALU latency (memory timing comes from the caches).
_EXPECTED_LATENCY_FIELD = {
    OpClass.IALU: "lat_int_alu",
    OpClass.IMULT: "lat_int_mult",
    OpClass.IDIV: "lat_int_div",
    OpClass.FALU: "lat_fp_alu",
    OpClass.FMULT: "lat_fp_mult",
    OpClass.FDIV: "lat_fp_div",
    OpClass.FSQRT: "lat_fp_sqrt",
    OpClass.LOAD: "lat_int_alu",
    OpClass.STORE: "lat_int_alu",
    OpClass.BRANCH: "lat_int_alu",
    OpClass.JUMP: "lat_int_alu",
    OpClass.CALL: "lat_int_alu",
    OpClass.RET: "lat_int_alu",
    OpClass.NOP: "lat_int_alu",
    OpClass.PREFETCH: "lat_int_alu",
}

_MACHINES = {
    "default": MachineConfig(),
    # Pairwise-distinct latencies, so a row pointing at the wrong field
    # cannot agree by coincidence.
    "distinct": MachineConfig(
        lat_int_alu=2, lat_int_mult=5, lat_int_div=31, lat_fp_alu=3,
        lat_fp_mult=7, lat_fp_div=17, lat_fp_sqrt=29,
    ),
}


def op_latency(machine: MachineConfig, opclass: OpClass) -> int:
    """Reference latency of one opclass, read field by field (the
    pipeline indexes :func:`~repro.isa.instruction.op_latency_table`)."""
    return int(getattr(machine, OP_LATENCY_FIELD[opclass]))


class TestOpclassTables:
    """The ordinal-indexed tables per-instruction code reads must agree
    with the enum predicates and ``op_latency`` they replace."""

    def test_every_opclass_has_an_expected_latency(self):
        assert set(_EXPECTED_LATENCY_FIELD) == set(OpClass)

    @pytest.mark.parametrize("op", list(OpClass), ids=lambda op: op.name)
    def test_predicate_tables_match_properties(self, op):
        assert OP_IS_MEM[op] is op.is_mem
        assert OP_IS_CONTROL[op] is op.is_control

    @pytest.mark.parametrize("name", sorted(_MACHINES))
    def test_latency_table_matches_op_latency(self, name):
        m = _MACHINES[name]
        m.validate()
        table = op_latency_table(m)
        assert len(table) == len(OpClass)
        for op in OpClass:
            expected = getattr(m, _EXPECTED_LATENCY_FIELD[op])
            assert table[op] == op_latency(m, op) == expected, op.name

    def test_pipeline_issues_with_its_machine_table(self):
        m = _MACHINES["distinct"]
        pipe = SMTPipeline([generate_program("gcc", seed=1)], machine=m)
        assert pipe._op_latency == op_latency_table(pipe.machine)
        assert pipe._op_latency[OpClass.FDIV] == 17
