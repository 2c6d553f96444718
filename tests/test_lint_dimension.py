"""The ``dimension-mismatch`` rule: the cycle / bit / bit-cycle
dimension lattice and the checker riding it."""

import ast
import textwrap

from repro.analysis import LintEngine
from repro.analysis.checkers.dimension import (
    BIT_CYCLES,
    BITS,
    CYCLES,
    FRACTION,
    PER_CYCLE,
    check_function,
    dimension_of_name,
)


# ----------------------------------------------------------------------
# Dimension lattice + dimension-mismatch rule
# ----------------------------------------------------------------------
def findings_of(body):
    tree = ast.parse(textwrap.dedent(body))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef)
    return check_function(func)


class TestDimensionLattice:
    def test_name_seeding(self):
        assert dimension_of_name("ace_bit_cycles") == BIT_CYCLES
        assert dimension_of_name("_sample_bits") == BITS
        assert dimension_of_name("warmup_cycles") == CYCLES
        assert dimension_of_name("online_avf_estimate") == FRACTION
        assert dimension_of_name("entries") == "unknown"

    def test_bit_cycles_seeding_wins_over_bits(self):
        # checked before the *_bits suffix: a bit-cycle accumulator is
        # not a bit count.
        assert dimension_of_name("rob_bit_cycles") == BIT_CYCLES

    def test_cycles_plus_bit_cycles_flagged(self):
        findings = findings_of(
            """
            def f(self):
                total = self.ace_bit_cycles + self.warmup_cycles
            """
        )
        assert len(findings) == 1
        assert "mixed dimensions" in findings[0].message
        assert findings[0].line == 3

    def test_cycle_minus_cycle_is_duration_not_flagged(self):
        assert (
            findings_of(
                """
                def f(self):
                    wait_cycles = self.leave_cycle - self.enter_cycle
                """
            )
            == []
        )

    def test_dropped_normalization_flagged(self):
        # bits / (cycles * bits) leaves 1/cycles, not a fraction: the
        # shape of a dropped `/ (bits * cycles)` AVF normalization.
        findings = findings_of(
            """
            def f(self, cycles):
                avf = self.resident_bits / (cycles * self.capacity_bits)
            """
        )
        assert len(findings) == 1
        assert PER_CYCLE in findings[0].message

    def test_correct_normalization_clean(self):
        assert (
            findings_of(
                """
                def f(self, cycles):
                    avf = self.ace_bit_cycles / (cycles * self.capacity_bits)
                """
            )
            == []
        )

    def test_keyword_argument_mismatch_flagged(self):
        findings = findings_of(
            """
            def f(self, cycles):
                self.record(
                    online_avf_estimate=self.resident_bits
                    / (cycles * self.capacity_bits)
                )
            """
        )
        assert len(findings) == 1
        assert "online_avf_estimate" in findings[0].message

    def test_per_cycle_integration_allowed(self):
        # acc_bit_cycles += resident bits, once per cycle: canonical
        # ACE accumulation, not a mixup.
        assert (
            findings_of(
                """
                def f(self, iq):
                    self.ace_bit_cycles += iq.pred_ace_bits
                """
            )
            == []
        )

    def test_accumulating_cycles_into_bits_flagged(self):
        findings = findings_of(
            """
            def f(self):
                self.total_bits += self.stall_cycles
            """
        )
        assert len(findings) == 1
        assert "accumulating" in findings[0].message

    def test_literals_are_compatible(self):
        assert (
            findings_of(
                """
                def f(self):
                    self.cycle = self.cycle + 1
                """
            )
            == []
        )

    def test_finding_has_end_span(self):
        findings = findings_of(
            """
            def f(self):
                t = self.ace_bit_cycles + self.warmup_cycles
            """
        )
        f = findings[0]
        assert f.end_line == f.line and f.end_col > f.col


class TestDimensionChecker:
    def test_engine_integration(self, tmp_path):
        bad = tmp_path / "avfmath.py"
        bad.write_text(
            textwrap.dedent(
                """
                class A:
                    def close(self, cycles):
                        self.total = self.ace_bit_cycles + self.warmup_cycles
                """
            )
        )
        diags = LintEngine(["dimension-mismatch"]).run([str(bad)])
        assert len(diags) == 1
        assert diags[0].rule == "dimension-mismatch"
        assert diags[0].symbol == "close"

    def test_suppression_comment_respected(self, tmp_path):
        bad = tmp_path / "avfmath.py"
        bad.write_text(
            textwrap.dedent(
                """
                class A:
                    def close(self, cycles):
                        self.total = self.ace_bit_cycles + self.warmup_cycles  # lint: disable=dimension-mismatch
                """
            )
        )
        assert LintEngine(["dimension-mismatch"]).run([str(bad)]) == []

    def test_real_tree_is_clean(self, real_tree_diags):
        diags = [d for d in real_tree_diags if d.rule == "dimension-mismatch"]
        assert diags == [], "\n".join(d.format() for d in diags)
