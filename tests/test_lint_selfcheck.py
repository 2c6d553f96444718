"""The linter run over its own source tree."""

import os

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


class TestSelfCheck:
    def test_no_non_baselined_diagnostics_on_src(self, real_tree_diags):
        """src/ carries no findings; with the baseline deleted, every
        accepted exception is an inline suppression with a reason."""
        new = [
            d for d in real_tree_diags
            if os.path.realpath(d.path).startswith(SRC + os.sep)
        ]
        assert new == [], "new findings on src/:\n" + "\n".join(
            d.format() for d in new
        )
