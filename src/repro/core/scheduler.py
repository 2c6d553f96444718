"""Issue selection policies: baseline oldest-first and VISA.

Section 2.1 of the paper: *Vulnerable InStruction Aware (VISA)* issue
gives ready ACE instructions priority over ready un-ACE instructions;
within each class, instructions issue in program order.  Un-ACE
instructions only issue when fewer ready ACE instructions exist than
issue slots.  ACE-ness at issue time is the per-PC predicted bit
(``ace_pred``) from offline profiling — the scheduler never sees the
oracle.

A scheduler is one method, :meth:`IssueScheduler.ready_tags`: the
ready tags in policy priority order, built from the issue queue's two
incrementally maintained sorted tag lists (one per predicted-ACE
class) without visiting an instruction.  The pipeline's issue stage
walks the whole list until the issue width is filled, so instructions
blocked on a dry FU pool never starve eligible younger instructions
(no fixed over-selection window).
"""

from __future__ import annotations

from repro.core.issue_queue import IssueQueue


class IssueScheduler:
    """Base interface: rank the ready set in issue priority order."""

    name = "base"

    def ready_tags(self, iq: IssueQueue) -> list[int]:
        """Tags of the ready instructions in priority order.

        A new list: the caller may issue (removing entries from the
        ready set) while walking it.
        """
        raise NotImplementedError


class OldestFirstScheduler(IssueScheduler):
    """Conventional age-ordered (program-order) selection — the
    baseline issue policy of the evaluated SMT processor."""

    name = "oldest"

    def ready_tags(self, iq: IssueQueue) -> list[int]:
        # Two ascending runs: the sort merges them in one pass.
        tags = iq.ready_ace_tags + iq.ready_plain_tags
        tags.sort()
        return tags


class VISAScheduler(IssueScheduler):
    """Vulnerable-InStruction-Aware issue (Section 2.1).

    Ready ACE instructions bypass all ready un-ACE instructions; ties
    within a class break by age (program order, approximated by the
    global sequence tag as in ICOUNT-style SMT selection).
    """

    name = "visa"

    def ready_tags(self, iq: IssueQueue) -> list[int]:
        return iq.ready_ace_tags + iq.ready_plain_tags


_SCHEDULERS = {
    "oldest": OldestFirstScheduler,
    "visa": VISAScheduler,
}


def make_scheduler(name: str) -> IssueScheduler:
    """Instantiate an issue scheduler by name ("oldest" or "visa")."""
    try:
        return _SCHEDULERS[name.lower()]()
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {sorted(_SCHEDULERS)}"
        ) from None
