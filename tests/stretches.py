"""Expansion of a stream of records and Stretches, the oracle that the
Stretch-aware consumers are checked against, and a kernel that counts its
calls.

expanded builds each record of a Stretch as TraceRecord(t, *body), one per
time, with no code from parbuck.sim's own expansion.
"""

from collections import Counter

from parbuck import TraceRecord
from parbuck.sim import Stretch


def expanded(items):
    """The records of items, each Stretch as one record per time, in order."""
    for item in items:
        if type(item) is Stretch:
            yield from (TraceRecord(t, *item.body) for t in item.times)
        else:
            yield item


def counting(step_at):
    """step_at with each kernel's calls counted as they are made: returns the
    wrapped step_at and a Counter of "step" calls, "jump" calls and the
    steps that the accepted jumps cover ("jumped"). A jump that is None
    stays None."""
    calls = Counter()

    def counting_step_at(R):
        step, record, jump = step_at(R)

        def counted_step(*args):
            calls["step"] += 1
            return step(*args)

        def counted_jump(n, *x):
            calls["jump"] += 1
            got = jump(n, *x)
            if got is not None:
                calls["jumped"] += n
            return got

        return counted_step, record, None if jump is None else counted_jump

    return counting_step_at, calls
