"""Expansion of a stream of records and Stretches, the oracle that the
Stretch-aware consumers are checked against.

It builds each record of a Stretch as TraceRecord(t, *body), one per time,
with no code from parbuck.sim's own expansion.
"""

from parbuck import TraceRecord
from parbuck.sim import Stretch


def expanded(items):
    """The records of items, each Stretch as one record per time, in order."""
    for item in items:
        if type(item) is Stretch:
            yield from (TraceRecord(t, *item.body) for t in item.times)
        else:
            yield item
