"""Pausing CPython's cyclic collector for the length of a bulk call.

A checkpoint, a restore, a one-shot ``run()`` and a late joiner's
catch-up each allocate objects in proportion to state or history, and
almost all of them stay alive: the collector's generation-0 trigger
fires every few hundred allocations and walks ever more survivors, yet
finds next to nothing to free (what a bulk call leaves unreachable is
bounded by the plan, not by the data).  :func:`collector_paused` turns
the collector off for such a call and back on when it returns or
raises.  Per-event entry points are deliberately not wrapped: they
allocate O(1) objects per call, so a pause there would only move the
collections, not save them (DESIGN.md, *The collector pause*).
"""

import functools
import gc

__all__ = ["collector_paused"]


def collector_paused(call):
    """Run ``call`` with the cyclic collector off, if it was on.

    A nested paused call, or a caller that turned the collector off
    itself, finds it off and leaves it exactly as it was; only the
    call that turned it off turns it back on, in ``finally``.  The
    pause is process-wide for the call's duration: callbacks the call
    makes (trace hooks, fault hooks) run inside it.
    """

    @functools.wraps(call)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return call(*args, **kwargs)
        gc.disable()
        try:
            return call(*args, **kwargs)
        finally:
            gc.enable()

    return paused
