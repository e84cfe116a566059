"""SC-2 fixture: wall-clock functions kept as values, read later.

Parsed by the analyzer, never imported.  Each violating function keeps
a host clock as a value instead of calling it where it is named; the
``ok_*`` functions are patterns SC-2 must NOT flag.
"""

import time
from time import perf_counter


def stored_clock_read():
    clock = time.perf_counter  # VIOLATION: wall-clock (read by clock())
    return clock()


def clock_default(clock=time.monotonic):  # VIOLATION: wall-clock
    return clock()


class StoredClock:
    def __init__(self):
        self.clock = perf_counter  # VIOLATION: wall-clock (imported name)


def ok_injected_clock(clock):
    return clock()


def ok_sleep_reference(sleep=time.sleep):
    sleep(0)
