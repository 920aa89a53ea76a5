"""A ``MemorySystem`` that records every request its port receives.

Shared by the tests that treat the port's request stream as the
observable: the fold tests (``tests/memo/test_fold.py``) compare it
between compiled and interpreted replay, the filter tests
(``tests/cache/test_filter_inclusion.py``) replay it against other
memory systems.
"""

from repro.cache.hierarchy import MemorySystem


class RecordingMemorySystem(MemorySystem):
    """Appends ``(method name, *arguments)`` per port call, in order."""

    def __init__(self, params=None, l1_filter=True):
        super().__init__(params, l1_filter=l1_filter)
        self.stream = []

    def issue_load(self, key, address, now):
        self.stream.append(("issue_load", key, address, now))
        return super().issue_load(key, address, now)

    def poll_load(self, key, now):
        self.stream.append(("poll_load", key, now))
        return super().poll_load(key, now)

    def issue_store(self, address, width, now):
        self.stream.append(("issue_store", address, width, now))
        return super().issue_store(address, width, now)

    def cancel_loads_from(self, first_key):
        self.stream.append(("cancel_loads_from", first_key))
        super().cancel_loads_from(first_key)
