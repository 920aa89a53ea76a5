"""Fixture package for the flow-session tests.

A miniature simulator package with *seeded* interprocedural
violations (see ``tests/lint/test_flow.py``):

* ``engine.FastForwardEngine._replay`` calls a helper whose return
  value derives from a clock (``flow/tainted-call``) — in six shapes:
  returned flat, and assigned inside ``if``/``else``, ``if``, ``try``,
  ``with`` and ``for`` then returned after the statement — and
  reaches a clean helper in ``pipeline`` (a cross-module edge);
* ``clockio.read_clock`` contains the clock read itself — in a module
  no path-based allowlist would ever scope strictly, which is exactly
  what computed reachability must catch (``det/time-dependent``).

Never imported at runtime; the flow session parses it statically.
"""
