"""Positive and negative cases for every determinism rule."""

import textwrap

from repro.lint import LintContext, run_checkers
from repro.lint.determinism import (
    EVERYWHERE,
    DeterminismChecker,
    in_strict_scope,
)


def lint(code, strict=True):
    context = LintContext.for_source(textwrap.dedent(code), path="<test>")
    return in_strict_scope(run_checkers(context, [DeterminismChecker]),
                           EVERYWHERE if strict else ())


def rules(code, strict=True):
    return sorted({f.rule for f in lint(code, strict)})


class TestUnseededRandom:
    def test_module_level_random_call_flagged(self):
        assert rules("""
            import random
            x = random.random()
        """) == ["det/unseeded-random"]

    def test_from_import_flagged(self):
        assert rules("""
            from random import randint
            x = randint(0, 10)
        """) == ["det/unseeded-random"]

    def test_aliased_module_flagged(self):
        assert rules("""
            import random as rnd
            rnd.shuffle(items)
        """) == ["det/unseeded-random"]

    def test_unseeded_constructor_flagged(self):
        assert rules("""
            import random
            rng = random.Random()
        """) == ["det/unseeded-random"]

    def test_seeded_constructor_clean(self):
        assert rules("""
            import random
            rng = random.Random(42)
            x = rng.randint(0, 10)
        """) == []

    def test_os_entropy_flagged(self):
        assert rules("""
            import os
            token = os.urandom(8)
        """) == ["det/unseeded-random"]

    def test_uuid4_flagged(self):
        assert rules("""
            import uuid
            key = uuid.uuid4()
        """) == ["det/unseeded-random"]

    def test_fires_outside_replay_path_too(self):
        assert rules("""
            import random
            x = random.choice(options)
        """, strict=False) == ["det/unseeded-random"]


class TestTimeDependent:
    def test_clock_read_flagged_in_replay_path(self):
        assert rules("""
            import time
            stamp = time.perf_counter()
        """) == ["det/time-dependent"]

    def test_datetime_now_flagged(self):
        assert rules("""
            import datetime
            t = datetime.datetime.now()
        """) == ["det/time-dependent"]

    def test_clock_allowed_off_replay_path(self):
        """Host timing is legitimate in benchmarks/drivers."""
        assert rules("""
            import time
            stamp = time.perf_counter()
        """, strict=False) == []


class TestIdAndHash:
    def test_id_flagged_in_replay_path(self):
        assert rules("key = id(node)") == ["det/id-dependent"]

    def test_hash_flagged_in_replay_path(self):
        assert rules("h = hash(text)") == ["det/salted-hash"]

    def test_both_allowed_off_replay_path(self):
        assert rules("key = id(node); h = hash(text)",
                     strict=False) == []

    def test_hashlib_not_flagged(self):
        assert rules("""
            import hashlib
            digest = hashlib.sha256(blob).hexdigest()
        """) == []


class TestSetIteration:
    def test_for_over_set_literal_flagged(self):
        assert rules("""
            for x in {1, 2, 3}:
                use(x)
        """) == ["det/set-iteration"]

    def test_for_over_set_local_flagged(self):
        assert rules("""
            pending = set(queue)
            for x in pending:
                use(x)
        """) == ["det/set-iteration"]

    def test_comprehension_over_set_flagged(self):
        assert rules("out = [f(x) for x in frozenset(items)]") == \
            ["det/set-iteration"]

    def test_list_conversion_of_set_flagged(self):
        assert rules("order = list({3, 1, 2})") == ["det/set-iteration"]

    def test_sorted_wrapping_is_clean(self):
        assert rules("""
            pending = set(queue)
            for x in sorted(pending):
                use(x)
        """) == []

    def test_membership_test_is_clean(self):
        assert rules("""
            done = {1, 2}
            if x in done:
                use(x)
        """) == []

    def test_rebound_local_not_tracked(self):
        assert rules("""
            items = {1, 2}
            items = load_list()
            for x in items:
                use(x)
        """) == []

    def test_allowed_off_replay_path(self):
        assert rules("""
            for x in {1, 2, 3}:
                use(x)
        """, strict=False) == []


class TestDictValueIteration:
    def test_values_iteration_flagged(self):
        assert rules("""
            for v in table.values():
                use(v)
        """) == ["det/dict-value-iteration"]

    def test_items_iteration_flagged(self):
        assert rules("out = [k for k, v in table.items()]") == \
            ["det/dict-value-iteration"]

    def test_sorted_items_clean(self):
        assert rules("""
            for k, v in sorted(table.items()):
                use(k, v)
        """) == []

    def test_allowed_off_replay_path(self):
        assert rules("""
            for v in table.values():
                use(v)
        """, strict=False) == []


class TestStrictScopeIsLineSpans:
    """The checker emits every rule everywhere; the scope decides what
    counts (docs/lint.md, "One scope rule")."""

    SOURCE = ("import random\n"                 # 1
              "for v in t.values():\n"          # 2  strict-only
              "    use(v)\n"                    # 3
              "x = random.random()\n"           # 4  counts everywhere
              "for k in t.keys():\n"            # 5  strict-only
              "    use(k)\n")                   # 6

    def _lines(self, spans):
        context = LintContext.for_source(self.SOURCE, path="<test>")
        raw = run_checkers(context, [DeterminismChecker])
        assert [f.line for f in raw] == [2, 4, 5]  # emitted regardless
        return [f.line for f in in_strict_scope(raw, spans)]

    def test_nothing_everything_and_a_span(self):
        assert self._lines(()) == [4]
        assert self._lines(EVERYWHERE) == [2, 4, 5]
        assert self._lines([(5, 6)]) == [4, 5]
        assert self._lines([(1, 2), (6, 9)]) == [2, 4]
