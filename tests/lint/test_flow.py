"""Flow-session tests: computed reachability, interprocedural taint,
and the turbo codegen contracts.

The fixture package under ``fixtures/flowpkg`` seeds violations of
each flow rule in places no per-file view would ever scope — the
tainted call in every statement shape the taint walk must see through
(see its ``__init__`` docstring); the real tree must come back
self-clean; and the codegen family must demonstrably catch injected
emitter mutations — a patched template or bindings table (of the turbo
segment emitter or of the frontend's block emitter) produces exactly
one finding of the expected rule.
"""

import os
from unittest import mock

import pytest

import repro
from repro.lint.flow import REPLAY_ENTRY_SUFFIXES, FlowSession
from repro.lint.flow.codegen import (
    RULE_ATTR,
    RULE_DRIFT,
    RULE_NAME,
    RULE_SHAPE,
    CodegenContractChecker,
    build_audit_blocks,
    EXIT_CONTRACT,
    FOLDED_WRAPPERS,
    build_audit_chains,
    interpreter_world_calls,
    world_wrapper_surface,
)
from repro.emulator import threaded
from repro.isa.opcodes import opcode_info
from repro.lint.runner import session_findings
from repro.memo import compile as compiler

SRC_ROOT = os.path.dirname(repro.__file__)
FIXTURE_ROOT = os.path.join(
    os.path.dirname(__file__), "fixtures", "flowpkg")


@pytest.fixture(scope="module")
def fixture_session():
    return FlowSession(
        FIXTURE_ROOT, entries=("FastForwardEngine._replay",))


@pytest.fixture(scope="module")
def repro_session():
    return FlowSession(SRC_ROOT, package="repro")


def _key(finding):
    return (os.path.basename(finding.path), finding.line, finding.rule)


class TestCallGraph:
    def test_entry_suffix_matches_the_fixture_engine(self, fixture_session):
        assert fixture_session.entry_functions() == [
            "flowpkg.engine.FastForwardEngine._replay"]

    def test_reachability_crosses_module_boundaries(self, fixture_session):
        assert fixture_session.reachable() == frozenset({
            "flowpkg.engine.FastForwardEngine._replay",
            "flowpkg.clockio.read_clock",
            "flowpkg.clockio.clock_in_if_else",
            "flowpkg.clockio.clock_in_if",
            "flowpkg.clockio.clock_in_try",
            "flowpkg.clockio.clock_in_with",
            "flowpkg.clockio.clock_in_for",
            "flowpkg.pipeline.redirect_fetch",
        })

    def test_from_import_binding_resolves_to_qualname(self, fixture_session):
        engine = fixture_session.modgraph.modules["flowpkg.engine"]
        assert engine.bindings["read_clock"] == "flowpkg.clockio.read_clock"

    def test_reachable_spans_cover_only_reachable_files(self, fixture_session):
        spans = fixture_session.reachable_spans()
        names = {os.path.basename(path) for path in spans}
        assert names == {"engine.py", "clockio.py", "pipeline.py"}


class TestFixtureFindings:
    """Each seeded violation fires exactly once, nothing else does."""

    def test_exactly_the_seeded_violations(self, fixture_session):
        """The clock read assigned inside ``if``/``else``, ``if`` and
        ``try`` and returned after the statement used to be missed
        (the statement after a compound one was read before its body,
        and a clean rebind cleared the name); the call site nested in
        an ``if`` used to be reported twice."""
        keys = sorted(_key(f) for f in fixture_session.run())
        assert keys == [
            ("clockio.py", 9, "det/time-dependent"),    # read_clock
            ("clockio.py", 24, "det/time-dependent"),   # ..._if_else
            ("clockio.py", 33, "det/time-dependent"),   # ..._if
            ("clockio.py", 39, "det/time-dependent"),   # ..._try
            ("clockio.py", 47, "det/time-dependent"),   # ..._with
            ("clockio.py", 54, "det/time-dependent"),   # ..._for
            ("engine.py", 23, "flow/tainted-call"),     # read_clock
            ("engine.py", 25, "flow/tainted-call"),     # clock_in_if_else
            ("engine.py", 26, "flow/tainted-call"),     # clock_in_if
            ("engine.py", 27, "flow/tainted-call"),     # clock_in_try
            ("engine.py", 28, "flow/tainted-call"),     # clock_in_with
            ("engine.py", 29, "flow/tainted-call"),     # clock_in_for
            ("engine.py", 33, "flow/tainted-call"),     # nested call site
        ]

    def test_strict_rule_scoped_by_computed_reachability(self, fixture_session):
        """``clockio.py`` matches no path allowlist; the clock read is
        strict-flagged purely because reachability says replay runs it."""
        clock = [f for f in fixture_session.run()
                 if f.rule == "det/time-dependent"]
        assert len(clock) == 6
        assert {os.path.basename(f.path) for f in clock} == {"clockio.py"}

    def test_unreachable_bystander_is_exempt(self, fixture_session):
        """``bystander`` calls the tainted helper too, but is not
        reachable from the entry points — no finding may point into it."""
        engine = fixture_session.modgraph.modules["flowpkg.engine"]
        assert "flowpkg.engine.bystander" not in fixture_session.reachable()
        first, last = fixture_session.callgraph.functions[
            "flowpkg.engine.bystander"].span
        bystander_lines = [
            finding.line for finding in fixture_session.run()
            if finding.path == engine.path and first <= finding.line <= last
        ]
        assert bystander_lines == []

    def test_missing_entry_fires_for_unmatched_suffix(self):
        session = FlowSession(
            FIXTURE_ROOT,
            entries=("FastForwardEngine._replay", "Ghost.run"))
        missing = [f for f in session.run()
                   if f.rule == "flow/missing-entry"]
        assert len(missing) == 1
        assert "Ghost.run" in missing[0].message
        assert os.path.basename(missing[0].path) == "__init__.py"


class TestRealTree:
    def test_every_replay_entry_suffix_matches(self, repro_session):
        for suffix in REPLAY_ENTRY_SUFFIXES:
            assert repro_session.callgraph.match_suffix(suffix), suffix

    def test_reachable_set_spans_the_simulator_layers(self, repro_session):
        modules = {qualname.rsplit(".", 2)[0]
                   for qualname in repro_session.reachable()}
        assert {
            "repro.memo.engine", "repro.uarch.detailed",
            "repro.sim.world", "repro.cache.hierarchy",
            "repro.branch.predictor",
        } <= modules

    def test_virtual_dispatch_reaches_subclass_overrides(self, repro_session):
        """``FastSim.run`` holds a ``GuardedEngine``; its ``_replay``
        override must be reachable through the base-class entry."""
        assert ("repro.guard.engine.GuardedEngine._replay"
                in repro_session.reachable())

    def test_flow_session_is_self_clean(self, repro_session):
        """The tier-1 flow gate: zero unsuppressed findings on the
        whole tree, with every waiver sitting on its flagged line —
        the step ``lint_flow`` applies to each session it builds."""
        findings = session_findings(repro_session)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_suppressions_are_not_vacuous(self, repro_session):
        """The raw (unsuppressed) session does find the documented,
        waived patterns — the clean gate is earned, not empty."""
        assert repro_session.run()


class TestCodegenContracts:
    def _codegen_findings(self, session):
        return [f for f in CodegenContractChecker().check(session)]

    def test_audit_chains_compile_with_captured_source(self):
        for label, head, _count in build_audit_chains():
            segment = compiler.compile_segment(
                head, generation=0, capture_source=True)
            assert segment.source is not None, label
            assert segment.source.startswith(compiler.SEG_HEADER), label

    def test_source_capture_is_off_by_default(self):
        _label, head, _count = build_audit_chains()[0]
        assert compiler.compile_segment(head, generation=0).source is None

    def test_interpreter_and_bindings_share_one_surface(self, repro_session):
        """What a segment calls, folds or defers is exactly what the
        interpreter calls; what it binds of the cache port and reads of
        the world is exactly what the World wrappers call and read."""
        targets = set(compiler.WORLD_BINDINGS.values())
        port, reads = world_wrapper_surface(repro_session)
        assert port == {"issue_load", "poll_load", "issue_store"}
        assert reads == {"cycle", "lq_base", "sq_base", "_lq", "_sq",
                         "_sqw"}
        assert {t for t in targets if t.startswith("world.cache.")} == {
            f"world.cache.{method}" for method in port}
        world_attrs = {t.split(".", 1)[1] for t in targets
                       if not t.startswith("world.cache.")}
        assert world_attrs - reads == {"get_control", "rollback"}
        assert interpreter_world_calls(repro_session) == (
            (world_attrs - reads) | set(FOLDED_WRAPPERS) | EXIT_CONTRACT)

    def test_clean_emitter_produces_no_findings(self, repro_session):
        assert self._codegen_findings(repro_session) == []

    def test_generated_segments_fold_advance_and_retire(self):
        """No audited chain's source mentions the folded calls, and the
        request tuple holds rollbacks only."""
        for label, head, _count in build_audit_chains():
            segment = compiler.compile_segment(
                head, generation=0, capture_source=True)
            assert "advance_cycles" not in segment.source, label
            assert "retire" not in segment.source, label
            assert all(type(request).__name__ == "Rollback"
                       for request in segment.requests), label

    def test_template_mutation_smuggling_a_name_is_caught(self, repro_session):
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "rollback": "    w_rb(R[{index}]); _leak(R)"}):
            rules = sorted(
                f.rule for f in self._codegen_findings(repro_session))
        # Both tripwires: the table-level alias check and the audit of
        # the generated source itself.
        assert rules == [RULE_DRIFT, RULE_NAME]

    def test_template_mutation_touching_a_new_attr_is_caught(
            self, repro_session):
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "rollback": "    w_rb(world.snoop)"}):
            rules = [f.rule for f in self._codegen_findings(repro_session)]
        assert rules == [RULE_ATTR]

    def test_template_mutation_changing_shape_is_caught(self, repro_session):
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "rollback": "    if R: w_rb(R[{index}])"}):
            rules = [f.rule for f in self._codegen_findings(repro_session)]
        assert rules == [RULE_SHAPE]

    def test_template_writing_the_world_clock_is_caught(self, repro_session):
        """The fold's first law: a segment never assigns world state."""
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "store_issue": (compiler.SEG_TEMPLATES["store_issue"]
                                + "; world.cycle = c")}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_ATTR]
        assert "assigns world.cycle" in findings[0].message

    def test_template_calling_world_retire_is_caught(self, repro_session):
        """...nor calls a method whose effect the exit contract owns."""
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "rollback": "    w_rb(R[{index}]); world.retire(R[{index}])"}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_ATTR]
        assert "world.retire" in findings[0].message

    def test_template_dropping_the_clock_term_is_caught(self, repro_session):
        """A cache access without ``c +`` replays at the wrong cycle."""
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "load_poll": "    r = c_pl(lb + {index}, {cycles})"}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_SHAPE]
        assert "c_pl(lb + 0, 1)" in findings[0].message

    def test_bindings_drift_from_interpreter_is_caught(self, repro_session):
        with mock.patch.dict(compiler.WORLD_BINDINGS, {
                "w_x": "world.hack"}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_DRIFT]
        assert "world.hack" in findings[0].message

    def test_bindings_drift_from_world_wrappers_is_caught(
            self, repro_session):
        """Binding a cache method no wrapper calls, or losing one a
        wrapper does call, is wrapper/emitter drift."""
        with mock.patch.dict(compiler.WORLD_BINDINGS, {
                "c_x": "world.cache.warm_access"}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_DRIFT]
        assert "world.cache.warm_access" in findings[0].message
        with mock.patch.dict(compiler.WORLD_BINDINGS, {
                "c_pl": "world.cache.issue_load"}):
            findings = self._codegen_findings(repro_session)
        assert RULE_DRIFT in {f.rule for f in findings}
        assert any("cache.poll_load" in f.message for f in findings)

    def test_template_referencing_unbindable_alias_is_caught(
            self, repro_session):
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "rollback": "    w_bogus(R[{index}])"}):
            rules = sorted(
                f.rule for f in self._codegen_findings(repro_session))
        # Drift at the table level *and* the smuggled name in the
        # generated source itself — two independent tripwires.
        assert rules == [RULE_DRIFT, RULE_NAME]

    def test_block_template_mutation_is_caught(self, repro_session):
        """The frontend's block emitter is audited like the turbo one:
        a template smuggling a free name, reaching for an attribute
        other than state.icc/state.fcc, or growing a new statement
        shape yields findings of exactly that rule, on the emitter's file."""
        for mutation, rule in (
                (" regs[{d}] = _leak({a} + {b})", RULE_NAME),
                (" regs[{d}] = ({a} + {b} + state.pc) & 4294967295",
                 RULE_ATTR),
                (" while {a}: regs[{d}] = {b}", RULE_SHAPE)):
            with mock.patch.dict(threaded.BLOCK_TEMPLATES,
                                 {"add": mutation}):
                findings = self._codegen_findings(repro_session)
            # One finding per generated line of the mutated shape.
            assert {f.rule for f in findings} == {rule}, mutation
            assert all("[block 'add']" in f.message for f in findings)
            assert all(f.path.endswith(
                os.path.join("emulator", "threaded.py"))
                for f in findings)

    def test_audit_blocks_cover_every_straight_line_opcode(self):
        """...and one event function per conditional branch and jmpl."""
        blocks = dict(build_audit_blocks())
        labels = set(blocks)
        assert {"add", "subcc", "sdiv", "ldb", "stdf", "fdiv", "fcmp",
                "fitod", "fdtoi", "sethi", "out", "nop"} <= labels
        events = {opcode_info(op).mnemonic
                  for op in threaded.BRANCH_CONDITIONS} | {"jmpl"}
        assert {"bne", "bleu", "fbge", "jmpl"} <= events <= labels
        assert not labels & {"ba", "bn", "call", "halt"}
        assert len(labels) == 41 + 15 and len(events) == 15
        for label in sorted(events):
            *body, terminator = blocks[label]
            lines = []
            assert all(threaded.emit_instruction(i, lines) for i in body)
            assert threaded.emit_event(terminator, len(body), lines), label

    def test_event_tail_mutations_are_caught(self, repro_session):
        """The event tail is the only place PC, instret, the control
        queue, the predictor and the bQ may be touched, and it returns
        exactly once, last."""
        cond = threaded.BLOCK_TEMPLATES["event_cond"]
        for key, mutation, rule in (
                # A body line that commits the PC before it can fault...
                ("ea", " state.pc = 0\n a = ({a} + {b}) & 4294967295",
                 RULE_ATTR),
                # ...or that appends to ``controls``.
                ("load_record", " lq(a)\n cq(a)", RULE_NAME),
                # A tail that returns early, or reads a new attribute.
                ("event_cond",
                 cond.replace(" cq(rec)\n", " return rec\n cq(rec)\n"),
                 RULE_SHAPE),
                ("event_cond", cond.replace(", state, {target}",
                                            ", state.memory, {target}"),
                 RULE_ATTR)):
            with mock.patch.dict(threaded.BLOCK_TEMPLATES,
                                 {key: mutation}):
                findings = self._codegen_findings(repro_session)
            assert findings and {f.rule for f in findings} == {rule}, key
            assert all(f.path.endswith(
                os.path.join("emulator", "threaded.py"))
                for f in findings)

    def test_segment_reading_a_record_field_is_caught(self, repro_session):
        """The queues are flat: ``lq[i]`` *is* the address."""
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "load_issue": "    i = lb + {index}; "
                              "r = c_il(i, lq[i].address, c + {cycles})"}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_ATTR]
        assert "lq[i].address" in findings[0].message
        # ...and is read at the index the segment computed, only.
        with mock.patch.dict(compiler.SEG_TEMPLATES, {
                "store_issue": "    i = sb + {index}; "
                               "r = c_st(sq[i], sqw[0], c + {cycles})"}):
            findings = self._codegen_findings(repro_session)
        assert [f.rule for f in findings] == [RULE_SHAPE]
        assert "'sqw[i]'" in findings[0].message

    def test_drift_findings_anchor_at_the_bindings_table(self, repro_session):
        with mock.patch.dict(compiler.WORLD_BINDINGS, {
                "w_x": "world.hack"}):
            finding = self._codegen_findings(repro_session)[0]
        assert finding.path.endswith(os.path.join("memo", "compile.py"))
        assert finding.line > 1
