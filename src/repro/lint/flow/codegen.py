"""Codegen contracts (flow family 3).

``repro.memo.compile`` (replay segments) and
``repro.emulator.threaded`` (the frontend's basic blocks) generate
Python at runtime and ``exec`` it on the hot path. A code generator is
the one part of the simulator a source-level lint cannot see — unless
the lint *runs* it. This family compiles representative action chains
(every node kind, guards, terminals, inlined and table keys), one
basic block per straight-line opcode (register, immediate,
``%g0``-source and ``%g0``-destination forms) and one event function
per conditional-branch opcode and for ``jmpl``, captures the generated
source, parses it, and enforces the contract that keeps compiled
replay bit-identical to interpreted replay and generated blocks
identical to ``Interpreter.step()``:

``flow/codegen-name`` (error)
    Generated code references a name outside the whitelist. Segments:
    the parameters (``world``/``R``/``K``/``ctl_a``), the entry
    bindings (``WORLD_BINDINGS``) and three temporaries
    (``i``/``r``/``rec``). Blocks: the emitter's namespace table
    (``BLOCK_BINDINGS`` + ``BLOCK_HELPERS``) and its temporaries
    (``BLOCK_LOCALS``) — less ``EVENT_NAMES`` (control queue, predictor,
    ``bQ``, record class) anywhere but in an event tail. Any other name
    is smuggled state.

``flow/codegen-attr`` (error)
    Segments replay against the world's *state*: they read
    ``world.cycle/lq_base/sq_base/_lq/_sq/_sqw``, call
    ``world.get_control`` / ``world.rollback`` and the cache-port
    methods the ``World`` wrappers themselves call — exactly the
    ``WORLD_BINDINGS`` targets — plus ``rec.outcome_key``; the flat
    queues are read as ``lq[i]`` / ``sq[i]`` / ``sqw[i]`` and in no
    other way. Any other attribute, and **any assignment to an
    attribute** (the engine settles clock, cursors and statistics at
    the exit), is a finding. Blocks: ``state.icc`` / ``state.fcc``
    only, plus ``state.pc`` / ``state.instret`` in an event tail — a
    body that touches either would commit before it can fault. The
    attribute surface *is* the side-effect surface.

``flow/codegen-shape`` (error)
    A generated segment statement deviates from the allowed shapes
    (binding, temporary, reply call, effect call, guard, return), a
    cache-port call's clock argument is not ``c + <const>``, a queue
    alias is used other than as ``<alias>[i]``, or a block statement is
    anything but an assignment, a call, or an ``if`` around those (an
    event tail may also ``+=`` and must ``return`` only as the last
    statement of its block). New shapes mean the emitter grew behavior
    the contract never reviewed.

``flow/codegen-drift`` (error)
    :data:`~repro.memo.compile.WORLD_BINDINGS` has diverged from what
    it stands in for — the cache-port calls and world reads of
    ``World.issue_load/poll_load/issue_store`` (:data:`FOLDED_WRAPPERS`)
    and the interpreted replay loop's world calls, less those deferred
    to the exit (:data:`EXIT_CONTRACT`) — or a
    :data:`~repro.memo.compile.SEG_TEMPLATES` entry references an alias
    the table does not define. Drift here is how "bit-identical with
    turbo on or off" silently stops being true.

Both reference sides are derived *statically* from the session's module
graph (``FastForwardEngine._replay`` and the three ``World`` wrappers),
so the cross-check needs no live engine and works on fixture packages.
"""

from __future__ import annotations

import ast
import re
import textwrap
from typing import Dict, Iterator, List, Set, Tuple

#: A ``str.format`` replacement field inside a SEG_TEMPLATES entry.
_FORMAT_FIELD_RE = re.compile(r"\{[^{}]*\}")

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ProjectChecker, register_project

RULE_NAME = "flow/codegen-name"
RULE_ATTR = "flow/codegen-attr"
RULE_SHAPE = "flow/codegen-shape"
RULE_DRIFT = "flow/codegen-drift"

#: Parameters of every generated segment function.
SEG_PARAMS = ("world", "R", "K", "ctl_a")

#: Temporaries generated code may bind beside the WORLD_BINDINGS
#: aliases: absolute queue index and the two reply captures.
SEG_LOCALS = ("i", "r", "rec")

#: Attributes generated code may read off a non-world object: the
#: control record's key slot.
RECORD_READS = frozenset({"rec.outcome_key"})

#: The only expressions a flat-queue alias may appear in.
QUEUE_READS = frozenset({"lq[i]", "sq[i]", "sqw[i]"})

#: World wrappers a segment inlines: it calls their cache-port callee
#: directly, with the cursor and clock they would have read folded in.
FOLDED_WRAPPERS = ("issue_load", "poll_load", "issue_store")

#: World methods a segment never calls because their whole effect is a
#: compile-time constant the engine applies at every exit.
EXIT_CONTRACT = frozenset({"advance_cycles", "retire"})

#: A cache-port call's clock argument: entry clock + cycles so far.
_CLOCK_RE = re.compile(r"c \+ \d+")

_PORT_PREFIX = "world.cache."


def build_audit_chains():
    """Representative action chains covering every emitter path.

    Returns ``[(label, head, node_count)]``. Built from the real node
    classes so the audit compiles exactly what production would.
    """
    from repro.memo.actions import (
        AdvanceNode,
        ConfigNode,
        ControlNode,
        EndNode,
        LoadIssueNode,
        LoadPollNode,
        RetireNode,
        RollbackNode,
        StoreIssueNode,
    )
    from repro.uarch.interactions import Retire, Rollback

    chains = []

    # 1. Linear folding: advances and retires emit nothing; the
    #    rollback's control ordinal absorbs the retired controls.
    a1, a2 = AdvanceNode(3), AdvanceNode(2)
    retire = RetireNode(Retire(4, 1, 1, 1, 1))
    rollback = RollbackNode(Rollback(2, 1, 0, 0))
    end = EndNode(0)
    a1.next, a2.next, retire.next, rollback.next = a2, retire, rollback, end
    chains.append(("linear", a1, 4))

    # 2. Guarded outcomes: one of each kind, single-edge (inlinable
    #    int key, then a non-inlinable tuple-of-list key through K).
    adv = AdvanceNode(1)
    load = LoadIssueNode(0)
    poll = LoadPollNode(0)
    store = StoreIssueNode(1)
    tail = EndNode(0)
    adv.next = load
    load.edges[7] = poll
    poll.edges[(3, (1, 2))] = store
    store.edges[5] = tail
    chains.append(("guards", adv, 4))

    # 3. Control guard + config pass-through + dynamic terminal.
    config = ConfigNode(b"\x01\x02", 2)
    ctl = ControlNode()
    adv2 = AdvanceNode(9)
    terminal = ControlNode()
    head = AdvanceNode(1)
    head.next = config
    config.next = ctl
    ctl.edges[("ctl", 0, True)] = adv2
    adv2.next = terminal
    terminal.edges[("ctl", 1, True)] = EndNode(0)
    terminal.edges[("ctl", 1, False)] = EndNode(1)
    chains.append(("control-terminal", head, 5))

    return chains


def build_audit_blocks():
    """One basic block per straight-line opcode, one event function per
    conditional-branch opcode and one for ``jmpl``.

    Returns ``[(mnemonic, [Instruction, ...])]``. A straight-line block
    holds the opcode in register, immediate, ``%g0``-source and
    ``%g0``-destination form; an event block is a load and a store
    ended by the terminator — all produced by the real decoder so the
    operand fields are exactly what the frontend would see.
    """
    from repro.emulator.threaded import BRANCH_CONDITIONS
    from repro.isa.encoding import decode
    from repro.isa.opcodes import Format, Opcode, opcode_info

    def at(address, opcode, rd, rs1, low):
        return decode(opcode << 24 | rd << 19 | rs1 << 14 | low, address)

    control = (Format.BRANCH, Format.CALL, Format.JMPL)
    # (rd, rs1, low 14 bits: rs2, or the i-bit and an immediate); to a
    # branch the same bits are just a displacement.
    forms = ((3, 1, 2), (3, 1, (1 << 13) | 5), (3, 0, 2), (0, 1, 2))
    body = [at(0x1000, Opcode.LD, *forms[1]), at(0x1004, Opcode.ST, *forms[1])]
    blocks = []
    for opcode in Opcode:
        info = opcode_info(opcode)
        if opcode in BRANCH_CONDITIONS or opcode is Opcode.JMPL:
            blocks.append((info.mnemonic,
                           body + [at(0x1008, opcode, *forms[1])]))
        elif info.fmt not in control and opcode is not Opcode.HALT:
            blocks.append((info.mnemonic,
                           [at(0x1000, opcode, *form) for form in forms]))
    return blocks


def interpreter_world_calls(session) -> Set[str]:
    """World methods the interpreted replay loop calls, derived
    statically from the session's parsed ``engine`` module."""
    methods: Set[str] = set()
    for qualname in session.callgraph.match_suffix(
            "FastForwardEngine._replay"):
        fn = session.callgraph.functions[qualname]
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                owner, _, method = ast.unparse(node.func).rpartition(".")
                if owner in ("world", "self.world"):
                    methods.add(method)
    return methods


def world_wrapper_surface(session) -> Tuple[Set[str], Set[str]]:
    """``(cache-port methods called, world attributes read)`` by the
    :data:`FOLDED_WRAPPERS`, derived statically from ``World``'s source
    in the session (both empty when the package has no ``World``)."""
    port: Set[str] = set()
    reads: Set[str] = set()
    for wrapper in FOLDED_WRAPPERS:
        for qualname in session.callgraph.match_suffix("World." + wrapper):
            fn = session.callgraph.functions[qualname]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Attribute):
                    parts = ast.unparse(node).split(".")
                    if parts[:2] == ["self", "cache"]:
                        port.update(parts[2:3])
                    elif parts[0] == "self" and len(parts) == 2:
                        reads.add(parts[1])
    return port, reads - {"cache"}


class _GeneratedSourceAuditor:
    """Parses one captured segment source and checks the contract."""

    kind = "chain"

    def __init__(self, path: str, label: str, source: str,
                 bindings: Dict[str, str]):
        self.path = path
        self.label = label
        self.source = source
        self.allowed_attrs = set(bindings.values()) | RECORD_READS
        self.port_aliases = {alias for alias, target in bindings.items()
                             if target.startswith(_PORT_PREFIX)}
        self.allowed_names = (set(SEG_PARAMS) | set(SEG_LOCALS)
                              | set(bindings))
        self.findings: List[Finding] = []

    def _emit(self, rule: str, message: str, line: int = 1) -> None:
        self.findings.append(Finding(
            path=self.path, line=line, col=1, rule=rule,
            severity=Severity.ERROR,
            message=f"[{self.kind} '{self.label}'] {message}",
        ))

    def audit(self) -> List[Finding]:
        try:
            tree = ast.parse(self.source)
        except SyntaxError as exc:
            self._emit(RULE_SHAPE,
                       f"generated source does not parse: {exc.msg}",
                       exc.lineno or 1)
            return self.findings
        if (len(tree.body) != 1
                or not isinstance(tree.body[0], ast.FunctionDef)):
            self._emit(RULE_SHAPE,
                       "generated module must be exactly one function")
            return self.findings
        self._audit_function(tree.body[0])
        return self.findings

    def _audit_function(self, fn: ast.FunctionDef) -> None:
        self._check_names(fn, self.allowed_names)
        self._check_attrs(fn, self.allowed_attrs)
        self._check_queue_reads(fn)
        for statement in fn.body:
            self._check_shape(statement)

    def _check_names(self, tree: ast.AST, allowed: Set[str]) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if node.id not in allowed:
                    self._emit(
                        RULE_NAME,
                        f"generated code references name "
                        f"'{node.id}' outside the {self.kind} whitelist",
                        node.lineno,
                    )

    def _check_queue_reads(self, fn: ast.FunctionDef) -> None:
        """A flat-queue alias is only ever indexed by ``i``."""
        aliases = {read.partition("[")[0] for read in QUEUE_READS}
        reads = {id(node.value) for node in ast.walk(fn)
                 if isinstance(node, ast.Subscript)
                 and ast.unparse(node) in QUEUE_READS}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Name) and node.id in aliases
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in reads):
                self._emit(
                    RULE_SHAPE,
                    f"queue alias '{node.id}' is used other than as "
                    f"'{node.id}[i]': a segment reads one entry of a "
                    "flat queue, at the index it computed",
                    node.lineno,
                )

    def _check_attrs(self, tree: ast.AST, allowed: Set[str]) -> None:
        attributes = [node for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)]
        # ``world.cache`` inside ``world.cache.issue_load`` is judged
        # as part of the chain it belongs to.
        inner = {id(node.value) for node in attributes}
        for node in attributes:
            if (id(node) not in inner
                    and ast.unparse(node) not in allowed):
                self._emit(
                    RULE_ATTR,
                    f"generated code accesses {ast.unparse(node)}, "
                    f"outside the {self.kind} contract's attribute "
                    "surface",
                    node.lineno,
                )

    def _check_shape(self, statement: ast.stmt) -> None:
        line = getattr(statement, "lineno", 1)
        for node in ast.walk(statement):
            # A cache-port call's last argument is ``c + <constant>``.
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in self.port_aliases
                    and not (node.args and _CLOCK_RE.fullmatch(
                        ast.unparse(node.args[-1])))):
                self._emit(
                    RULE_SHAPE,
                    f"cache-port call {ast.unparse(node)} does not "
                    "pass 'c + <cycles so far>' as its clock: the "
                    "access would replay at the wrong cycle",
                    line,
                )
        if isinstance(statement, ast.Assign):
            target = statement.targets[0]
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._emit(
                    RULE_ATTR,
                    f"generated code assigns {ast.unparse(target)}; a "
                    "segment never writes world or queue state (the "
                    "engine settles clock, cursors and statistics at "
                    "the exit)",
                    line,
                )
                return
            if (len(statement.targets) == 1
                    and isinstance(target, ast.Name)
                    and isinstance(statement.value,
                                   (ast.Attribute, ast.Call, ast.BinOp,
                                    ast.Subscript))):
                return  # binding, index/record temporary, reply call
        elif isinstance(statement, ast.Expr):
            if isinstance(statement.value, ast.Call):
                return  # effect call (w_rb/ctl_a)
        elif isinstance(statement, ast.If):
            test = statement.test
            if (isinstance(test, ast.Compare)
                    and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.NotEq)
                    and len(statement.body) == 1
                    and not statement.orelse
                    and isinstance(statement.body[0], ast.Return)):
                return  # guard with side-exit return
        elif isinstance(statement, ast.Return):
            return
        self._emit(
            RULE_SHAPE,
            f"generated statement shape {type(statement).__name__} is "
            "outside the segment contract (binding / temporary / reply "
            "call / effect call / guard / return)",
            line,
        )


class _BlockSourceAuditor(_GeneratedSourceAuditor):
    """The same audit for one generated block function: names from the
    block emitter's namespace table, ``state.icc``/``state.fcc`` the
    only attributes — and, from the first line of its event *tail* on,
    the emitter's ``EVENT_NAMES`` / ``EVENT_STATE_ATTRS`` too."""

    kind = "block"

    def __init__(self, path: str, label: str, emitter,
                 lines: List[str], tail: List[str]):
        super().__init__(path, label, emitter.block_source(lines + tail),
                         {})
        # Line 1 is the header; a template may span several lines.
        self.tail_line = 2 + sum(line.count("\n") + 1 for line in lines)
        self.allowed_names = (set(emitter.BLOCK_BINDINGS)
                              | set(emitter.BLOCK_HELPERS)
                              | set(emitter.BLOCK_LOCALS))
        self.body_names = self.allowed_names - set(emitter.EVENT_NAMES)
        self.body_attrs = {f"state.{attr}"
                           for attr in emitter.BLOCK_STATE_ATTRS}
        self.allowed_attrs = self.body_attrs | {
            f"state.{attr}" for attr in emitter.EVENT_STATE_ATTRS}

    def _audit_function(self, fn: ast.FunctionDef) -> None:
        for statement in fn.body:
            in_tail = statement.lineno >= self.tail_line
            self._check_names(statement, self.allowed_names if in_tail
                              else self.body_names)
            self._check_attrs(statement, self.allowed_attrs if in_tail
                              else self.body_attrs)
            self._check_block_shape(statement, in_tail,
                                    statement is fn.body[-1])

    def _check_block_shape(self, statement: ast.stmt, in_tail: bool,
                           last: bool) -> None:
        if isinstance(statement, ast.Assign):
            return
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Call)):
            return
        if in_tail and (isinstance(statement, ast.AugAssign)
                        or last and isinstance(statement, ast.Return)):
            return
        if isinstance(statement, ast.If) and not statement.orelse:
            for inner in statement.body:
                self._check_block_shape(inner, in_tail,
                                        inner is statement.body[-1])
            return
        self._emit(
            RULE_SHAPE,
            f"generated statement shape {type(statement).__name__} is "
            "outside the block contract (assignment / call / if; in an "
            "event tail also '+=' and a closing return)",
            getattr(statement, "lineno", 1),
        )


def _template_aliases(template: str) -> Set[str]:
    """Names a SEG_TEMPLATES entry references outside its fields.

    Format fields are substituted with a dummy literal so the template
    parses as the statement it will expand to (``w_rb(R[{index}])``
    becomes ``w_rb(R[0])``); any :class:`ast.Name` left is an alias
    the template hardcodes. Templates whose fields *are* the statement
    structure (the ``bind`` line) do not parse and contribute nothing
    — their aliases come straight from ``WORLD_BINDINGS``.
    """
    names: Set[str] = set()
    rendered = _FORMAT_FIELD_RE.sub("0", template)
    try:
        tree = ast.parse(textwrap.dedent(rendered).strip() or "pass")
    except SyntaxError:
        return names
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


@register_project
class CodegenContractChecker(ProjectChecker):
    """Flow family 3: audit the generated source of the turbo emitter
    (cross-checked against the interpreter's side-effect set) and of
    the frontend's block and event emitter."""

    name = "flow-codegen"
    rules = (RULE_NAME, RULE_ATTR, RULE_SHAPE, RULE_DRIFT)

    def check(self, session) -> Iterator[Finding]:
        yield from self._check_segments(session)
        yield from self._check_blocks(session)

    def _check_blocks(self, session) -> Iterator[Finding]:
        module = session.emitter_module("emulator.threaded")
        if module is None:
            return  # package has no block emitter; nothing to audit
        from repro.emulator import threaded as emitter

        for label, instructions in build_audit_blocks():
            lines: List[str] = []
            tail: List[str] = []
            for count, instr in enumerate(instructions):
                if not emitter.emit_instruction(instr, lines):
                    emitter.emit_event(instr, count, tail)
            if lines or tail:
                yield from _BlockSourceAuditor(
                    module.path, label, emitter, lines, tail).audit()

    def _check_segments(self, session) -> Iterator[Finding]:
        compile_module = session.emitter_module("memo.compile")
        if compile_module is None:
            return  # package has no turbo emitter; nothing to audit
        path = compile_module.path
        from repro.memo import compile as compiler

        bindings = dict(compiler.WORLD_BINDINGS)
        yield from self._check_drift(session, path, compiler, bindings)
        for label, head, _count in build_audit_chains():
            segment = compiler.compile_segment(head, generation=0,
                                               capture_source=True)
            auditor = _GeneratedSourceAuditor(
                path, label, segment.source, bindings)
            yield from auditor.audit()

    def _check_drift(self, session, path: str, compiler,
                     bindings: Dict[str, str]) -> Iterator[Finding]:
        line = self._bindings_line(session, path)

        def drift(message: str) -> Finding:
            return Finding(path=path, line=line, col=1, rule=RULE_DRIFT,
                           severity=Severity.ERROR, message=message)

        interp = interpreter_world_calls(session)
        port, reads = world_wrapper_surface(session)
        folded = set(FOLDED_WRAPPERS) | EXIT_CONTRACT
        bound = set(bindings.values())
        expected = ({f"world.{name}" for name in reads | interp - folded}
                    | {_PORT_PREFIX + method for method in port})
        if interp and port:
            for targets, message in (
                (bound - expected,
                 "WORLD_BINDINGS exposes {}, which neither the World "
                 "load/store wrappers nor the interpreted replay loop "
                 "use"),
                (expected - bound,
                 "replay uses {} but WORLD_BINDINGS cannot emit it; a "
                 "segment would skip that access or effect"),
                ({f"world.{name}" for name in folded - interp},
                 "the emitter folds {}, which the interpreted replay "
                 "loop never calls"),
            ):
                for target in sorted(targets):
                    yield drift(message.format(target) + "; compiled "
                                "and interpreted replay must share one "
                                "surface")
        # Every alias a template mentions must be bindable.
        bindable = set(bindings) | set(SEG_PARAMS) | set(SEG_LOCALS)
        for key in sorted(compiler.SEG_TEMPLATES):
            for name in sorted(
                    _template_aliases(compiler.SEG_TEMPLATES[key])):
                if name not in bindable:
                    yield drift(
                        f"SEG_TEMPLATES['{key}'] references '{name}', "
                        "which WORLD_BINDINGS does not define and the "
                        "segment signature does not provide")

    @staticmethod
    def _bindings_line(session, path: str) -> int:
        info = session.modgraph.by_path.get(path)
        if info is None:
            return 1
        for node in info.tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name)
                            and t.id == "WORLD_BINDINGS"
                            for t in node.targets)):
                return node.lineno
        return 1
