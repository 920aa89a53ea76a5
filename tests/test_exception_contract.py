"""No handler looks at the simulated machine after it threw.

Two pieces of generated code keep state in locals and commit late: a
compiled segment leaves ``world.cycle`` and the queue cursors at their
entry values until it exits (``repro.memo.compile``), and an event
function leaves PC, instret, the predictor, ``controls`` and the bQ
untouched until its body has run (``repro.emulator.threaded``). An
exception from inside either therefore finds the world *behind* where
interpreted replay, or the step path, would have left it. That is sound
only because a ``SimulationError`` / ``EmulationError`` is fatal to the
run: nothing may catch one and then read a ``World`` or a frontend's
architectural state. This test holds ``src/repro`` to it.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Handler types that catch a SimulationError or an EmulationError
#: (their bases, themselves, and the one subclass; None is a bare
#: ``except``).
CATCHERS = {None, "BaseException", "Exception", "ReproError",
            "SimulationError", "EmulationError", "MemoryFault"}

#: A name or attribute spelled like this is the simulated machine.
MACHINE = {"world", "frontend", "state"}


def _caught(handler):
    if handler.type is None:
        return {None}
    elts = (handler.type.elts if isinstance(handler.type, ast.Tuple)
            else [handler.type])
    return {ast.unparse(elt).rpartition(".")[2] for elt in elts}


def _machine_reads(nodes):
    return sorted(
        (node.lineno, ast.unparse(node))
        for root in nodes for node in ast.walk(root)
        if (isinstance(node, ast.Name) and node.id in MACHINE)
        or (isinstance(node, ast.Attribute) and node.attr in MACHINE))


def _after(handler, try_node, ancestors):
    """Everything that can run once *handler* has caught: its body, and
    unless that ends by leaving the function, the try's ``finally``,
    every enclosing loop (it may come round again) and the rest of the
    enclosing function."""
    reached = list(handler.body)
    if isinstance(handler.body[-1], (ast.Raise, ast.Return)):
        return reached
    reached += try_node.finalbody
    for ancestor in reversed(ancestors):
        if isinstance(ancestor, (ast.For, ast.While)):
            reached.append(ancestor)
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Module)):
            reached += [node for node in ast.walk(ancestor)
                        if isinstance(node, ast.stmt)
                        and node.lineno > try_node.end_lineno]
            break
    return reached


def _violations(tree, path="<test>"):
    found = []

    def visit(node, ancestors):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                if _caught(handler) & CATCHERS:
                    for line, text in _machine_reads(
                            _after(handler, node, ancestors)):
                        found.append(
                            f"{path}:{handler.lineno}: handler reaches "
                            f"'{text}' at line {line}")
        for child in ast.iter_child_nodes(node):
            visit(child, ancestors + [node])

    visit(tree, [])
    return found


def test_no_handler_reads_the_machine_after_a_simulation_error():
    handlers = 0
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        handlers += sum(bool(_caught(handler) & CATCHERS)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.Try)
                        for handler in node.handlers)
        problems += _violations(tree, str(path.relative_to(SRC)))
    assert handlers >= 5            # the walk is not vacuous
    assert problems == []


def test_the_walk_catches_each_way_of_reading_it():
    def check(source):
        return _violations(ast.parse(source))

    # In the handler itself; after it, when it falls through; in a
    # loop it sits in; through a narrower or a broader type.
    assert check("try:\n run()\nexcept SimulationError:\n"
                 " log(self.world.cycle)\n")
    assert check("def f(sim):\n try:\n  run()\n"
                 " except Exception:\n  pass\n return sim.frontend.state\n")
    assert check("def f(world):\n while world.cycle < 9:\n  try:\n"
                 "   run()\n  except (KeyError, MemoryFault):\n"
                 "   continue\n")
    assert check("try:\n run()\nexcept:\n print(state.pc)\n")
    # Not: a handler that cannot catch one, one that re-raises or
    # returns, a read *before* the try, a write-back in ``finally``
    # (``_cold`` restores PC/instret that way, catching nothing).
    assert not check("try:\n run()\nexcept KeyError:\n"
                     " log(self.world.cycle)\n")
    assert not check("def f(world):\n cycle = world.cycle\n try:\n"
                     "  run()\n except SimulationError as exc:\n"
                     "  raise Wrapped(cycle) from exc\n return world\n")
    assert not check("def f(state):\n try:\n  run()\n finally:\n"
                     "  state.pc = 0\n")
