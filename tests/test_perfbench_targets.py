"""perfbench's traced runs wrap ``src/repro`` code by name: the names exist.

``perfbench/layers.py`` lists the functions and methods a traced
benchmark run replaces with span-recording wrappers, by module and
attribute path.  Renaming or deleting one in ``src/`` breaks the traced
runs with a ``KeyError`` or ``AttributeError``; this resolves every
target the way ``perfbench.spans.install`` does (import the module,
walk the attribute path, then ``owner.__dict__[name]`` on a class)
without wrapping anything, and imports every module a launched command
loads before it reports ready.
"""

import importlib

import pytest

from perfbench.layers import BROKER, CLIENT, COMMANDS, SIMULATION, STREAM

TARGETS = sorted({(target.module, target.attr)
                  for targets in (SIMULATION, STREAM, BROKER, CLIENT,
                                  *(wrapped for _, wrapped
                                    in COMMANDS.values()))
                  for target in targets})

COMMAND_MODULES = sorted({module for modules, _ in COMMANDS.values()
                          for module in modules})


def resolve(module: str, attr: str) -> object:
    owner: object = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner.__dict__[name]
    return getattr(owner, name)


@pytest.mark.parametrize("module, attr", TARGETS,
                         ids=[f"{module}:{attr}" for module, attr in TARGETS])
def test_wrapped_target_exists(module, attr):
    value = resolve(module, attr)
    if isinstance(value, (staticmethod, classmethod)):
        value = value.__func__
    assert callable(value)


@pytest.mark.parametrize("module", COMMAND_MODULES)
def test_command_module_imports(module):
    importlib.import_module(module)

