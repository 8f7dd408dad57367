import importlib
import inspect
import pkgutil

import numpy as np

import modrec
from modrec.blocks import Module
from modrec.numerics import Parameter, Tensor


def param(name):
    return Parameter(np.zeros(2), name)


class Leaf(Module):
    def __init__(self, name):
        self.w = param(f"{name}.w")


class Tree(Module):
    def __init__(self):
        self.a = param("a")
        self.size = 3
        self.plain = Tensor(np.zeros(2))  # not a Parameter
        self.child = Leaf("child")
        self.items = [Leaf("l0"), (param("t0"), "label")]
        self.table = {"x": param("dx"), "y": Leaf("dy"), "n": None}
        self.z = param("z")


def test_params_are_found_in_assignment_order():
    tree = Tree()
    assert [p.name for p in tree.params()] == ["a", "child.w", "l0.w", "t0", "dx", "dy.w", "z"]
    tree.a = param("a2")  # reassignment keeps the attribute's place
    assert tree.params()[0].name == "a2"


def test_only_module_defines_params():
    owners = []
    for info in pkgutil.iter_modules(modrec.__path__):
        module = importlib.import_module(f"modrec.{info.name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "params" in cls.__dict__):
                owners.append(cls.__qualname__)
    assert owners == ["Module"]
