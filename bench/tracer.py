"""Outside-in span tracer for the corrugate layers.

The tracer replaces each public function of a layer module with a timing
wrapper at every binding inside the ``corrugate`` package (the defining
module, the package namespace, and every module that imported the name),
so calls between layers and within a layer are both recorded. Nothing in
the package itself changes, and ``uninstall`` restores every binding.

Spans are aggregated in memory into a call tree keyed by function name:
one node per distinct call path, holding its call count, its total time
and the time its child spans cover. A node's self time is its total
minus that covered time, so the self times of all nodes add up to the
time spent under the outermost traced calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: the program's layers, one per module (``cli`` only dispatches)
LAYERS = ("grid", "decompose", "frame", "corrugation", "driver",
          "leastnorm", "smoothing", "flow", "fieldio")

#: numpy transforms counted per layer as ``<layer>.fft_calls``
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


class Node:
    """Aggregated spans of one call path."""

    __slots__ = ("name", "parent", "children", "calls", "total", "covered")

    def __init__(self, name: str, parent: "Node | None"):
        self.name = name
        self.parent = parent
        self.children: dict[str, Node] = {}
        self.calls = 0
        self.total = 0.0
        self.covered = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_time(self) -> float:
        return self.total - self.covered

    def walk(self):
        """This node and every descendant, depth first."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def to_dict(self) -> dict:
        return {"name": self.name, "calls": self.calls, "total_s": self.total,
                "self_s": self.self_time,
                "children": [c.to_dict() for c in self.children.values()]}


class Tracer:
    """Span recorder with per-function count hooks.

    ``hooks`` maps a qualified name such as ``"frame.normal_pair"`` to an
    object with optional ``enter(tracer, node, args, kwargs)`` and
    ``exit(tracer, node, args, kwargs, result)`` callables; they add to
    ``tracer.counts``. Recording happens only while ``active`` is true.
    """

    def __init__(self, hooks=None, clock=time.perf_counter):
        self.root = Node("root", None)
        self.current = self.root
        self.counts: dict[str, float] = {}
        self.state: dict = {}
        self.hooks = hooks or {}
        self.clock = clock
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        """Timing wrapper recording each call of ``fn`` as span ``name``."""
        hook = self.hooks.get(name)
        enter = getattr(hook, "enter", None)
        leave = getattr(hook, "exit", None)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self.current
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name, parent)
            if enter is not None:
                enter(self, node, args, kwargs)
            self.current = node
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                node.calls += 1
                node.total += elapsed
                parent.covered += elapsed
                self.current = parent
            if leave is not None:
                leave(self, node, args, kwargs, result)
            return result

        return traced

    def _counted(self, suffix: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.add(f"{self.current.layer}.{suffix}")
            return fn(*args, **kwargs)

        return counted

    def _bind(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of each layer at every binding in
        the ``corrugate`` package, and count numpy FFT calls by the
        innermost layer."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"corrugate.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "corrugate" or key.startswith("corrugate.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bind(module, attr, wrappers[obj])
        import numpy.fft
        for attr in FFT_NAMES:
            self._bind(numpy.fft, attr, self._counted("fft_calls", getattr(numpy.fft, attr)))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for node in self.root.walk():
            if node is not self.root:
                out[node.layer] = out.get(node.layer, 0.0) + node.self_time
        return out

    def nodes(self, name: str):
        """Every node recording calls of function ``name``."""
        return [n for n in self.root.walk() if n.name == name]
