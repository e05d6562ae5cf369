"""Span tracer for the benchmark's traced runs.

The package itself carries no instrumentation. The tracer replaces each
public function of the qtangle layers (``states``, ``qstate``, ``tangles``,
``monogamy``, ``harness``, ``cli``) with a timing wrapper under every name a
module binds it to, so ``monogamy.three_tangle_upper`` is timed as well as
``tangles.three_tangle_upper``. Spans are nested with a stack.

A call into another layer is a layer boundary; a call within one layer is
not. So a span's self time is its duration minus the time spent below it in
other layers: ``tangles.three_tangle_upper`` keeps the time of the
``tangles.wclass_roots`` and ``tangles.simplex_member`` calls it makes, and
loses that of ``qstate.rank2_decompose``. Entry spans, those called from
another layer or from nowhere, split the traced wall time between the
layers without overlap.

Spans stay in memory. A forked ``multiprocessing`` worker inherits the
wrappers; it appends the spans of each finished top-level call to a
per-process file, which the parent reads back with ``collect_children``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

LAYERS = ("states", "qstate", "tangles", "monogamy", "harness", "cli")
# The CLI's own work (argument parsing, the table1 CSV) counts as harness.
LAYER_OF = {layer: layer for layer in LAYERS} | {"cli": "harness"}
# Private functions that are still layer boundaries: the per-sample task of a
# campaign, the unit of work a Pool worker would run.
EXTRA_TARGETS = {"harness": ("_sample_rows",)}
CLASSMETHODS = {"qstate": (("DensityMatrix", "from_entries"), ("PureState", "from_amplitudes"))}


def _result_tag(name: str, result):
    """Per-call facts recorded next to the timing."""
    if name == "tangles.three_tangle_upper":
        return result.method
    if name == "tangles.wclass_roots":
        return sum(z is None for z in result.roots)
    return None


def layer_of(name: str) -> str:
    return LAYER_OF[name.split(".")[0]]


class Span(NamedTuple):
    name: str
    parent: str | None  # name of the span that caused this one
    request: int  # benchmark round the span belongs to
    start: float
    duration: float
    self_time: float  # duration minus the time below it in other layers
    tag: object  # see _result_tag
    pid: int  # process that ran the call

    @property
    def entry(self) -> bool:
        return self.parent is None or layer_of(self.parent) != layer_of(self.name)


class Tracer:
    def __init__(self, child_dir: Path):
        self.child_dir = Path(child_dir)
        self.spans: list[Span] = []
        self.request = 0
        self._pid = os.getpid()
        self._in_child = False
        self._stack: list[list] = []  # [name, layer, seconds spent in other layers]
        self._patches: list[tuple] = []

    def call(self, name: str, layer: str, fn, args, kwargs):
        if os.getpid() != self._pid:
            self._forked()
        stack = self._stack
        frame = [name, layer, 0.0]
        stack.append(frame)
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            dur = perf_counter() - t0
            stack.pop()
            parent = None
            if stack:
                up = stack[-1]
                up[2] += frame[2] if up[1] == frame[1] else dur
                parent = up[0]
            tag = _result_tag(name, result) if result is not None else None
            self.spans.append(Span(name, parent, self.request, t0, dur, dur - frame[2], tag, self._pid))
            if self._in_child and not stack:
                self._flush_child()

    def _forked(self):
        """First call in a forked worker: drop what the parent had recorded."""
        self._pid = os.getpid()
        self._in_child = True
        self._stack = []
        self.spans = []

    def _flush_child(self):
        with open(self.child_dir / f"child-{self._pid}.jsonl", "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect_children(self) -> list[Span]:
        """Spans written by worker processes since the last collection."""
        spans = []
        for path in sorted(self.child_dir.glob("child-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    spans.extend(Span(*s) for s in json.loads(line))
            path.unlink()
        return spans

    # -- installing the wrappers -------------------------------------------------

    def _wrap(self, name: str, fn):
        layer = layer_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function under every name the package binds it to."""
        modules = {layer: sys.modules[f"qtangle.{layer}"] for layer in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in EXTRA_TARGETS.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{layer}.{attr}"
        nnls = getattr(sys.modules.get("scipy.optimize"), "nnls", None)
        if nnls is not None:
            targets[nnls] = "tangles.nnls"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        bindings = [sys.modules["qtangle"], *modules.values()]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for layer, pairs in CLASSMETHODS.items():
            for cls_name, meth in pairs:
                cls = getattr(modules[layer], cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if isinstance(original, classmethod):
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patches.append((cls, meth, original))
                    setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
