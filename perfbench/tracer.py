"""Spans around calls into the qwalk modules, recorded from outside the package.

`Tracer.install()` replaces every public function of the ten layer modules
(and `NonAbelianGaugeField.links`) with a wrapper that records one span per
call, in every qwalk namespace that holds the function.  Nothing under
`src/` changes; `uninstall()` puts the originals back.  The per-step kernel
of the measured walk, `measured._branches`, is counted rather than spanned.

A span's duration runs from the wrapper's entry to its exit, so the
tracer's own bookkeeping for a call is charged to that call and not to its
caller.  Self time is the duration minus the durations of direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("lattice", "abelian", "nonabelian", "curved", "measured", "dirac",
          "config", "table", "experiments", "cli")

# functions that advance a walk; their site updates are the walk's site-steps
WALK_STEPS = frozenset({
    "lattice.step", "abelian.electric_step_1d", "abelian.em_step_2d",
    "nonabelian.nonabelian_step", "curved.curved_step_1p1",
    "curved.curved_step_1p2", "curved.evolve_1p2",
})

class Span:
    __slots__ = ("name", "key", "parent", "child", "t0", "t1", "steps", "sites", "nbytes")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.key = None
        self.steps = 1
        self.sites = 0
        self.nbytes = 0


def _field_arrays(value):
    """The amplitude array of a SpinorField, or the array itself."""
    amps = getattr(value, "amplitudes", None)
    if isinstance(amps, np.ndarray):
        return amps
    if isinstance(value, np.ndarray):
        return value
    return None


def _size_key(name, args):
    """Size and kind of a call: lattice shape, colors, coin kind, experiment."""
    if name == "experiments.run" and args:
        return (getattr(args[0], "experiment", "?"),)
    if name == "cli.main" and args and args[0]:
        return (str(args[0][0]),)
    if not args:
        return ()
    amps = getattr(args[0], "amplitudes", None)
    if not isinstance(amps, np.ndarray):
        return ()
    key = (amps.shape[:-1], amps.shape[-1] // 2)
    if name == "lattice.apply_coin" and len(args) > 1:
        key += ("uniform" if np.ndim(args[1]) == 2 else "field",)
    return key


class Tracer:
    """Records spans while installed; `take()` hands them over."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.iterations = 0
        self.installed = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        try:
            params = list(inspect.signature(fn).parameters)
        except (TypeError, ValueError):
            params = []
        steps_at = params.index("steps") if "steps" in params else None
        walks = name in WALK_STEPS

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack = tracer.stack
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
            span.key = _size_key(name, args)
            if steps_at is not None:
                steps = kwargs.get("steps")
                if steps is None and len(args) > steps_at:
                    steps = args[steps_at]
                if isinstance(steps, int):
                    span.steps = steps
            nbytes = 0
            for value in args:
                arr = _field_arrays(value)
                if arr is not None:
                    nbytes += arr.nbytes
            result = _field_arrays(out)
            if result is not None:
                nbytes += result.nbytes
                if walks:
                    span.sites = int(np.prod(result.shape[:-1])) * span.steps
            span.nbytes = nbytes
            tracer.spans.append(span)
            span.t0 = t0
            span.t1 = t1 = perf_counter()
            if span.parent is not None:
                span.parent.child += t1 - t0
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Swap the wrappers into every qwalk namespace; idempotent."""
        if self.installed:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qwalk.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname in sorted(sys.modules):
            if modname != "qwalk" and not modname.startswith("qwalk."):
                continue
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self.installed.append((module, attr, obj))
                    setattr(module, attr, hit[1])

        nonabelian = sys.modules["qwalk.nonabelian"]
        cls = nonabelian.NonAbelianGaugeField
        self.installed.append((cls, "links", cls.links))
        cls.links = self._wrap("nonabelian.links", cls.links)

        measured = sys.modules["qwalk.measured"]
        branches = getattr(measured, "_branches", None)
        if branches is not None:
            tracer = self

            def counted(*args, **kwargs):
                tracer.iterations += 1
                return branches(*args, **kwargs)

            self.installed.append((measured, "_branches", branches))
            measured._branches = counted

    def uninstall(self):
        while self.installed:
            owner, attr, obj = self.installed.pop()
            setattr(owner, attr, obj)

    def take(self):
        """Hand over the spans and iteration count recorded since the last take."""
        spans, self.spans = self.spans, []
        iterations, self.iterations = self.iterations, 0
        return spans, iterations


def size_tag(key) -> tuple:
    """Readable parts of a span key: ('2d128', 'n2', 'uniform') and the like."""
    if len(key) == 1:
        return (key[0],)
    if not key:
        return ()
    shape, colors = key[0], key[1]
    if len(shape) == 2 and shape[0] == shape[1]:
        parts = [f"2d{shape[0]}"]
    else:
        parts = [f"{len(shape)}d" + "x".join(str(n) for n in shape)]
    if colors != 1:
        parts.append(f"n{colors}")
    parts.extend(key[2:])
    return tuple(parts)


class PassAggregate:
    """Per-call samples and per-pass totals folded from the spans of passes."""

    def __init__(self):
        self.passes = 0
        self.wall = 0.0
        self.top = 0.0
        self.calls = {}  # (name, tag) -> arrays of per-call totals, self times, steps
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.per_pass_counts = []

    def add_pass(self, wall, spans, iterations):
        self.passes += 1
        self.wall += wall
        counts = {layer: [0, 0, 0] for layer in LAYERS}
        for span in spans:
            dur = span.t1 - span.t0
            own = dur - span.child
            if span.parent is None:
                self.top += dur
            layer = span.name.split(".", 1)[0]
            self.layer_self[layer] += own
            c = counts[layer]
            c[0] += 1
            c[1] += span.sites
            c[2] += span.nbytes
            tag = size_tag(span.key)
            entry = self.calls.get((span.name, tag))
            if entry is None:
                entry = self.calls[(span.name, tag)] = (array("d"), array("d"), array("d"))
            entry[0].append(dur)
            entry[1].append(own)
            entry[2].append(span.steps)
        flat = tuple(v for layer in LAYERS for v in counts[layer]) + (iterations,)
        self.per_pass_counts.append(flat)

    def counts(self):
        """Per-pass counts as {layer: (calls, site_updates, bytes)} plus iterations."""
        first = self.per_pass_counts[0]
        out = {layer: first[3 * i: 3 * i + 3] for i, layer in enumerate(LAYERS)}
        return out, first[-1]

    def counts_repeat(self) -> bool:
        return len(set(self.per_pass_counts)) <= 1

    def samples(self, name, parts=()):
        """Per-call (durations, self times, steps) of spans `name` whose tag holds every part."""
        got = (array("d"), array("d"), array("d"))
        for (span_name, tag), arrays in self.calls.items():
            if span_name == name and all(p in tag for p in parts):
                for into, values in zip(got, arrays):
                    into.extend(values)
        return got


def walk_site_steps(spans) -> int:
    return sum(span.sites for span in spans if span.name in WALK_STEPS)
