"""Outside-in span tracer for the fbns package.

`Tracer.install()` wraps every module-level function of every loaded
`fbns.*` module, and every method of `Trajectory`, and rebinds the wrapper in
every `fbns.*` namespace that binds the original: the defining module
itself (so `lp.mild_norm(...)` attribute calls and calls inside lp are
seen), modules that imported the name (`from .semigroup import
_apply_multiplier`), and module-level dicts such as `cli.RUNNERS`.
`uninstall()` puts every original back.

A span is [name, start, end, parent index].  Spans stay in memory until
the run ends.  A span's layer is the module that defines the function, so
a function that moves or is renamed keeps its layer.  Time spent in
numpy, scipy or class methods of other fbns classes is charged to the
innermost wrapped function on the stack.

Counters that need argument values (byte counts, RK4 steps) are hooks run
inside the span, keyed by span name.  Byte counts are computed from array
`nbytes` and file sizes, not measured traffic.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "fbns"
FFT_SPANS = ("spectral.forward_transform", "spectral.inverse_transform")
NORM_SPANS = ("lp.fb_norm", "lp.chemin_lerner_norm")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fft_forward(counters, args, kwargs, result):
    counters["spectral.fft_bytes"] += (
        getattr(_arg(args, kwargs, 0, "samples"), "nbytes", 0)
        + result.coeffs.nbytes)


def _fft_inverse(counters, args, kwargs, result):
    counters["spectral.fft_bytes"] += (
        _arg(args, kwargs, 0, "field").coeffs.nbytes + result.nbytes)


def _difference(counters, args, kwargs, result):
    counters["trajectory.difference_bytes"] += (
        args[0].coeffs.nbytes + _arg(args, kwargs, 1, "other").coeffs.nbytes
        + result.coeffs.nbytes)


def _written(counters, args, kwargs, result):
    counters["checkpoint.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


def _read(counters, args, kwargs, result):
    counters["checkpoint.bytes_read"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _rk4(counters, args, kwargs, result):
    counters["solver2d.rk4_steps"] += _arg(args, kwargs, 2, "steps")


HOOKS = {
    "spectral.forward_transform": _fft_forward,
    "spectral.inverse_transform": _fft_inverse,
    "trajectory.Trajectory.difference": _difference,
    "checkpoint._atomic_write": _written,
    "checkpoint.roundtrip_report": _read,
    "solver2d.advance_vorticity": _rk4,
}


def _modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE
                                    or name.startswith(PACKAGE + "."))]


def _defined_here(obj, module_name: str, name: str) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module_name
            and getattr(obj, "__qualname__", None) == name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.wrapped = set()
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters, hook = self.counters, HOOKS.get(name)
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def _set(self, target, key, value, as_item: bool):
        if as_item:
            self._undo.append((target.__setitem__, key, target[key]))
            target[key] = value
        else:
            self._undo.append((functools.partial(setattr, target), key,
                               target.__dict__[key]))
            setattr(target, key, value)

    def install(self):
        modules = _modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__[len(PACKAGE) + 1:] or PACKAGE
            for name, obj in vars(mod).items():
                if _defined_here(obj, mod.__name__, name):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in modules:
            namespace = vars(mod)
            for name, obj in list(namespace.items()):
                if id(obj) in wrappers:
                    self._set(namespace, name, wrappers[id(obj)], True)
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)], True)
        self._wrap_methods(sys.modules[f"{PACKAGE}.trajectory"].Trajectory,
                           "trajectory")

    def missing_hooks(self) -> list:
        """Counter hooks whose function no longer exists under its name."""
        return sorted(set(HOOKS) - self.wrapped)

    def _wrap_methods(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                new = classmethod(self._wrap(attr.__func__, span))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(attr.__func__, span))
            elif isinstance(attr, property):
                new = property(self._wrap(attr.fget, span), attr.fset,
                               attr.fdel, attr.__doc__)
            elif callable(attr) and not isinstance(attr, type):
                new = self._wrap(attr, span)
            else:
                continue
            self._set(cls, name, new, False)

    def uninstall(self):
        while self._undo:
            setter, key, original = self._undo.pop()
            setter(key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans, first: int, last: int) -> dict:
    """Per-layer calls and self seconds of spans[first:last], plus span-derived
    counts.  Self time is a span's duration minus its children's."""
    child = defaultdict(float)
    for name, start, end, parent in spans[first:last]:
        if parent >= first:
            child[parent] += end - start
    out = Counter()
    for index in range(first, last):
        name, start, end, _ = spans[index]
        layer = name.split(".", 1)[0]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += (end - start) - child[index]
        if name in FFT_SPANS:
            out["spectral.fft_calls"] += 1
            out["spectral.fft_s"] += end - start
        elif name in NORM_SPANS:
            out["lp.norm_calls"] += 1
        elif name == "solver3d.pair_forcing":
            out["solver3d.pair_forcing_calls"] += 1
    return out
