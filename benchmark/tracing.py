"""Timing spans around mwl's public functions, installed from outside mwl.

`install()` replaces each target function with a wrapper that records a span
(layer, start, end, parent) and a call count. The wrapper is put in place of
the original in the defining module and in every mwl module that imported
the name, so calls through `from .homopoly import substitute_transform` are
timed too. A generator function is timed only while its `next` runs, so the
consumer's work between items is not charged to it. A target that no longer
exists is reported as an absent span with a note, and its metrics read 0.

Every work count is declared with its layer in LAYERS and computed in
`drain` from each call's arguments and result after the operation ends, so
computing them is not charged to any span. `summarise` turns a run's sums
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, NamedTuple

import reference


class Call(NamedTuple):
    """One wrapped call, as its work counts see it."""

    args: tuple
    kwargs: dict
    result: Any
    children: Counter  # layers of the spans directly inside this one
    stdout: str  # everything the operation printed

    def arg(self, index: int, name: str):
        return self.kwargs[name] if name in self.kwargs else self.args[index]


class Layer(NamedTuple):
    targets: list[tuple[str, str]]  # (module, attribute path)
    # work counts reported besides .calls and .self_s: name -> count of one call
    counts: dict[str, Callable[[Call], float]] = {}
    # counts reported as a ratio of two summed counts: name -> (numerator, denominator)
    ratios: dict[str, tuple[str, str]] = {}


def _dual_words(call: Call) -> int:
    code = call.args[0]
    return code.ell**code.length // reference.code_size(code.ell, code.generators)


LAYERS = {
    "zmod.span": Layer(
        [("mwl.zmod", "LinearCode.codeword_array")], {"codewords": lambda c: len(c.result)}
    ),
    "zmod.dual": Layer(
        [("mwl.zmod", "LinearCode.dual")],
        {"vectors_scanned": lambda c: c.args[0].ell ** c.args[0].length, "dual_words": _dual_words},
        {"kept_ratio": ("dual_words", "vectors_scanned")},
    ),
    # a generator's call is one `next` that yielded a code
    "zmod.lattice": Layer([("mwl.zmod", "all_linear_codes")], {"codes": lambda c: 1}),
    "zmod.parse": Layer([("mwl.zmod", "parse_code_spec")]),
    "zmod.format": Layer([("mwl.zmod", "format_code_spec")]),
    "weights.enumerator": Layer(
        [("mwl.weights", "weight_enumerator")], {"codewords": lambda c: int(sum(c.result.coeffs))}
    ),
    "homopoly.transform": Layer(
        [("mwl.homopoly", "substitute_transform")],
        {"coeff_pairs": lambda c: (c.arg(0, "p").degree + 1) ** 2},
    ),
    "homopoly.text": Layer([("mwl.homopoly", "to_text"), ("mwl.homopoly", "from_text")]),
    "krawtchouk.matrix": Layer(
        [("mwl.krawtchouk", "krawtchouk_matrix")], {"entries": lambda c: sum(map(len, c.result))}
    ),
    "identity.check": Layer(
        [("mwl.identity", "check_identity"), ("mwl.identity", "check_shiromoto_form")]
    ),
    "identity.search": Layer(
        [("mwl.identity", "search_counterexample")],
        {"codes_checked": lambda c: c.children["identity.check"]},
    ),
    "identity.scan": Layer(
        [("mwl.identity", "scan_existence")],
        {"moduli": lambda c: max(0, c.arg(1, "max_ell") - 1)},
    ),
    "gray.table": Layer([("mwl.gray", "canonical_gray_map")]),
    "cli": Layer([("mwl.cli", "main")], {"stdout_bytes": lambda c: len(c.stdout.encode())}),
}


def summarise(sums: dict[str, float], rounds: int) -> dict[str, float]:
    """Per-layer metrics of a run: per-round means of the sums, and the ratios."""
    out = {}
    for name, layer in LAYERS.items():
        for key in ["calls", "self_s", *layer.counts]:
            out[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0.0) / rounds
        for key, (num, den) in layer.ratios.items():
            total = sums.get(f"{name}.{den}", 0)
            out[f"{name}.{key}"] = sums.get(f"{name}.{num}", 0) / total if total else 0.0
    return out


class Tracer:
    """Spans of the operation in progress; `drain` turns them into sums."""

    def __init__(self):
        self.notes: list[str] = []
        self._reset()

    def _reset(self):
        # span: [layer, start, end, parent index, (args, kwargs, result) or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()

    def _open(self, layer):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx, call=None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = call
        self.stack.pop()

    def wrap(self, layer, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[layer] += 1
                inner = fn(*args, **kwargs)

                def timed():
                    while True:
                        idx = self._open(layer)
                        call = None
                        try:
                            item = next(inner)
                            call = (args, kwargs, item)
                        except StopIteration:
                            return
                        finally:
                            self._close(idx, call)
                        yield item

                return timed()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            idx = self._open(layer)
            call = None
            try:
                result = fn(*args, **kwargs)
                call = (args, kwargs, result)
                return result
            finally:
                self._close(idx, call)

        return wrapper

    def drain(self, stdout: str) -> dict[str, float]:
        """Per-layer sums for the operation since the last drain, which printed stdout."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        children: dict[int, Counter] = defaultdict(Counter)
        none: Counter = Counter()
        for layer, start, end, parent, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
                children[parent][layer] += 1
        out: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, parent, call) in enumerate(spans):
            out[f"{layer}.self_s"] += end - start - child_s[i]
            if call is not None:  # the call returned, or the generator yielded
                seen = Call(*call, children.get(i, none), stdout)
                for key, count in LAYERS[layer].counts.items():
                    out[f"{layer}.{key}"] += count(seen)
        for layer, n in self.calls.items():
            out[f"{layer}.calls"] += n
        self._reset()
        return dict(out)


def _resolve(module_name, path):
    """(owner object, attribute name, current value) of module.path, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


def install() -> Tracer:
    """Wrap every target in LAYERS; mwl must already be importable."""
    import mwl.cli  # noqa: F401  loads every mwl module whose names get patched

    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items()) if name == "mwl" or name.startswith("mwl.")]
    for layer, spec in LAYERS.items():
        for module_name, path in spec.targets:
            found = _resolve(module_name, path)
            if found is None:
                tracer.notes.append(f"absent span {layer}: {module_name}.{path} not found")
                continue
            owner, name, fn = found
            wrapper = tracer.wrap(layer, fn)
            setattr(owner, name, wrapper)
            if inspect.isclass(owner):
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
    return tracer
