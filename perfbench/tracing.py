"""Span tracing of chowmot from outside the package.

`Tracer.install` wraps the public functions of the engine's modules, plus the
methods the per-layer metrics need, and rebinds every wrapper at each place
the original is bound: modules import names by value (`from .chern import
sqrt_todd` in kshadow, motives, cli and verify), so patching only the
defining module would let internal calls escape their spans.

A span is `[name, start, end, parent, op, outer]`.  `outer` is false when a
span of the same group (`group_of`) is already open, so totals do not count
nested or recursive calls twice.  Counter hooks run before a span opens and
their cost is taken off the clock, so the spans time the engine, not the
counting.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import Counter

MODULES = ("ring", "corr", "chern", "kshadow", "motives", "cli", "verify")

# (module, class, method, span name)
METHODS = [
    ("ring", "Cycle", "__init__", "ring.Cycle_init"),
    ("ring", "Cycle", "intersect", "ring.intersect"),
    ("corr", "FactorSelection", "pullback", "corr.pullback"),
    ("corr", "FactorSelection", "pushforward", "corr.pushforward"),
    ("motives", "Motive", "__post_init__", "motives.validate"),
    ("motives", "MotiveMorphism", "__post_init__", "motives.validate"),
    ("motives", "OrbitMorphism", "__post_init__", "motives.validate"),
]

_FIELD = 8  # bits per packed exponent; exponents stay far below 2**7
_perf = time.perf_counter


def _pack(exps) -> int:
    value = 0
    for i, e in enumerate(exps):
        value |= e << (_FIELD * i)
    return value


def kept_pairs(a, b) -> int:
    """Number of term pairs of `a * b` whose exponent sum stays inside the
    nilpotency bounds.  Exponents are packed into one integer with a guard
    bit per field, so `e2 <= room` componentwise is one subtraction."""
    bounds = a.variety.factors
    guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(len(bounds)))
    packed = [_pack(e) for e in b.terms]
    kept = 0
    for e1 in a.terms:
        room = _pack(n - x for n, x in zip(bounds, e1)) | guard
        kept += sum(((room - p) & guard) == guard for p in packed)
    return kept


def _count_intersect(counts, seen, args):
    a, b = args[0], args[1]
    counts["intersect.pairs"] += len(a.terms) * len(b.terms)
    counts["intersect.kept"] += kept_pairs(a, b)


def _count_pushforward(counts, seen, args):
    counts["pushforward.in_terms"] += len(args[1].terms)


def _count_sqrt_todd(counts, seen, args):
    variety = args[0]
    counts["sqrt_todd.repeats"] += variety in seen
    seen.add(variety)


HOOKS = {
    "ring.intersect": _count_intersect,
    "corr.pushforward": _count_pushforward,
    "chern.sqrt_todd": _count_sqrt_todd,
}


class Tracer:
    """Records spans in memory while `recording` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.seen: set = set()
        self.hook_s = 0.0
        self.op = 0
        self.recording = False

    def wrap(self, name, fn):
        group = group_of(name)
        hook = HOOKS.get(name)
        spans, stack, open_, counts, seen = self.spans, self.stack, self.open, self.counts, self.seen
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if hook is not None:
                h0 = _perf()
                hook(counts, seen, args)
                tracer.hook_s += _perf() - h0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, not open_[group]]
            open_[group] += 1
            stack.append(len(spans))
            spans.append(span)
            span[1] = _perf() - tracer.hook_s
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _perf() - tracer.hook_s
                stack.pop()
                open_[group] -= 1

        return traced

    def install(self) -> None:
        """Wrap the engine and rebind each wrapper wherever its original is
        bound: module globals, the package namespace and `verify.CHECKS`."""
        import chowmot

        mods = {m: importlib.import_module(f"chowmot.{m}") for m in MODULES}
        names = {id(fn): f"verify.{check}" for check, fn in mods["verify"].CHECKS}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = self.wrap(names.get(id(obj), f"{short}.{attr}"), obj)
            for cls in vars(mod).values():
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for method in ("from_json", "to_json"):
                    raw = cls.__dict__.get(method)
                    name = f"{short}.{cls.__name__}.{method}"
                    if isinstance(raw, classmethod):
                        setattr(cls, method, classmethod(self.wrap(name, raw.__func__)))
                    elif raw is not None:
                        setattr(cls, method, self.wrap(name, raw))
        for short, cls_name, method, name in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, method, self.wrap(name, cls.__dict__[method]))
        json.dumps = self.wrap("cli.dumps", json.dumps)

        for mod in (chowmot, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        checks = mods["verify"].CHECKS
        checks[:] = [(check, wrappers[id(fn)]) for check, fn in checks]

    def aggregate(self) -> dict:
        """Per-name calls, outer total and self time, per-group outer totals,
        and the counter hooks' counts, over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        groups: Counter = Counter()
        counts = Counter(self.counts)
        for i, (name, start, end, parent, _op, outer) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if outer:
                total[name] += end - start
                groups[group_of(name)] += end - start
            if name == "corr.compose_graded" and parent >= 0 and self.spans[parent][0] == "motives.validate":
                counts["validate.compose_calls"] += 1
        return {"calls": calls, "total": total, "self": self_s, "groups": groups,
                "counts": counts, "spans": len(self.spans)}

    def dump(self, path) -> None:
        """Write every span, with names interned, as gzip-compressed JSON."""
        index: dict[str, int] = {}
        rows = [[index.setdefault(s[0], len(index)), s[1], s[2], s[3], s[4]] for s in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": list(index), "spans": rows}, fh)


def group_of(name: str) -> str:
    """Spans of one group do not nest into that group's total: parsing,
    emitting, and otherwise each name on its own."""
    if name.endswith(".from_json"):
        return "parse"
    if name.endswith(".to_json") or name == "cli.dumps":
        return "emit"
    return name
