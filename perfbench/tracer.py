"""Layer spans for the traced benchmark run.

The tracer wraps the public functions of each qatorsion module at every
module attribute that holds them, so a call made through any caller's
namespace (``pipeline.abelianized_minor`` as well as
``covers.abelianized_minor``) opens a span whose parent is the span of the
caller.  Spans are kept in memory as tuples and written out once, when the
run ends.  An untraced run installs nothing; it imports this module only
after its timed loop, to confirm with ``wrappers_installed`` that no
wrapper is in place.
"""

from __future__ import annotations

import inspect
import json
import sys
import types
from collections import Counter

# The layers are the package's modules.  ``laurent`` runs only inside
# ``skein.jones_polynomial`` and gets no span of its own.
LAYERS = ("covers", "foxcalc", "intmat", "groupring", "torsion", "diagrams",
          "skein", "lattice", "pipeline", "cli")

# Helpers called tens of thousands of times per family member (free-word
# letters, identity matrices, euler_phi per cyclotomic number) are counted,
# not spanned, so the trace stays small and cheap.  Their time counts as
# self time of the calling span.
COUNT_ONLY = frozenset({
    "foxcalc.word", "foxcalc.gen", "foxcalc.wmul", "foxcalc.wpow",
    "foxcalc.winv", "foxcalc.wreduce", "foxcalc.exponent_sums",
    "intmat.identity", "intmat.transpose", "intmat.mat_mul",
    "pipeline.family_parameters", "groupring.euler_phi",
})

# Per-call tags recorded on a span, from the call's arguments and result.
# Each returns a short string or an int that the report sums.
TAGS = {
    "lattice.enumerate_definite_lattices": lambda a, r: f"r{a[0]}",
    "lattice.m_invariant": lambda a, r: f"r{a[0].rank}",
    "lattice.lattices_isometric": lambda a, r: "hit" if r else "miss",
    "lattice.char_cosets": lambda a, r: len(r),
    "covers.kanenobu_presentation":
        lambda a, r: sum(len(w) for w in r.presentation.relators),
    "diagrams.kanenobu_diagram": lambda a, r: r.n_crossings,
}

# Methods counted on their class (callers look them up there).
COUNTED_METHODS = (("groupring", "CyclotomicNumber", "inv"),)

MARK = "_perfbench_wrapped"
PACKAGE = "qatorsion"


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it.
    Spans read ``clock``, the worker's timer without its speed-probe time."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []          # (name, tag, start, end, parent, op)
        self.counts: Counter = Counter()
        self.stack: list = [(-1, "")]  # (span index, name) of open spans
        self.op = -1
        self._patched: list = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, tag):
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0]
            stack.append((idx, name))
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = tag(args, result) if tag and result is not None else None
                spans[idx] = (name, label, start, end, parent, self.op)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            key = f"{name}<-{stack[-1][1]}"
            yielded = 0
            try:
                for item in fn(*args, **kwargs):
                    yielded += 1
                    yield item
            finally:
                counts[key] += yielded

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        replacement = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapped = self._generator(name, obj)
                elif name in COUNT_ONLY:
                    wrapped = self._count(name, obj)
                else:
                    wrapped = self._span(name, obj, TAGS.get(name))
                setattr(wrapped, MARK, True)
                wrapped.__wrapped__ = obj
                replacement[id(obj)] = wrapped
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement and obj is replacement[id(obj)].__wrapped__:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, replacement[id(obj)])
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(modules[f"{PACKAGE}.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            wrapped = self._count(f"{layer}.{cls_name}.{meth}", orig)
            setattr(wrapped, MARK, True)
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write the spans (one JSON array per line) and the counters."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "tag", "start", "end",
                                            "parent", "op"],
                                 "counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _package_modules() -> dict:
    return {k: m for k, m in sys.modules.items()
            if k == PACKAGE or k.startswith(PACKAGE + ".")}


def wrappers_installed() -> bool:
    """True if any module attribute or class method of the package is a
    tracer wrapper.  Needs no tracer state, so an untraced run can ask."""
    for mod in _package_modules().values():
        for obj in vars(mod).values():
            if getattr(obj, MARK, False):
                return True
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                if any(getattr(v, MARK, False) for v in vars(obj).values()):
                    return True
    return False
