"""In-process tracer that wraps the public functions of the geoequiv modules.

Every public module-level function is replaced at every module namespace
that binds it (so `verifier.integrate` is wrapped as well as
`hamiltonian.integrate`), and public methods are replaced on their class.
A wrapped call is either a span (id, name, start, end, parent) kept in
memory, or, for the hot evaluators, a counter that sums calls, inclusive
time and self time. Self time is a call's duration minus the durations of
the wrapped calls made inside it. Nothing under src/ is edited; uninstall()
puts every original object back.
"""

import gzip
import inspect
import json
from time import perf_counter

# layer names are the module names
MODULES = ("expr", "geometry", "hamiltonian", "pair", "constructors", "verifier", "cli")

# constructors with real work behind them; other __init__s only store fields
_INIT_SPANS = {"pair.AdaptedFrame.__init__", "geometry.StructureFunctions.__init__"}

# called thousands of times per op: counted, not recorded one span each
_HOT_PREFIXES = ("geometry.GeometryModel.", "pair.FiberPolynomial.")
_HOT_NAMES = {"pair.AdaptedFrame.field_derivative", "pair.AdaptedFrame.impulses",
              "pair.intrinsic_P", "hamiltonian.hamiltonian",
              "hamiltonian.quasi_impulses"}


def _is_hot(qual):
    if qual.startswith("expr."):
        return qual != "expr.compile_exprs"
    return qual in _HOT_NAMES or qual.startswith(_HOT_PREFIXES)


class Tracer:
    def __init__(self, package):
        self.modules = [getattr(package, name) for name in MODULES]
        self.spans = []             # (id, name, start, end, parent id or None)
        self.counters = {}          # name -> [calls, inclusive s, self s]
        self._stack = []            # [span id or None, start, child s, span parent]
        self._next_id = 0
        self._patched = []          # (owner, attribute, original, wrapper)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qual, fn):
        stack = self._stack
        if _is_hot(qual):
            counter = self.counters.setdefault(qual, [0, 0.0, 0.0])

            def hot(*args, **kwargs):
                frame = [None, perf_counter(), 0.0,
                         stack[-1][3] if stack else None]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - frame[1]
                    stack.pop()
                    if stack:
                        stack[-1][2] += dur
                    counter[0] += 1
                    counter[1] += dur
                    counter[2] += dur - frame[2]

            wrapper = hot
        else:
            spans = self.spans

            def span(*args, **kwargs):
                sid = self._next_id
                self._next_id = sid + 1
                parent = stack[-1][3] if stack else None
                frame = [sid, perf_counter(), 0.0, sid]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    if stack:
                        stack[-1][2] += end - frame[1]
                    spans.append((sid, qual, frame[1], end, parent, frame[2]))

            wrapper = span
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        functions = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    functions[id(obj)] = (obj, "%s.%s" % (layer, name))
        plan = []
        wrappers = {}
        for mod in self.modules:
            for name, obj in vars(mod).items():
                hit = functions.get(id(obj))
                if hit is None:
                    continue
                fn, qual = hit
                if qual not in wrappers:
                    wrappers[qual] = self._wrap(qual, fn)
                plan.append((mod, name, fn, wrappers[qual]))
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for cname, cls in vars(mod).items():
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for aname, attr in vars(cls).items():
                    qual = "%s.%s.%s" % (layer, cname, aname)
                    if not inspect.isfunction(attr):
                        continue
                    if aname.startswith("_") and qual not in _INIT_SPANS:
                        continue
                    plan.append((cls, aname, attr, self._wrap(qual, attr)))
        return plan

    def install(self):
        """Put the wrappers in place; they keep their records across installs."""
        if not self._patched:
            self._patched = self._plan()
        for owner, name, _original, wrapper in self._patched:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _wrapper in reversed(self._patched):
            setattr(owner, name, original)

    def restored(self):
        """True when every patched attribute holds its original object again."""
        return all(vars(owner).get(name) is original
                   for owner, name, original, _wrapper in self._patched)

    # -- results -----------------------------------------------------------

    def aggregate(self):
        """name -> [calls, inclusive s, self s] over spans and counters."""
        agg = {name: list(vals) for name, vals in self.counters.items()}
        for _sid, name, start, end, _parent, child in self.spans:
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        return agg

    def time_below(self, target):
        """span id -> summed duration of `target` spans nested inside it."""
        parent_of = {sid: parent for sid, _n, _s, _e, parent, _c in self.spans}
        below = {}
        for sid, name, start, end, parent, _child in self.spans:
            if name != target:
                continue
            p = parent
            while p is not None:
                below[p] = below.get(p, 0.0) + (end - start)
                p = parent_of.get(p)
        return below

    def nesting_errors(self):
        """Spans whose children outlast them or whose self time is negative."""
        by_id = {sid: (start, end) for sid, _n, start, end, _p, _c in self.spans}
        errors = []
        for sid, name, start, end, parent, child in self.spans:
            if child > (end - start) + 1e-9:
                errors.append("%s: children %.3g s exceed span %.3g s"
                              % (name, child, end - start))
            if parent is not None:
                ps, pe = by_id[parent]
                if start < ps or end > pe:
                    errors.append("%s: span leaves its parent" % name)
        return errors

    def write(self, path):
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[sid, index[name], start, end, parent]
                         for sid, name, start, end, parent, _c in self.spans],
               "counters": self.counters}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
