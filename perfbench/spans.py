"""Span tracer that wraps epatest's public functions from outside.

Nothing in the package is edited. ``install`` replaces every public
function of the traced modules at each name its callers look it up by: the
defining module's global, every ``from ... import`` binding in the other
modules, and module-level dispatch tables such as ``mc._SIMULATORS``. Three
names outside the package are wrapped the same way, because per-layer
metrics need them: ``numpy.random.default_rng`` (RNG construction),
``tradeoff._null_rng`` (to count distinct null paths) and the ``sf``/``ppf``
methods of the ``scipy.stats`` distributions as ``dmtests`` sees them.

Spans are aggregated in memory per (parent, name) edge: call count,
inclusive time and self time (inclusive minus the time of child spans).
Time the benchmark itself spends inside a span (``exclude``) counts in
neither.
"""

from __future__ import annotations

import sys
import time
import types

TRACED_MODULES = ("cli", "mc", "tradeoff", "dmtests", "lrv", "series", "data")

# dm tests whose span label depends on the arguments, as in the mc battery.
_DM_LABELS = {
    "dm_test_r": lambda a, k: "dm_r",
    "dm_test_m": lambda a, k: "dm_m",
    "dm_test_bt": lambda a, k: (
        "dm_nw_l"
        if k.get("M", a[1] if len(a) > 1 else None) is None
        and k.get("rule", a[2] if len(a) > 2 else "nw1994") == "llsw"
        else "dm_nw"
    ),
    "dm_test_bt_fb": lambda a, k: "dm_fb",
    "dm_test_ewc_fb": lambda a, k: "dm_ewc",
    "dm_test_wpe_fb": lambda a, k: "dm_wpe",
    "dm_test_im": lambda a, k: f"dm_im_q{k.get('q', a[1] if len(a) > 1 else 2)}",
}


class _Delegate:
    """Attribute proxy: explicit overrides first, everything else from ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Wraps the package's public functions and aggregates their spans."""

    def __init__(self):
        self.edges: dict[tuple, list[int]] = {}  # (parent, name) -> [calls, incl_ns, self_ns]
        self.last_end: dict[str, int] = {}  # name -> perf_counter_ns at its latest end
        self.null_paths: set = set()  # distinct (seed, rep) keys of tradeoff null paths
        self._stack: list[list] = []
        self._restore: list = []

    def _wrap(self, name, fn, label=None):
        stack, edges, last_end = self._stack, self.edges, self.last_end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = f"dmtests.{label(args, kwargs)}" if label else name
            frame = [span, 0, 0]  # name, children's inclusive ns, excluded ns
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start - frame[2]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                key = (parent[0] if parent is not None else None, span)
                rec = edges.get(key)
                if rec is None:
                    rec = edges[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                last_end[span] = end

        traced.__wrapped__ = fn
        return traced

    def _set(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import numpy as np

        import epatest

        modules = {m: sys.modules[f"epatest.{m}"] for m in TRACED_MODULES}
        public = {
            fn: f"{short}.{attr}"
            for short, mod in modules.items()
            for attr in getattr(mod, "__all__", ())
            if isinstance(fn := getattr(mod, attr), types.FunctionType)
            and fn.__module__ == mod.__name__
        }
        wrappers = {
            fn: self._wrap(name, fn,
                           _DM_LABELS.get(fn.__name__) if name.startswith("dmtests.") else None)
            for fn, name in public.items()
        }
        for mod in (epatest, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrappers:
                            self._restore.append((value, key, item))
                            value[key] = wrappers[item]

        tradeoff = modules["tradeoff"]
        null_rng = tradeoff._null_rng
        paths = self.null_paths

        def counted_null_rng(seed, rep):
            paths.add((seed, rep))
            return null_rng(seed, rep)

        self._set(tradeoff, "_null_rng", self._wrap("tradeoff._null_rng", counted_null_rng))
        self._set(np.random, "default_rng",
                  self._wrap("numpy.default_rng", np.random.default_rng))

        dmtests = modules["dmtests"]
        stats = dmtests.stats
        dists = {
            dist: _Delegate(getattr(stats, dist), **{
                meth: self._wrap(f"scipy.{dist}.{meth}", getattr(getattr(stats, dist), meth))
                for meth in ("sf", "ppf")
            })
            for dist in ("norm", "t")
        }
        self._set(dmtests, "stats", _Delegate(stats, **dists))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    def exclude(self, ns: int) -> None:
        """Leave ``ns`` of benchmark work done inside the open spans out of their times."""
        for frame in self._stack:
            frame[2] += ns
