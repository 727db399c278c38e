"""Span tracing of normlab's public functions, installed from outside.

The tracer rebinds module attributes: every public function defined in one
of normlab's modules is replaced, in every module that binds it, by a thin
wrapper that records a span.  Nothing under ``src/`` is edited.  Calls a
module makes to its own functions go through its globals, so they are traced
too, with one exception: ``norm`` and ``norm_A`` are wrapped only where other
modules bind them, because the solvers inside ``norms`` call them so often
that the wrapper would swamp them.

Spans stay in memory as ``[name, start, end, parent, item, error, attrs]``
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics

LAYERS = ("linalg", "norms", "subspaces", "lemmas", "exactparams", "cli")
_HOT_IN_HOME = {"norm", "norm_A"}

FIELDS = ("name", "start", "end", "parent", "item", "error", "attrs")
NAME, START, END, PARENT, ITEM, ERROR, ATTRS = range(len(FIELDS))


def _worst_goodness_attrs(result):
    return {"failures": len(result.failures)}


def _chain_attrs(result):
    return {"max_bits": max((c.bits for c in result.conditions), default=0)}


def _lemma_attrs(result):
    applicable = getattr(result, "applicable", None)
    if applicable is None:
        return None
    return {"failed": int(bool(applicable) and not result.passed)}


class Tracer:
    """Installs span-recording wrappers into normlab's modules."""

    def __init__(self, package, modules, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}
        for module in (package, *modules):
            home_of = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rsplit(".", 1)[-1]
                if not obj.__module__.startswith(package.__name__ + ".") or home not in LAYERS:
                    continue
                if home == home_of and obj.__name__ in _HOT_IN_HOME:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home}.{obj.__name__}", obj)
                self._bindings.append((module, attr, obj, wrappers[id(obj)]))

    def _wrap(self, label, fn):
        inspector = {
            "subspaces.worst_goodness": _worst_goodness_attrs,
            "exactparams.check_parameter_chain": _chain_attrs,
        }.get(label, _lemma_attrs if label.startswith("lemmas.") else None)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.item, False, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if inspector is not None:
                rec[ATTRS] = inspector(result)
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)


def first_spans(spans: list[list], items: int) -> list[list]:
    """The spans of set-up and of items below ``items``.

    Items run in order, so these form a prefix of the list and parent
    indices stay valid.
    """
    cut = next((j for j, rec in enumerate(spans) if rec[ITEM] >= items), len(spans))
    return spans[:cut]


def _pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_stats(spans: list[list]) -> dict[str, dict]:
    """Per-name totals: calls, busy (outermost spans only), self, errors.

    ``self`` is a span's duration minus the time its direct children cover;
    children never overlap because every layer runs on one thread.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    stats: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        s = stats.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                         "errors": 0, "durations": []})
        dur = rec[END] - rec[START]
        s["calls"] += 1
        s["self_s"] += dur - child_time[i]
        s["errors"] += int(rec[ERROR])
        s["durations"].append(dur)
        if not _has_ancestor(spans, i, rec[NAME]):
            s["busy_s"] += dur
    for s in stats.values():
        ms = sorted(d * 1e3 for d in s.pop("durations"))
        s["call_ms_p50"] = _pct(ms, 50)
        s["call_ms_p99"] = _pct(ms, 99)
    return stats


def _has_ancestor(spans, i, name_or_prefix, prefix=False):
    p = spans[i][PARENT]
    while p >= 0:
        nm = spans[p][NAME]
        if nm.startswith(name_or_prefix) if prefix else nm == name_or_prefix:
            return True
        p = spans[p][PARENT]
    return False


def children_per_call(spans, parent_name, child_name) -> float:
    """Mean count of direct ``child_name`` spans under each ``parent_name`` span."""
    parents = {i for i, rec in enumerate(spans) if rec[NAME] == parent_name}
    if not parents:
        return 0.0
    kids = sum(1 for rec in spans if rec[NAME] == child_name and rec[PARENT] in parents)
    return kids / len(parents)


def failed_reports(spans) -> int:
    """Lemma reports that were applicable and did not pass, counted once each."""
    return sum(
        rec[ATTRS]["failed"]
        for i, rec in enumerate(spans)
        if rec[NAME].startswith("lemmas.") and rec[ATTRS] and "failed" in rec[ATTRS]
        and not _has_ancestor(spans, i, "lemmas.", prefix=True)
    )
