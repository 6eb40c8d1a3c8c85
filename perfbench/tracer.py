"""Span tracer that wraps ddlkit's public functions from outside the package.

Each wrapped call records a span (request id, name, start, end, parent
span).  Spans stay in memory and are written out at the end of a run.
Functions that several modules import by name are replaced in every
ddlkit namespace that holds them, so `ddlkit.search.truth_set` and
`ddlkit.checker.truth_set` both record.

Per-layer numbers are read off the spans: a span's self time is its
duration minus the time its direct children cover.  Counters that do not
need a span (domain elements handed out by the evaluator) are bumped
without one, because `enumerate_domain` runs once per quantifier step and
a span per call would swamp the trace.  Work that is only needed for a
count (node counts, distinct models, output bytes) is deferred until the
request has ended, so it does not land inside any span.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

AXIOM_NAMES = ("AV", "PV1", "PV2", "OB1", "OB2", "OB3", "OB4", "OB5")

# (module, function, span name); the span name is the metric prefix
SPANNED = (
    ("syntax", "parse", "syntax.parse"),
    ("model", "random_model", "model.random_model"),
    ("model", "validate", "model.validate"),
    ("checker", "truth_set", "checker.truth_set"),
    ("search", "find_countermodel", "search.find_countermodel"),
    ("hol", "embed", "hol.embed"),
    ("hol", "beta_eta_normalize", "hol.beta_eta_normalize"),
    ("hol", "axioms", "hol.axioms"),
    ("henkin", "build_henkin", "henkin.build_henkin"),
    ("henkin", "eval_term", "henkin.eval_term"),
    ("henkin", "extract_model", "henkin.extract_model"),
    ("export", "to_thf_problem", "export.to_thf_problem"),
    ("cli", "main", "cli.main"),
)
ENUMERATE_SPAN = "model.enumerate_models"
REQUEST_SPAN = "request"

_START, _END, _PARENT, _NAME = range(4)


class Tracer:
    """Records spans and counters while `active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.req = 0
        self.counts: Counter = Counter()
        self.axiom_time: Counter = Counter()
        self._axiom_terms: dict[int, tuple[str, object]] = {}
        self._deferred: list[tuple[str, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.model_json = None

    # --- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([time.perf_counter(), 0.0, parent, name, self.req])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        self.stack.pop()
        return span[_END] - span[_START]

    def _inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][_NAME] == name

    def request(self, fn, *args):
        """Run one request as a root span with a fresh request id."""
        self.req += 1
        idx = self._open(REQUEST_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._settle()

    def _settle(self) -> None:
        # count work deferred out of the spans, then drop the references
        drawn = {self.model_json(m) for kind, m in self._deferred
                 if kind == "model"}
        self.counts["model.random_model.distinct"] += len(drawn)
        for kind, obj in self._deferred:
            if kind == "term":
                self.counts["hol.nf_nodes"] += _term_nodes(obj)
            elif kind == "thf":
                self.counts["export.bytes"] += len(obj.text().encode("utf-8"))
        self._deferred.clear()
        self._axiom_terms.clear()

    # --- installing wrappers --------------------------------------------

    def install(self, package) -> None:
        """Wrap the traced functions in every ddlkit module namespace."""
        mods = {name: sys.modules[f"{package.__name__}.{name}"]
                for name in ("syntax", "model", "checker", "search", "hol",
                             "henkin", "export", "cli")}
        self.model_json = mods["model"].model_json
        namespaces = [package] + list(mods.values())
        hooks = {
            "model.random_model": self._after_random_model,
            "checker.truth_set": self._after_truth_set,
            "search.find_countermodel": self._after_find,
            "hol.beta_eta_normalize": self._after_normalize,
            "hol.axioms": self._after_axioms,
            "henkin.eval_term": self._after_eval_term,
            "export.to_thf_problem": self._after_to_thf,
        }
        targets = [(getattr(mods[mod], fn),
                    self._spanned(getattr(mods[mod], fn), span,
                                  hooks.get(span)))
                   for mod, fn, span in SPANNED]
        enum = mods["model"].enumerate_models
        targets.append((enum, self._enumerating(enum)))
        dom = mods["henkin"].enumerate_domain
        targets.append((dom, self._counting_domain(dom)))
        for orig, wrapper in targets:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, attr, orig))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore.clear()

    def _spanned(self, fn, name, after):
        tracer = self

        def wrapper(*args, **kwargs):
            # direct recursion (embed calls embed) stays inside one span
            if not tracer.active or tracer._inside(name):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close(idx)
            tracer.counts[name + ".calls"] += 1
            if after is not None:
                after(args, out, elapsed)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerating(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            models = fn(*args, **kwargs)
            return _TimedIterator(tracer, models) if tracer.active else models

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_domain(self, fn):
        tracer = self

        def wrapper(n, ty):
            out = fn(n, ty)
            if tracer.active:
                tracer.counts["henkin.enumerate_domain.elements"] += len(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-function hooks (run right after the span closes) ------------

    def _under(self, name: str) -> bool:
        for idx in self.stack:
            if self.spans[idx][_NAME] == name:
                return True
        return False

    def _after_random_model(self, args, out, elapsed):
        self._deferred.append(("model", out))

    def _after_truth_set(self, args, out, elapsed):
        if self._under("search.find_countermodel"):
            self.counts[f"search.models_n{args[0].n}"] += 1

    def _after_find(self, args, out, elapsed):
        if out is not None:
            self.counts[f"search.found_n{out[0].n}"] += 1

    def _after_normalize(self, args, out, elapsed):
        self._deferred.append(("term", out))

    def _after_axioms(self, args, out, elapsed):
        # keep the term objects referenced so their ids stay unique
        for name, term in out:
            self._axiom_terms[id(term)] = (name, term)

    def _after_eval_term(self, args, out, elapsed):
        hit = self._axiom_terms.get(id(args[1]))
        if hit is not None and hit[1] is args[1]:
            self.axiom_time[hit[0]] += elapsed

    def _after_to_thf(self, args, out, elapsed):
        self._deferred.append(("thf", out))

    # --- reading the spans ----------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts and self times of everything recorded since `reset`."""
        child: Counter = Counter()
        requests = 0.0
        for span in self.spans:
            d = span[_END] - span[_START]
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += d
            else:
                requests += d
        self_time: Counter = Counter()
        for idx, span in enumerate(self.spans):
            self_time[span[_NAME]] += (span[_END] - span[_START]
                                       - child.get(idx, 0.0))
        out: dict[str, float] = {}
        for _, _, name in SPANNED:
            out[name + ".calls"] = self.counts[name + ".calls"]
            out[name + ".self_s"] = self_time[name]
        out[ENUMERATE_SPAN + ".models"] = self.counts[ENUMERATE_SPAN + ".models"]
        out[ENUMERATE_SPAN + ".self_s"] = self_time[ENUMERATE_SPAN]
        drawn = self.counts["model.random_model.calls"]
        out["model.random_model.distinct_share"] = (
            self.counts["model.random_model.distinct"] / drawn if drawn else 0.0)
        for n in (1, 2, 3):
            out[f"search.models_n{n}"] = self.counts[f"search.models_n{n}"]
            out[f"search.found_n{n}"] = self.counts[f"search.found_n{n}"]
        for key in ("hol.nf_nodes", "henkin.enumerate_domain.elements",
                    "export.bytes"):
            out[key] = self.counts[key]
        for name in AXIOM_NAMES:
            out[f"henkin.axiom_s.{name}"] = self.axiom_time[name]
        out["trace.uncovered_share"] = (
            self_time[REQUEST_SPAN] / requests if requests else 0.0)
        return out

    def reset(self) -> None:
        """Start a fresh set of spans and counters; old spans stay with
        whoever holds the previous list."""
        self.spans = []
        self.counts = Counter()
        self.axiom_time = Counter()

    def dump(self, path, passes: list[list[list]]) -> None:
        """Write the spans of each traced pass as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["start", "end", "parent",
                                             "name", "request"]}) + "\n")
            for k, spans in enumerate(passes):
                out.write(json.dumps({"pass": k, "spans": len(spans)}) + "\n")
                for span in spans:
                    out.write(json.dumps(span) + "\n")


class _TimedIterator:
    """Times each `next()` of a model stream as one span."""

    def __init__(self, tracer: Tracer, it):
        self.tracer = tracer
        self.it = iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        idx = self.tracer._open(ENUMERATE_SPAN)
        try:
            m = next(self.it)
        finally:
            self.tracer._close(idx)
        self.tracer.counts[ENUMERATE_SPAN + ".models"] += 1
        return m


def _term_nodes(t) -> int:
    count = 0
    stack = [t]
    while stack:
        u = stack.pop()
        count += 1
        fn = getattr(u, "fn", None)
        if fn is not None:
            stack.append(fn)
            stack.append(u.arg)
        else:
            body = getattr(u, "body", None)
            if body is not None:
                stack.append(body)
    return count
