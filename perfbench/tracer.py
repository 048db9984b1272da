"""Outside-in tracer for singint: spans and counts from the benchmark's side.

`Tracer.installed()` wraps singint's public functions and ring/integrand
methods under every name their callers look them up by (for example
`singint.verify.reduce` as well as `singint.reducer.reduce`, and both
`ValuePoly.__add__` and `__radd__`), and restores the originals on exit.
Nothing under src/ is changed.

Each wrapped call records a span (name, start, end, parent span, operation
id) in memory.  A span's self time is its duration minus the time its child
spans cover, where a child is charged from its wrapper's entry to its exit,
so the wrapper's own cost is charged to no span.  Counts are read from the
values the wrapped calls return.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _term_count(x) -> int:
    terms = getattr(x, "_terms", None)
    if terms is not None:
        return len(terms)
    return 1 if x else 0  # an int or Fraction operand


def _count_parse(t, args, result):
    t.add("cli.parse.terms", len(result))


def _count_reduce(t, args, result):
    _, trace = result
    peak = 0
    for step in trace.steps:
        t.add("reducer.steps." + step.rule)
        peak = max(peak, len(step.before[1]), len(step.after[1]))
    t.peak("reducer.peak_pending_terms", peak)


def _count_normalize(t, args, result):
    t.add("integrand.normalize.terms_in", len(args[0]))
    t.add("integrand.normalize.terms_out", len(result))


def _count_operands(t, args, result):
    t.add("ring.operands", 2)
    t.add("ring.operand_terms", _term_count(args[0]) + _term_count(args[1]))


def _count_contractions(t, args, result):
    t.add("wick.matchings.enumerated", len(result))
    t.add("wick.matchings.disconnected", sum(not c.connected for c in result))
    t.add("wick.matchings.zeroed",
          sum(c.connected and c.local_factor.is_zero for c in result))
    if t.open["wick.diagram_classes"]:
        t.add("wick.matchings.classified", len(result))


def _count_classes(t, args, result):
    t.add("wick.classes", len(result))
    t.add("wick.matchings.useful", sum(c.multiplicity for c in result if not c.vanishes))


# span name -> (module, function, count hook)
FUNCTIONS = {
    "cli.main": ("singint.cli", "main", None),
    "cli.parse": ("singint.cli", "parse", _count_parse),
    "cli.render_sum": ("singint.cli", "render_sum", None),
    "reducer.reduce": ("singint.reducer", "reduce", _count_reduce),
    "reducer.field_equation": ("singint.reducer", "substitute_field_equation", None),
    "reducer.delta_squared": ("singint.reducer", "eval_dirac_squared", None),
    "reducer.delta": ("singint.reducer", "eval_dirac", None),
    "reducer.parity": ("singint.reducer", "drop_odd_orientation", None),
    "reducer.ibp": ("singint.reducer", "ibp_step", None),
    "reducer.base": ("singint.reducer", "base_integral", None),
    "wick.enumerate_contractions": ("singint.wick", "enumerate_contractions", _count_contractions),
    "wick.diagram_classes": ("singint.wick", "diagram_classes", _count_classes),
    "verify.order_contribution": ("singint.wick", "order_contribution", None),
    "verify.order_check": ("singint.verify", "order_check", None),
    "verify.diagram_identities": ("singint.verify", "diagram_identities", None),
    "verify.identity_suite": ("singint.verify", "identity_suite", None),
}

# (span name, module, class, method, count hook)
METHODS = [
    ("integrand.normalize", "singint.integrand", "IntegrandSum", "normalize", _count_normalize),
    ("integrand.eq", "singint.integrand", "IntegrandSum", "__eq__", None),
    ("ring.add", "singint.ring", "ValuePoly", "__add__", _count_operands),
    ("ring.add", "singint.ring", "ValuePoly", "__radd__", _count_operands),
    ("ring.mul", "singint.ring", "ValuePoly", "__mul__", _count_operands),
    ("ring.mul", "singint.ring", "ValuePoly", "__rmul__", _count_operands),
    ("ring.substitute", "singint.ring", "ValuePoly", "substitute", None),
    ("ring.render", "singint.ring", "ValuePoly", "render", None),
]

OP_SPAN = "op"


class Tracer:
    """Spans and counts of one traced unit of work."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1
        self.op_labels: list[str] = []
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self.open: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- counts ----------------------------------------------------------------

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] += value
        if self.op >= 0:
            self.op_counts[self.op][key] += value

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        tracer = self
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            stack, child = tracer._stack, tracer._child
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            tracer.open[name] += 1
            done = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                covered = child.pop()
                tracer.open[name] -= 1
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.calls[name] += 1
                tracer.total_s[name] += end - start
                tracer.self_s[name] += end - start - covered
                if done and count is not None:
                    count(tracer, args, result)
                if child:
                    child[-1] += perf_counter() - enter
        return traced

    def run_op(self, label: str, fn):
        """Run one operation under a root span; later spans carry its id."""
        self.op = len(self.op_labels)
        self.op_labels.append(label)
        self.op_counts.append(Counter())
        return self.wrap(OP_SPAN, fn)()

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    @contextmanager
    def installed(self):
        """Wrap every target under each name it is reachable by, then restore."""
        targets = {module for module, _, _ in FUNCTIONS.values()}
        targets |= {module for _, module, _, _, _ in METHODS}
        for module in sorted(targets):
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "singint" or n.startswith("singint.")]
        try:
            for name, (module, attr, count) in FUNCTIONS.items():
                original = getattr(sys.modules[module], attr, None)
                if original is None:
                    self.missing.append(f"{module}.{attr}")
                    continue
                wrapped = self.wrap(name, original, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            for name, module, cls_name, attr, count in METHODS:
                cls = getattr(sys.modules[module], cls_name, None)
                if cls is None or attr not in vars(cls):
                    self.missing.append(f"{module}.{cls_name}.{attr}")
                    continue
                self._patch(cls, attr, self.wrap(name, vars(cls)[attr], count))
            yield self
        finally:
            while self._patches:
                owner, key, original = self._patches.pop()
                setattr(owner, key, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, name, parent, op, op label, start/end in us."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w") as out:
            out.write("span\tname\tparent\top\tlabel\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                op = self.span_op[i]
                out.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                          f"{op}\t{self.op_labels[op] if op >= 0 else '-'}\t"
                          f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                          f"{(self.span_end[i] - t0) * 1e6:.1f}\n")


SELF_MS = ["cli.parse", "cli.render_sum", "cli.main", "reducer.reduce",
           "reducer.field_equation", "reducer.delta_squared", "reducer.delta",
           "reducer.parity", "reducer.ibp", "reducer.base", "integrand.normalize",
           "ring.mul", "ring.add", "ring.substitute", "ring.render",
           "wick.enumerate_contractions", "wick.diagram_classes",
           "verify.order_check", "verify.diagram_identities", "verify.identity_suite"]
CALLS = ["cli.parse", "reducer.reduce", "integrand.normalize", "integrand.eq",
         "ring.mul", "ring.add", "ring.substitute", "wick.enumerate_contractions",
         "wick.diagram_classes", "verify.order_check", "verify.order_contribution"]
RULES = ["field_equation", "delta_squared", "delta", "parity", "ibp", "base"]
COUNTS = ["wick.matchings.enumerated", "wick.matchings.disconnected",
          "wick.matchings.zeroed", "wick.classes"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timing_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer times of one traced unit (these vary run to run)."""
    out = {f"{name}.self_ms": t.self_s[name] * 1e3 for name in SELF_MS}
    out["cli.parse.us_per_term"] = _ratio(t.total_s["cli.parse"] * 1e6,
                                          t.counts["cli.parse.terms"])
    return out


def count_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer counts of one traced unit (these repeat exactly)."""
    out: dict[str, float] = {f"{name}.calls": t.calls[name] for name in CALLS}
    out["reducer.ibp_step.calls"] = t.calls["reducer.ibp"]
    out.update({f"reducer.steps.{rule}": t.counts["reducer.steps." + rule] for rule in RULES})
    out["reducer.ibp_sweeps"] = t.counts["reducer.steps.ibp"]
    out["reducer.peak_pending_terms"] = t.peaks.get("reducer.peak_pending_terms", 0)
    out["integrand.normalize.kept_ratio"] = _ratio(t.counts["integrand.normalize.terms_out"],
                                                   t.counts["integrand.normalize.terms_in"])
    out["ring.terms_per_operand"] = _ratio(t.counts["ring.operand_terms"],
                                           t.counts["ring.operands"])
    out.update({key: t.counts[key] for key in COUNTS})
    out["wick.useful_ratio"] = _ratio(t.counts["wick.matchings.useful"],
                                      t.counts["wick.matchings.classified"])
    out["trace.spans"] = len(t.span_start)
    return out
