"""Per-layer tracing and microbenchmarks for the csmod benchmark.

The tracer wraps public functions of the csmod layers from outside: a
span (name, parent, start, end) is recorded around each call.  Functions
imported by name (``from .modlat import hnf_canonical``) are replaced in
every csmod module namespace that holds them, so internal calls are
traced too.  The hot element multiplications only get call counters,
because a span per call would dwarf the work it measures.  Spans stay in
memory until the run writes them out; untraced runs install nothing.

Self time is a span's duration minus the durations of its child spans.
"""

import functools
import operator
import statistics
import sys
import time
from fractions import Fraction

# (module, attribute path, span name): the traced layer boundaries
SPANS = (
    ("cli", "main", "cli.main"),
    ("csm", "count_csms", "csm.count_csms"),
    ("csm", "sigma_index", "csm.sigma_index"),
    ("csm", "csm_bruteforce", "csm.csm_bruteforce"),
    ("orders", "QuatOrder.__init__", "orders.order_build"),
    ("orders", "QuatOrder.enumerate_by_index", "orders.enumerate_by_index"),
    ("orders", "QuatOrder.right_ideal", "orders.right_ideal"),
    ("modlat", "hnf_canonical", "modlat.hnf_canonical"),
    ("modlat", "intersect", "modlat.intersect"),
    ("modlat", "index_K", "modlat.index_K"),
    ("quat", "cayley_matrix", "quat.cayley_matrix"),
    ("rings", "norm_class_reps", "rings.norm_class_reps"),
    ("series", "phi_coefficients", "series.phi_coefficients"),
    ("series", "coefficient_table", "series.coefficient_table"),
    ("series", "dirichlet_convolve", "series.dirichlet_convolve"),
    ("series", "zeta_identity_check", "series.zeta_identity_check"),
)

# spans whose results are counted too: span name -> counter name
RESULT_COUNTS = {"orders.enumerate_by_index": "orders.ideals_found"}

# (module, class, methods, counter name): multiplications, counted only
COUNTERS = (
    ("quat", "Quat", ("__mul__",), "quat.Quat.mul"),
    ("rings", "FieldElem", ("__mul__", "__rmul__"), "rings.FieldElem.mul"),
    ("rings", "RingElem", ("__mul__", "__rmul__"), "rings.RingElem.mul"),
)

# span statistics a traced run reports, besides the counters above
REPORTED = (
    ("orders.enumerate_by_index", "calls"),
    ("orders.enumerate_by_index", "self_s"),
    ("orders.right_ideal", "calls"),
    ("orders.right_ideal", "total_s"),
    ("modlat.hnf_canonical", "calls"),
    ("modlat.hnf_canonical", "self_s"),
    ("modlat.intersect", "calls"),
    ("modlat.intersect", "self_s"),
    ("modlat.index_K", "calls"),
    ("modlat.index_K", "self_s"),
    ("quat.cayley_matrix", "calls"),
    ("quat.cayley_matrix", "self_s"),
    ("csm.csm_bruteforce", "calls"),
    ("csm.csm_bruteforce", "self_s"),
    ("csm.sigma_index", "calls"),
    ("csm.sigma_index", "total_s"),
    ("csm.count_csms", "calls"),
    ("csm.count_csms", "total_s"),
    ("rings.norm_class_reps", "total_s"),
    ("series.coefficient_table", "calls"),
    ("series.coefficient_table", "total_s"),
    ("series.dirichlet_convolve", "total_s"),
    ("cli.main", "self_s"),
)


def _csmod_modules():
    return [m for name, m in sys.modules.items()
            if name == "csmod" or name.startswith("csmod.")]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []     # [id, parent id or -1, name, start, end]
        self.counts = {}
        self._stack = []
        self._undo = []     # (namespace, attribute, original)

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        result_counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if result_counter:
                counts[result_counter] = counts.get(result_counter, 0) + len(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def _patch(self, namespace, attr, value):
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self, csmod):
        modules = _csmod_modules()
        for module, path, name in SPANS:
            owner = getattr(csmod, module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._patch(owner, attr, self._span(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(name, original)
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)
        for module, cls, methods, name in COUNTERS:
            owner = getattr(getattr(csmod, module), cls)
            for attr in methods:
                self._patch(owner, attr, self._counter(name, owner.__dict__[attr]))

    def reset(self):
        """Forget what was recorded so far; the wrappers stay installed."""
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0

    def remove(self):
        while self._undo:
            namespace, attr, original = self._undo.pop()
            setattr(namespace, attr, original)

    def stats(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[sid]
        return out

    def layer_metrics(self):
        stats = self.stats()
        metrics = {}
        for name, stat in REPORTED:
            calls, total, own = stats.get(name, (0, 0.0, 0.0))
            value = {"calls": calls, "total_s": total, "self_s": own}[stat]
            metrics[f"{name}.{stat}"] = (value, "count" if stat == "calls" else "s")
        for _, _, _, name in COUNTERS:
            metrics[f"{name}.calls"] = (self.counts.get(name, 0), "count")
        # HNFs spent per ideal found: one per lattice point today, so the
        # number of norm-one units (24, 120 or 48)
        enum_ids = {s[0] for s in self.spans
                    if s[2] == "orders.enumerate_by_index"}
        per_point = sum(1 for s in self.spans
                        if s[2] == "orders.right_ideal" and s[1] in enum_ids)
        ideals = self.counts.get("orders.ideals_found", 0)
        metrics["orders.right_ideal_per_ideal"] = (
            per_point / ideals if ideals else 0.0, "ratio")
        return metrics


def _median_us(fn, a, b, batch, batches=7):
    per_op = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn(a, b)
        per_op.append((time.perf_counter() - t0) / batch * 1e6)
    return statistics.median(per_op)


def microbenchmarks(csmod):
    """Median microseconds of one quaternion and one field multiplication
    over each base field, on half-integral operands like the order bases'."""
    rings, quat = csmod.rings, csmod.quat
    metrics = {}
    for tag in rings.FieldTag:
        w = Fraction(1, 2) if tag.degree == 2 else Fraction(0)
        x = rings.FieldElem(tag, Fraction(3, 2), -3 * w)
        y = rings.FieldElem(tag, Fraction(-5, 2), w)
        p = quat.Quat(tag, x, y, Fraction(1, 2), -1)
        q = quat.Quat(tag, y, 1, x, Fraction(-3, 2))
        metrics[f"quat.mul_us.{tag.value}"] = (
            _median_us(operator.mul, p, q, 200), "us")
        metrics[f"rings.field_mul_us.{tag.value}"] = (
            _median_us(operator.mul, x, y, 3000), "us")
    return metrics
