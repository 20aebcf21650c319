"""Per-layer tracing, installed at run time from outside the program.

Each traced function is replaced by a wrapper at every name its callers
look up: a module-level function in each solgeom module that holds it
(for intmat helpers, only in the modules that import them, so intmat's
own internal calls stay inside one span), and a method on its class.

A span records name, start, end, parent and op; a layer's self time is a
span's duration minus the part its child spans cover (an interval union,
because verify's pool runs children in other threads) minus the time of
the cheap intmat calls made directly inside it.  IntMatrix methods cost
a few microseconds, less than a span, so they get counters and a summed
timer instead of spans.

Counters live per thread and are merged at the end, so concurrent
workers lose no update.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import Counter
from time import perf_counter_ns

MAX_SPANS = 200_000


class _Frame:
    __slots__ = ("id", "op", "children", "light_ns")

    def __init__(self, span_id, op):
        self.id, self.op = span_id, op
        self.children = []
        self.light_ns = 0


class _ThreadState:
    def __init__(self):
        self.stack = []
        self.active = Counter()
        self.counts = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.spans = []
        self.in_light = False


def _union_ns(intervals, lo, hi):
    covered, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count(1)
        self.main = self._state()
        self.op_id = 0
        # (outer span, inner span) pairs whose nesting is counted
        self.nested = {
            ("classifier.homology_report", "extensions.presentation"),
            ("catalog.resolve_group", "extensions.ExtensionGroup"),
        }

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    # -- wrappers -----------------------------------------------------------

    def span(self, name, layer, fn, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            label = name_of(args, kwargs) if name_of else name
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's outermost span belongs to the span open
                # in the main thread
                main = tracer.main.stack
                parent = main[-1] if main else None
            frame = _Frame(next(tracer._ids), tracer.op_id)
            for outer, inner in tracer.nested:
                if inner == label and st.active[outer]:
                    st.counts[inner + "@" + outer] += 1
            stack.append(frame)
            st.active[label] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                st.active[label] -= 1
                dur = end - start
                own = dur - _union_ns(frame.children, start, end) \
                    - frame.light_ns
                st.counts[label] += 1
                st.total_ns[label] += dur
                st.self_ns[layer] += max(own, 0)
                if parent is not None:
                    parent.children.append((start, end))
                if len(st.spans) < MAX_SPANS:
                    st.spans.append((frame.id, parent.id if parent else 0,
                                     frame.op, label,
                                     threading.get_ident(), start, end))
                else:
                    st.counts["trace.dropped_spans"] += 1

        return wrapper

    def light(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.counts[name] += 1
            if st.in_light:
                return fn(*args, **kwargs)
            st.in_light = True
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                st.in_light = False
                st.self_ns[layer] += dur
                if st.stack:
                    st.stack[-1].light_ns += dur

        return wrapper

    # -- results ------------------------------------------------------------

    def merged(self):
        counts, total, own = Counter(), Counter(), Counter()
        for st in self._states:
            counts.update(st.counts)
            total.update(st.total_ns)
            own.update(st.self_ns)
        return counts, total, own

    def write(self, path, header):
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for st in self._states:
                for rec in st.spans:
                    f.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# what is traced

# the Smith-normal-form entry points that other solgeom modules import
INTMAT_HELPERS = ("_snf_rows", "_solve_rows", "_kernel_rows", "solve_integer",
                  "kernel_basis", "saturation")
INTMAT_METHODS = ("__init__", "__mul__", "__add__", "__sub__", "__neg__",
                  "__pow__", "apply", "det", "inverse", "is_unimodular",
                  "is_identity", "transpose")
GL2Z_FUNCTIONS = ("element_order", "finite_order_class", "conjugate_in_gl2z",
                  "centralizer_sample", "two_ended_type",
                  "monodromy_image_type")
EXTENSION_METHODS = ("__init__", "find_torsion", "element_mul", "element_inv",
                     "element_pow", "is_torsion", "presentation",
                     "abelianization", "h1_generator_orders",
                     "w1_factors_through_z4", "generator_characters",
                     "center", "i_lattice", "evaluate_word")
EXTENSION_FUNCTIONS = ("from_description", "verify_homomorphism",
                       "induced_lattice_matrix", "is_block_diagonalizable")
CATALOG_FUNCTIONS = ("resolve_group", "parse_group_spec", "load_group",
                     "default_catalog", "dinf_group", "g2_group", "b1_group",
                     "b1_sd_theta_group", "sigma_group", "kb_monodromy_group",
                     "bordered_group", "pillowcase_group")
CLASSIFIER_FUNCTIONS = ("validate", "normalize", "isomorphic",
                        "enumerate_invariants", "presentation_from_invariant",
                        "from_extension", "homology_report")


def install(tracer, solgeom):
    """Wrap every traced function of an imported solgeom package.  A name
    the program no longer has is skipped, so its counters read 0."""
    from solgeom import catalog, classifier, cli, extensions, gl2z, intmat
    from solgeom import verify

    modules = [solgeom, intmat, gl2z, extensions, catalog, classifier,
               verify, cli]

    def function(mod, attr, layer, skip=None, name_of=None):
        fn = getattr(mod, attr, None)
        if fn is None:
            return
        wrapper = tracer.span(f"{layer}.{attr}", layer, fn, name_of)
        for holder in modules:
            if holder is skip:
                continue
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapper)

    def methods(cls, names, wrap):
        for attr in names:
            fn = inspect.getattr_static(cls, attr, None)
            if fn is not None:
                setattr(cls, attr, wrap(attr, fn))

    # intmat's own internal calls stay inside the span of the entry point
    for attr in INTMAT_HELPERS:
        function(intmat, attr, "intmat", skip=intmat)
    methods(intmat.IntMatrix, INTMAT_METHODS, lambda attr, fn: tracer.light(
        "intmat.mul" if attr == "__mul__" else "intmat." + attr, "intmat",
        fn))
    for mod, layer, names in ((gl2z, "gl2z", GL2Z_FUNCTIONS),
                              (extensions, "extensions", EXTENSION_FUNCTIONS),
                              (catalog, "catalog", CATALOG_FUNCTIONS),
                              (classifier, "classifier",
                               CLASSIFIER_FUNCTIONS)):
        for attr in names:
            function(mod, attr, layer)
    methods(extensions.ExtensionGroup, EXTENSION_METHODS,
            lambda attr, fn: tracer.span(
                "extensions." + ("ExtensionGroup" if attr == "__init__"
                                 else attr), "extensions", fn))
    function(verify, "run_suite", "verify",
             name_of=lambda args, kwargs:
             "verify." + (args[0] if args else kwargs["name"]))
    function(cli, "main", "cli")
    if hasattr(verify, "_pmap"):
        # the pool's work items become spans, parented to the suite's span
        pmap = verify._pmap

        def traced_pmap(fn, items):
            return pmap(tracer.span("verify.check", "verify", fn), items)

        verify._pmap = traced_pmap
