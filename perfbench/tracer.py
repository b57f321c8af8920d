"""Span tracing around calls into metasum's modules, installed from outside.

The program is not edited.  ``install`` replaces functions and methods of the
eight package modules with wrappers that record one span per call: id,
parent id, name, tuple id, start and end (``perf_counter_ns``).  Spans stay
in memory; the orchestrator writes them out when the run ends.

Modules import each other's functions by name (``active_sum`` holds
``coset.todd_coxeter`` as ``_enumerate_raw``; ``transversal`` is bound in
``families``, ``hall`` and ``cli``), so a wrapper replaces every
module-namespace binding of the same function *object*, matched by identity.

Element-level functions (``mul``, ``power``, ``conjugate``, ``element_log``,
``cyclic_subgroup``, ``conjugate_subgroup`` and the like) are deliberately
not wrapped: they run up to millions of times per tuple and a wrapper would
swamp what it measures.  Their time lands in the self time of the wrapped
caller.

Counters come from public arguments, return values and object attributes
only: ``IntMatrix`` shapes, ``FpPresentation`` relators, ``Family``
components, ``CayleyTable.n`` and ``CosetTable.table``/``nlive`` after
``enumerate``.  Byte and cell counts are computed from shapes, not measured.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

MODULES = ("core", "families", "hall", "structure", "active_sum", "lattice", "coset", "cli")

# Module-level functions that get a span, per defining module.
FUNCTIONS = {
    "core": ("validate", "cayley_table", "generate_subgroup"),
    "families": (
        "conjugacy_closure",
        "build_generator_family",
        "transversal",
        "is_generating",
        "is_regular",
        "is_independent",
        "abelianized_group",
    ),
    "hall": ("hall_decomposition", "build_hall_family"),
    "structure": ("ganea_check",),
    "active_sum": (
        "verdict",
        "build_active_sum_presentation",
        "abelianized_order",
        "todd_coxeter",
    ),
    "lattice": ("smith_normal_form", "abelian_quotient"),
    "coset": ("todd_coxeter",),
    "cli": (
        "main",
        "run",
        "cmd_verify",
        "compute_scan_row",
        "verdict_payload",
        "build_family",
        "resolve_family_mode",
        "canonical_json",
    ),
}

# Dense-table methods that get a span (the cached properties run once per table).
TABLE_METHODS = ("closure_idx", "normalizer_idx", "commutator_span_idx", "commute")
TABLE_PROPERTIES = ("conj", "orders", "derived_idx")

COUNTERS = (
    "core.tables_built",
    "core.table_bytes_computed",
    "families.members",
    "families.transversal_size",
    "active_sum.relators",
    "active_sum.relator_letters",
    "lattice.snf_input_cells",
    "lattice.snf_certificate_cells",
    "coset.cosets_defined",
    "coset.cosets_live",
    "coset.enumerations_closed",
    "coset.closed_defined",
    "coset.closed_live",
    "coset.limit_hits",
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: Counter[str] = Counter()
        self.rebinds: dict[str, list[str]] = {}
        self.tuple_id = -1
        self.recording = True
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording a span per call; ``after(counters, args, kwargs,
        result)`` derives counters from the call once it returned."""
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, self.tuple_id, start, end))
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_snf(c, args, kwargs, result) -> None:
    mat = _arg(args, kwargs, 0, "mat")
    c["lattice.snf_input_cells"] += mat.rows * mat.cols
    # U is rows x rows and V is cols x cols; computed from the shape.
    c["lattice.snf_certificate_cells"] += mat.rows**2 + mat.cols**2


def _count_presentation(c, args, kwargs, result) -> None:
    c["active_sum.relators"] += len(result.relators)
    c["active_sum.relator_letters"] += sum(len(w) for w in result.relators)


def _count_family(c, args, kwargs, result) -> None:
    family = _arg(args, kwargs, 1, "family")
    c["families.members"] += len(family)
    # One transversal representative per component.
    c["families.transversal_size"] += len(set(family.components))


AFTER = {
    "lattice.smith_normal_form": _count_snf,
    "active_sum.build_active_sum_presentation": _count_presentation,
    "active_sum.verdict": _count_family,
}


def _rebind(modules, original, replacement) -> list[str]:
    """Replace every module-namespace binding of ``original`` (by identity)."""
    where = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                where.append(f"{mod.__name__.removeprefix('metasum.')}.{attr}")
    return where


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every metasum module in ``tracer``."""
    import importlib

    import metasum
    from metasum.errors import CosetLimitExceeded

    mods = {name: importlib.import_module(f"metasum.{name}") for name in MODULES}
    namespaces = [metasum, *mods.values()]

    for module, names in FUNCTIONS.items():
        for fname in names:
            original = getattr(mods[module], fname)
            span = f"{module}.{fname}"
            wrapper = tracer.wrap(span, original, AFTER.get(span))
            tracer.rebinds[span] = _rebind(namespaces, original, wrapper)
            if any(value is original for ns in namespaces for value in vars(ns).values()):
                raise RuntimeError(f"{span} is still bound unwrapped somewhere")

    table_cls = mods["core"].CayleyTable
    for meth in TABLE_METHODS:
        span = f"core.CayleyTable.{meth}"
        setattr(table_cls, meth, tracer.wrap(span, getattr(table_cls, meth)))
    for prop in TABLE_PROPERTIES:
        cached = table_cls.__dict__[prop]
        replacement = functools.cached_property(
            tracer.wrap(f"core.CayleyTable.{prop}", cached.func)
        )
        replacement.__set_name__(table_cls, prop)
        setattr(table_cls, prop, replacement)

    # Counter-only hooks: no span, so the construction time stays in the
    # self time of core.cayley_table and the enumeration in coset.todd_coxeter.
    counters = tracer.counters
    table_init = table_cls.__init__

    @functools.wraps(table_init)
    def counted_init(self, *args, **kwargs):
        table_init(self, *args, **kwargs)
        if tracer.recording:
            counters["core.tables_built"] += 1
            counters["core.table_bytes_computed"] += self.n * self.n * 8

    table_cls.__init__ = counted_init

    coset_cls = mods["coset"].CosetTable
    enumerate_ = coset_cls.enumerate

    @functools.wraps(enumerate_)
    def counted_enumerate(self):
        try:
            order = enumerate_(self)
        except CosetLimitExceeded:
            if tracer.recording:
                counters["coset.limit_hits"] += 1
                counters["coset.cosets_defined"] += len(self.table)
                counters["coset.cosets_live"] += self.nlive
            raise
        if tracer.recording:
            counters["coset.enumerations_closed"] += 1
            counters["coset.cosets_defined"] += len(self.table)
            counters["coset.cosets_live"] += self.nlive
            counters["coset.closed_defined"] += len(self.table)
            counters["coset.closed_live"] += self.nlive
        return order

    coset_cls.enumerate = counted_enumerate
