"""Outside-in per-layer tracer.

The tracer wraps public functions of each quasihopf module from the outside:
it replaces the function on its defining module or class and also every
alias bound by ``from .x import f`` in the consuming modules, since a call
through an alias that was left alone would be missed.  Nothing under
``src/`` changes.

Each call of a wrapped function records a span ``(id, parent id, layer
name, start, end)`` in memory.  A call of a name nested directly inside a
span of the same name (``__mul__`` delegating to ``then``, a recursive
``elaborate``) belongs to the outer span and opens none of its own.  Self
time is the span's duration minus the durations of its direct children.

Per-vector primitives (``Matrix.apply``, ``vec_add_scaled``; about a million
calls per ``sweedler_h4`` pass) are deliberately not wrapped.

Besides spans the tracer counts, at the same boundaries:

* ``linalg.entries``: non-integer share and largest bit length of the
  entries of the matrices that the wrapped linalg operations return, read
  through the public ``Matrix.columns()``.  Reading them stops the span
  clock, so it adds to no span.
* ``repcat.action_build``: a span around each lazy action materialisation
  of an ``HModule``, and the share whose (constructor, label, dim) key was
  already built in this process -- work that a memo would save.
* ``algebra_a.heart`` hits: ``heart`` calls that return without
  constructing a ``HeartModule``.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# layer name -> (module, dotted attribute paths); each path is a module
# function or a Class.method of that module.
LAYERS = {
    "linalg.matmul": ("quasihopf.linalg", ("Matrix.then",)),
    "linalg.kron": ("quasihopf.linalg", ("Matrix.kron", "kron")),
    "linalg.add": ("quasihopf.linalg", ("Matrix.__add__", "Matrix.__sub__",
                                        "Matrix.__neg__")),
    "linalg.eq": ("quasihopf.linalg", ("Matrix.__eq__",)),
    "linalg.solve": ("quasihopf.linalg", (
        "LinearSystem.add_equation", "LinearSystem.particular_solution",
        "LinearSystem.kernel_basis", "inverse", "rank", "cokernel_of_columns",
        "solve", "kernel", "cokernel", "span_basis", "spans_equal")),
    "qha.mul": ("quasihopf.qha", ("QuasiHopfAlgebra.mul",)),
    "qha.tensor_inverse": ("quasihopf.qha", ("QuasiHopfAlgebra.tensor_inverse",)),
    "qha.verify_axioms": ("quasihopf.qha", ("QuasiHopfAlgebra.verify_axioms",)),
    "qha.kappa_lambda": ("quasihopf.qha", ("kappa_lambda",)),
    "repcat.tensor": ("quasihopf.repcat", ("tensor",)),
    "repcat.elem_action_matrix": ("quasihopf.repcat", ("elem_action_matrix",)),
    "repcat.hom_space": ("quasihopf.repcat", ("hom_space",)),
    "repcat.inner": ("quasihopf.repcat", ("inner_hom", "eeta", "eeps", "icomp",
                                          "in_map")),
    "center.braiding": ("quasihopf.center", ("braiding",)),
    "center.validate_center": ("quasihopf.center", ("validate_center",)),
    "center.tensor_center": ("quasihopf.center", ("tensor_center",)),
    "algebra_a.build_A": ("quasihopf.algebra_a", ("build_A",)),
    "algebra_a.heart": ("quasihopf.algebra_a", ("heart",)),
    "algebra_a.heart_mu": ("quasihopf.algebra_a", ("heart_mu",)),
    "algebra_a.diamond": ("quasihopf.algebra_a", ("diamond",)),
    "algebra_a.nat_to_hom": ("quasihopf.algebra_a", ("nat_to_hom",)),
    "algebra_a.extract_center_structure": ("quasihopf.algebra_a",
                                           ("extract_center_structure",)),
    "algebra_a.heart_compose": ("quasihopf.algebra_a", ("heart_compose",)),
    "algebra_a.s_t_isos": ("quasihopf.algebra_a", ("s_t_isos",)),
    "mod_a.tensor_over_A": ("quasihopf.mod_a", ("tensor_over_A",)),
    "mod_a.coinvariants": ("quasihopf.mod_a", ("coinvariants",)),
    "mod_a.counit_iso": ("quasihopf.mod_a", ("counit_iso",)),
    "mod_a.unit_iso": ("quasihopf.mod_a", ("unit_iso",)),
    "mod_a.amodule_hom_space": ("quasihopf.mod_a", ("amodule_hom_space",)),
    "mod_a.descended_compose": ("quasihopf.mod_a", ("_descended_compose_iso",)),
    "dsl.parse": ("quasihopf.dsl", ("parse",)),
    "dsl.elaborate": ("quasihopf.dsl", ("Elaborator.elaborate",)),
    "dsl.evaluate": ("quasihopf.dsl", ("Elaborator.evaluate",)),
    "cli.load": ("quasihopf.cli", ("_load_algebra",)),
    "cli.emit": ("quasihopf.cli", ("_emit",)),
}

# Span of a lazy HModule action materialisation (the module's builder).
ACTION_BUILD = "repcat.action_build"

# Layer names whose Matrix results are inspected for entry growth.
INSPECTED = frozenset({"linalg.matmul", "linalg.kron", "linalg.add", "linalg.solve"})


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith(".self_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".max_bits"):
        return "bits"
    return "count"


def _resolve(modname: str, path: str):
    owner = sys.modules[modname]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _quasihopf_namespaces():
    """Every module namespace of the package and every class dict in it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "quasihopf" or name.startswith("quasihopf.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Tracer:
    """Spans and counters for one traced process.  ``install`` patches the
    package, ``uninstall`` restores every attribute it replaced."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._paused_ns = 0
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, int, int, int]] = []
        self._stack: list[tuple[int, int]] = []   # (span id, name index)
        self._next_id = 1
        self.entries = 0
        self.nonint_entries = 0
        self.max_bits = 0
        self.action_repeats = 0
        self._built_keys: set = set()
        self.heart_calls = 0
        self.heart_hits = 0
        self._heart_constructed = 0

    # -- clock --------------------------------------------------------------

    def clock(self) -> int:
        """Nanoseconds, with the time spent inspecting results taken out."""
        return time.perf_counter_ns() - self._paused_ns

    # -- spans --------------------------------------------------------------

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _call(self, idx: int, fn, args, kwargs, collapse: bool = True):
        stack = self._stack
        if collapse and stack and stack[-1][1] == idx:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else 0
        stack.append((sid, idx))
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            self.spans.append((sid, parent, idx, t0, t1))
        if self.names[idx] in INSPECTED:
            self._inspect(result)
        return result

    def _inspect(self, result) -> None:
        from quasihopf.linalg import Matrix
        if not isinstance(result, Matrix):
            return
        p0 = time.perf_counter_ns()
        bits = self.max_bits
        nonint = 0
        count = 0
        for col in result.columns():
            count += len(col)
            for x in col.values():
                den = x.denominator
                if den != 1:
                    nonint += 1
                    bits = max(bits, den.bit_length())
                bits = max(bits, x.numerator.bit_length())
        self.entries += count
        self.nonint_entries += nonint
        self.max_bits = bits
        self._paused_ns += time.perf_counter_ns() - p0

    def _wrap(self, name: str, fn):
        idx = self._index(name)
        call = self._call

        def traced(*args, **kwargs):
            return call(idx, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_mul(self, fn):
        from quasihopf.linalg import Matrix
        mat, add = self._index("linalg.matmul"), self._index("linalg.add")
        call = self._call

        def traced(self_, other):
            return call(mat if isinstance(other, Matrix) else add, fn, (self_, other), {})

        traced.__wrapped__ = fn
        return traced

    # -- counters on constructors -------------------------------------------

    def _wrap_module_init(self, init):
        def counted_init(self_, h, dim, action=None, label="", builder=None, *rest, **kw):
            if builder is not None:
                key = (builder.__qualname__.split(".<locals>")[0], label, dim)
                builder = self._counted_builder(builder, key)
            init(self_, h, dim, action, label, builder, *rest, **kw)

        counted_init.__wrapped__ = init
        return counted_init

    def _counted_builder(self, builder, key):
        idx = self._index(ACTION_BUILD)

        def build():
            self.action_repeats += key in self._built_keys
            self._built_keys.add(key)
            # a build nested in another build is distinct work: no collapse
            return self._call(idx, builder, (), {}, collapse=False)
        return build

    def _wrap_heart(self, traced_heart):
        def heart(*args, **kwargs):
            before = self._heart_constructed
            out = traced_heart(*args, **kwargs)
            self.heart_calls += 1
            self.heart_hits += self._heart_constructed == before
            return out
        heart.__wrapped__ = traced_heart
        return heart

    def _wrap_heart_module_init(self, init):
        def counted_init(*args, **kwargs):
            self._heart_constructed += 1
            init(*args, **kwargs)
        counted_init.__wrapped__ = init
        return counted_init

    # -- install ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` to ``replacement`` on every module and class of
        the package that holds it, aliases included."""
        for ns in _quasihopf_namespaces():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patched.append((ns, attr, original))
                    setattr(ns, attr, replacement)

    def install(self) -> None:
        import quasihopf
        for info in pkgutil.iter_modules(quasihopf.__path__):
            importlib.import_module(f"quasihopf.{info.name}")
        from quasihopf.algebra_a import HeartModule
        from quasihopf.linalg import Matrix
        from quasihopf.repcat import HModule

        wrappers = {}
        for name, (modname, paths) in LAYERS.items():
            for path in paths:
                owner, attr = _resolve(modname, path)
                fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrappers[fn] = self._wrap(name, fn)
        heart_fn = sys.modules["quasihopf.algebra_a"].heart
        wrappers[heart_fn] = self._wrap_heart(wrappers[heart_fn])
        # Matrix.__mul__ (and its alias __rmul__) is a product with a matrix
        # and a scaling with a scalar; the wrapper picks the layer per call.
        mul = vars(Matrix)["__mul__"]
        wrappers[mul] = self._wrap_mul(mul)
        wrappers[vars(HModule)["__init__"]] = self._wrap_module_init(vars(HModule)["__init__"])
        wrappers[vars(HeartModule)["__init__"]] = \
            self._wrap_heart_module_init(vars(HeartModule)["__init__"])
        for original, replacement in wrappers.items():
            self._replace_everywhere(original, replacement)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), over the spans recorded since reset."""
        dur = {}
        child = defaultdict(int)
        for sid, parent, _, t0, t1 in self.spans:
            dur[sid] = t1 - t0
            if parent:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for sid, _, idx, _, _ in self.spans:
            calls[idx] += 1
            self_ns[idx] += dur[sid] - child[sid]
        return {self.names[i]: (calls[i], self_ns[i] / 1e9) for i in calls}

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers that were never called read 0."""
        totals = self.layer_totals()
        out = {}
        for name in [*LAYERS, ACTION_BUILD]:
            calls, self_s = totals.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["linalg.entries.nonint_frac"] = \
            self.nonint_entries / self.entries if self.entries else 0.0
        out["linalg.entries.max_bits"] = self.max_bits
        builds = totals.get(ACTION_BUILD, (0, 0.0))[0]
        out[f"{ACTION_BUILD}.repeat_frac"] = self.action_repeats / builds if builds else 0.0
        out["algebra_a.heart.hit_frac"] = \
            self.heart_hits / self.heart_calls if self.heart_calls else 0.0
        return out
