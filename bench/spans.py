"""In-memory spans around the public functions of the e1forge modules.

A ``Tracer`` replaces every public function of the traced modules with a
wrapper that records a span, at every module attribute bound to that
function (``semisimple.poly_factor`` as well as ``polyfield.poly_factor``),
and puts the originals back on ``uninstall``.  Spans are aggregated as they
close, so memory stays flat however many calls a pass makes:

* per function: calls and self time (span time minus the time of its
  direct child spans);
* per phase (a named group of functions): time covered by the outermost
  span of the group, so recursion or nesting inside the group is counted
  once;
* per hook: a count computed from a call's arguments or result.

A generator function gets one span per resumption, so a stream's span
covers the work done inside the generator and not the consumer's loop body.

``FieldSpec`` methods are not spanned: a pass makes millions of
field multiplications, and a span on each would swamp every other self
time.  ``CallCounter`` counts them in a separate pass instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

LAYERS = ("gf2k", "polyfield", "semisimple", "autos", "bounds", "oracle", "cli")

# phase metric -> functions whose outermost spans it sums
PHASES = {
    "polyfield.irreducibles_s": ("polyfield.irreducibles",),
    "polyfield.poly_factor_s": ("polyfield.poly_factor",),
    "polyfield.duality_s": (
        "polyfield.poly_star",
        "polyfield.poly_dagger",
        "polyfield.is_real_charpoly",
        "polyfield.is_unitary_compatible",
    ),
    "semisimple.shape_s": (
        "semisimple.centralizer_shape",
        "semisimple.index_odd_part",
    ),
    "semisimple.realness_s": (
        "semisimple.is_real_class",
        "semisimple.realness_structure",
    ),
    "semisimple.pgl_s": (
        "semisimple.pgl_is_real",
        "semisimple.pgl_centralizer_order",
    ),
    "semisimple.classify_s": ("semisimple.classify_gudprep",),
    "autos.twisted_norm_s": ("autos.twisted_norm",),
    "autos.naive_power_s": ("autos.naive_power",),
    "autos.order_bound_s": ("autos.verify_order_bound",),
    "bounds.certify_s": ("bounds.certify", "bounds.certify_all"),
    "bounds.replay_s": ("bounds.replay_witness",),
    "oracle.enumerate_s": ("oracle.enumerate_gl", "oracle.enumerate_gu"),
    "oracle.mult_table_s": ("oracle.mult_table",),
    "oracle.odd_mask_s": ("oracle.odd_order_mask",),
    "oracle.charpoly_buckets_s": ("oracle.charpoly_buckets",),
    "oracle.brute_scan_s": (
        "oracle.brute_centralizer",
        "oracle.brute_is_real",
        "oracle.projective_centralizer",
        "oracle.projective_is_real",
    ),
}


# call-count metric -> functions whose calls it sums
CALL_COUNTS = {
    "polyfield.poly_factor_calls": ("polyfield.poly_factor",),
    "autos.compose_calls": ("autos.compose",),
    "oracle.batch_products": ("oracle.batch_left", "oracle.batch_right"),
}

# yield ratio: items yielded by unitary enumerations over the (caller,
# callee) calls of the unitary filter
UNITARY_FILTER = ("polyfield.enumerate_charpolys", "polyfield.is_unitary_compatible")


def _unitary_stream(args, kwargs, item) -> int:
    unitary = kwargs.get("unitary", args[3] if len(args) > 3 else False)
    return 1 if unitary else 0


# function -> (counter, f(args, kwargs, result or yielded item) -> increment)
HOOKS = {
    "polyfield.irreducibles": (
        "polyfield.irreducibles_found",
        lambda args, kwargs, res: len(res),
    ),
    "polyfield.enumerate_charpolys": ("polyfield.unitary_yields", _unitary_stream),
    "oracle.enumerate_gl": ("oracle.elements", lambda args, kwargs, g: g.order),
    "oracle.enumerate_gu": ("oracle.elements", lambda args, kwargs, g: g.order),
    "oracle.batch_left": (
        "oracle.rows_multiplied",
        lambda args, kwargs, res: res.shape[0],
    ),
    "oracle.batch_right": (
        "oracle.rows_multiplied",
        lambda args, kwargs, res: res.shape[0],
    ),
}


def _modules():
    return [importlib.import_module(f"e1forge.{name}") for name in LAYERS]


def public_functions():
    """(span name, function) for each public function defined in a layer."""
    out = []
    for mod in _modules():
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):  # lru_cache'd ones too
                out.append((f"{short}.{attr}", obj))
    return out


def _rebind(replacements: dict) -> list:
    """Point every module attribute bound to a key at its replacement."""
    import e1forge

    patched = []
    for mod in [e1forge, *_modules()]:
        for attr, obj in list(vars(mod).items()):
            new = replacements.get(id(obj))
            if new is not None and new[0] is obj:
                setattr(mod, attr, new[1])
                patched.append((mod, attr, obj))
    return patched


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.phase_of = {fn: ph for ph, fns in PHASES.items() for fn in fns}
        self.phase_depth = dict.fromkeys(PHASES, 0)
        self.phase_ns = dict.fromkeys(PHASES, 0)
        self.unitary_attempts = 0
        self.counters: dict[str, int] = {}
        self._patched: list = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> None:
        stack = self.stack
        if stack and (stack[-1][0], name) == UNITARY_FILTER:
            self.unitary_attempts += 1
        phase = self.phase_of.get(name)
        if phase is not None:
            self.phase_depth[phase] += 1
        stack.append([name, perf_counter_ns(), 0])

    def _leave(self) -> None:
        name, start, child = self.stack.pop()
        dur = perf_counter_ns() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        if self.stack:
            self.stack[-1][2] += dur
        phase = self.phase_of.get(name)
        if phase is not None:
            self.phase_depth[phase] -= 1
            if self.phase_depth[phase] == 0:
                self.phase_ns[phase] += dur

    def _count(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def _wrap(self, name, fn):
        enter, leave, count = self._enter, self._leave, self._count
        counter, hook = HOOKS.get(name, (None, None))
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def stream(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    if hook is not None:
                        count(counter, hook(args, kwargs, item))
                    yield item

            stream._bench_span = True
            return stream

        @functools.wraps(fn)
        def call(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                count(counter, hook(args, kwargs, result))
            return result

        call._bench_span = True
        return call

    # -- install / uninstall ----------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {
            id(fn): (fn, self._wrap(name, fn)) for name, fn in public_functions()
        }
        self._patched = _rebind(wrappers)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans still open")

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer self times, phase times and counts of one traced pass.

        ``bench.self_s`` is the part of ``wall_s`` outside every span; it is
        negative only if the spans claim more time than the pass took.
        """
        layer_ns = dict.fromkeys(LAYERS, 0)
        for name, ns in self.self_ns.items():
            layer_ns[name.split(".", 1)[0]] += ns
        out = {f"{layer}.self_s": ns / 1e9 for layer, ns in layer_ns.items()}
        out["bench.self_s"] = wall_s - sum(layer_ns.values()) / 1e9
        out.update({phase: ns / 1e9 for phase, ns in self.phase_ns.items()})
        out["polyfield.enumerate_charpolys_s"] = (
            self.self_ns.get("polyfield.enumerate_charpolys", 0) / 1e9
        )
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(self.calls.get(name, 0) for name in names)
        for counter in ("polyfield.irreducibles_found", "oracle.elements", "oracle.rows_multiplied"):
            out[counter] = self.counters.get(counter, 0)
        yielded = self.counters.get("polyfield.unitary_yields", 0)
        attempts = self.unitary_attempts
        out["polyfield.enum_yield_ratio"] = yielded / attempts if attempts else 0.0
        return out


def installed_wrappers() -> list[str]:
    """Module attributes that are still tracer wrappers (should be none)."""
    import e1forge

    return [
        f"{mod.__name__}.{attr}"
        for mod in [e1forge, *_modules()]
        for attr, obj in vars(mod).items()
        if getattr(obj, "_bench_span", False)
    ]


class CallCounter:
    """Context manager counting calls of class methods.

    ``targets`` maps a counter name to (class, method name); ``counts``
    holds the totals.
    """

    def __init__(self, targets):
        self.targets = targets
        self.counts = dict.fromkeys(targets, 0)
        self._originals = []

    def __enter__(self):
        counts = self.counts
        for counter, (cls, meth) in self.targets.items():
            original = cls.__dict__[meth]

            def counting(*args, _orig=original, _key=counter, **kwargs):
                counts[_key] += 1
                return _orig(*args, **kwargs)

            self._originals.append((cls, meth, original))
            setattr(cls, meth, counting)
        return counts

    def __exit__(self, *exc):
        for cls, meth, original in reversed(self._originals):
            setattr(cls, meth, original)
        self._originals = []
        return False
