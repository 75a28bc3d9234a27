"""Layer tracing installed from outside the program.

`Tracer` wraps the public functions and methods of each `statecon` module and
the scipy calls the layers make, and records one span per call into a layer:
(id, parent id, layer, name, start, end).  Spans are kept in memory and
written out once, when the traced process ends (`Tracer.dump`).

Rules:

* `patch_scipy` runs before `statecon` is imported, because `penalty` and
  `mfg` bind `minimize`, `spsolve` and `linprog` at import time.  The scipy
  calls get pseudo-layers of their own (`lbfgs`, `newton`, `transport`), and
  the objective handed to `minimize` is wrapped as a call back into the
  layer that defined it.
* `install` wraps every public function and every public method of every
  class defined in a `statecon` module, then rebinds each name, in every
  `statecon` module, that still refers to an original (`epsilon_schedule` is
  imported by name into `cli`, `mfg` and `value`).  The cost callables stored
  on each `Problem` are wrapped as the problem is built, under the layer of
  the module that defined them.
* Only the outermost call into a layer opens a span and counts as an outer
  call; a call made from inside a span of the same layer is only counted
  (`Ellipse.grad_many` calls `project_many` and `b_many` itself).  The
  functions in `ALWAYS_SPAN` open a span anyway, because a metric needs their
  inclusive time.
* A hook that reads values off a call's arguments, result or exception runs
  on every call, outermost or not: `epsilon_schedule` calls
  `minimize_penalized` from inside the `penalty` layer and swallows the
  `Runaway`/`MaxIterations` it raises.
* Self time of a span is its duration minus the durations of its direct
  children (`self_times`), so nested spans never count time twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time

LAYERS = ("geometry", "model", "penalty", "pmp", "value", "mfg", "cli")

# scipy entry points the layers call: (module, attribute, pseudo-layer)
SCIPY_CALLS = (
    ("scipy.optimize", "minimize", "lbfgs"),
    ("scipy.sparse.linalg", "spsolve", "newton"),
    ("scipy.optimize", "linprog", "transport"),
)

# calls whose inclusive time is a metric; they open a span even when made
# from inside their own layer
ALWAYS_SPAN = frozenset({"cli:write_csv", "cli:write_json",
                         "mfg:best_response", "mfg:mild_solution",
                         "value:dpp_check"})

# `Problem` fields holding the running and terminal costs and derivatives
PROBLEM_FIELDS = ("f", "fx", "fv", "fvv", "fvx", "g", "Dg")

# raised out of `minimize_penalized` and swallowed by `epsilon_schedule`
RESTART_ERRORS = frozenset({"Runaway", "MaxIterations"})


def layer_of_module(modname: str) -> str | None:
    """The layer a `statecon` module name stands for, if any."""
    head, _, tail = modname.partition(".")
    return tail if head == "statecon" and tail in LAYERS else None


def layer_of(obj) -> str | None:
    """The `statecon` layer whose module defined `obj`, if any."""
    return layer_of_module(getattr(obj, "__module__", None) or "")


def short_name(fn) -> str:
    return fn.__qualname__.replace("<locals>.", "")


def _npoints(args) -> int:
    """Points passed to a geometry method: rows of a batch, 1 for a point."""
    shape = getattr(args[0], "shape", None) if args else None
    if shape is None:
        return 0
    return shape[0] if len(shape) == 2 else 1


def self_times(spans) -> dict:
    """Self time per layer: each span's duration minus its children's.

    `spans` are (id, parent, layer, name, start, end) with parent -1 at the
    root; children must nest inside their parent's interval.
    """
    child_time: dict = {}
    for _sid, parent, _layer, _name, t0, t1 in spans:
        if parent != -1:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict = {}
    for sid, _parent, layer, _name, t0, t1 in spans:
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
    return out


def inclusive_time(spans, layer: str, names) -> float:
    """Summed duration of the spans of `layer` named in `names`."""
    return sum(t1 - t0 for _s, _p, lay, name, t0, t1 in spans
               if lay == layer and name in names)


class Tracer:
    """Span and count recorder for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []     # (id, parent, layer, name, start, end)
        self.stack: list = []     # open spans as (id, layer)
        self.calls: dict = {}     # "layer:name" -> [all calls, outer calls]
        self.notes: dict = {"geometry.points": 0}
        self._ids = itertools.count()
        self._hooks = {
            "penalty:minimize_penalized": self._minimize_penalized,
            "penalty:epsilon_schedule": self._epsilon_schedule,
            "lbfgs:minimize": self._lbfgs,
            "pmp:check_extremal": self._check_extremal,
            "value:compute_value": self._compute_value,
            "value:dpp_check": self._dpp_check,
            "mfg:best_response": self._best_response,
            "mfg:fixed_point": self._fixed_point,
        }

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        """Return `fn` wrapped so that each call into `layer` is recorded."""
        key = f"{layer}:{name}"
        always = key in ALWAYS_SPAN
        hook = self._hooks.get(key)
        geometry = layer == "geometry"
        spans, stack, notes = self.spans, self.stack, self.notes
        count = self.calls.setdefault(key, [0, 0])
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            outer = not stack or stack[-1][1] != layer
            span = outer or always
            if not span and hook is None:
                return fn(*args, **kwargs)
            if outer:
                count[1] += 1
                if geometry:
                    notes["geometry.points"] += _npoints(args[1:])
            if span:
                sid = next(ids)
                parent = stack[-1][0] if stack else -1
                stack.append((sid, layer))
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                exc = e
                raise
            finally:
                if span:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, layer, name, t0, t1))
                if hook is not None:
                    hook(fn, args, kwargs, result, exc)
            return result

        wrapper._perfbench_wrapped = True
        return wrapper

    def patch_scipy(self) -> None:
        """Wrap the scipy calls; must run before `statecon` is imported."""
        for modname, attr, layer in SCIPY_CALLS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            if attr == "minimize":
                fn = self._wrap_objective(fn)
            setattr(mod, attr, self.wrap(fn, layer, attr))

    def _wrap_objective(self, minimize):
        """Record the objective `minimize` calls back as its own layer's
        work, so that L-BFGS-B self time is scipy's alone."""
        def call(fun, x0, *args, **kwargs):
            layer = layer_of(fun)
            if layer is not None:
                fun = self.wrap(fun, layer, short_name(fun))
            return minimize(fun, x0, *args, **kwargs)
        return call

    def install(self, modules) -> None:
        """Wrap the public API of each `statecon` module and rebind it."""
        wrapped: dict = {}   # id(original) -> wrapper
        for mod in modules:
            layer = layer_of_module(mod.__name__)
            if layer is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or layer_of(obj) != layer:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif (inspect.isfunction(obj)
                      and not inspect.isgeneratorfunction(obj)):
                    wrapped[id(obj)] = self.wrap(obj, layer, name)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)
        self._wrap_problem_fields(modules)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(
                    self.wrap(attr.__func__, layer, label)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(attr, layer, label))

    def _wrap_problem_fields(self, modules) -> None:
        problem = next(m.Problem for m in modules
                       if layer_of_module(m.__name__) == "model")
        post_init = problem.__post_init__
        tracer = self

        def traced_post_init(prob):
            post_init(prob)
            for field in PROBLEM_FIELDS:
                fn = getattr(prob, field)
                layer = layer_of(fn)
                if layer is None or getattr(fn, "_perfbench_wrapped", False):
                    continue
                setattr(prob, field,
                        tracer.wrap(fn, layer, f"Problem.{field}"))

        problem.__post_init__ = traced_post_init

    # -- values read off arguments and results ------------------------------

    def _add(self, key: str, value) -> None:
        self.notes[key] = self.notes.get(key, 0) + value

    def _minimize_penalized(self, fn, args, kwargs, result, exc):
        if exc is not None and type(exc).__name__ in RESTART_ERRORS:
            self._add("penalty.restarts", 1)

    def _epsilon_schedule(self, fn, args, kwargs, result, exc):
        if exc is None:
            eps = float(result[1].epsilon)
            self.notes["penalty.final_eps"] = min(
                eps, self.notes.get("penalty.final_eps", eps))

    def _lbfgs(self, fn, args, kwargs, result, exc):
        if exc is None:
            self._add("penalty.lbfgs.nit", int(result.nit))
            self._add("penalty.lbfgs.nfev", int(result.nfev))

    def _check_extremal(self, fn, args, kwargs, result, exc):
        if exc is None:
            self.notes["pmp.state_ode"] = result.residuals["state_ode"]
            self.notes["pmp.adjoint_ode"] = result.residuals["adjoint_ode"]

    def _compute_value(self, fn, args, kwargs, result, exc):
        if exc is None:
            nt, npt = result.values.shape
            self._add("value.nodes", (nt - 1) * npt)
            self._add("value.failures", len(result.failures))

    def _dpp_check(self, fn, args, kwargs, result, exc):
        if exc is None:
            self.notes["value.dpp_gap"] = max(
                float(result), self.notes.get("value.dpp_gap", 0.0))

    def _best_response(self, fn, args, kwargs, result, exc):
        eta = inspect.signature(fn).bind(*args, **kwargs).arguments["eta"]
        self.notes["mfg.support_max"] = max(
            len(eta.trajectories), self.notes.get("mfg.support_max", 0))

    def _fixed_point(self, fn, args, kwargs, result, exc):
        if exc is None:
            history = result[1]
            self.notes["mfg.iterations"] = len(history)
            self.notes["mfg.residual"] = float(history[-1])

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "calls": self.calls, "notes": self.notes}, fh)
