"""Call-tree tracing of the qapprox layers, installed from outside the program.

``install`` replaces every public function of the layer modules at every
module binding (``analysis.basis_row`` as well as ``basis.basis_row``) with a
wrapper that records the call in a per-request call tree.  A call is
recorded when it crosses a layer boundary, or when a per-layer metric counts
the function (``COUNTED``); a call inside its own layer adds nothing to that
layer's self time, so the others pass straight through.  Calls of one
function under the same parent node share one node that accumulates calls,
seconds and work units, which is how per-point functions (f, ``basis_row``)
are traced without one record per call.  The nodes stay in memory and are
written out when the run ends.  A layer's self time is the time of its nodes
minus the time of their child nodes (``self_seconds``).
"""

import importlib
import inspect
from time import perf_counter

LAYERS = ("cli", "funcreg", "qcore", "basis", "durrmeyer", "moments", "statconv", "analysis",
          "reporting")

# Functions recorded even when called from their own layer, because a
# per-layer metric counts them.
COUNTED = {
    "funcreg.resolve", "qcore.jackson_integral", "qcore.log_q_pochhammer_inf",
    "qcore.q_binomial_row", "basis.basis_row", "basis.limit_basis",
    "durrmeyer.limit_coefficients", "durrmeyer.finite_coefficients", "moments.finite_moment",
    "moments.limit_moment", "moments.central_moments", "statconv.window",
}

# Never traced: evaluate() runs once per AST node inside f, which is traced
# as a whole, and as_q/q_integer are scalar helpers called from every layer
# at up to a million times per run; a span around them would time the
# tracer, so their time stays with their caller.
FOLDED = {"funcreg.evaluate", "qcore.as_q", "qcore.q_integer"}

# work units recorded from a call's result: (node field, function of result)
PROBES = {
    "statconv.window": ("units", len),  # indices a density window scans
    "durrmeyer.limit_coefficients": ("peak", lambda r: len(r) - 1),  # k_max
}


class Node:
    __slots__ = ("nid", "parent", "request", "name", "layer", "calls", "seconds", "units", "peak",
                 "children")

    def __init__(self, nid, parent, request, name, layer):
        self.nid, self.parent, self.request = nid, parent, request
        self.name, self.layer = name, layer
        self.calls = self.units = self.peak = 0
        self.seconds = 0.0
        self.children = {}

    def record(self):
        return {"id": self.nid, "parent": self.parent, "request": self.request, "name": self.name,
                "layer": self.layer, "calls": self.calls, "seconds": self.seconds,
                "units": self.units, "peak": self.peak}


class Tracer:
    """Records calls only while a request is open; otherwise it is a pass-through."""

    def __init__(self):
        self.nodes = []
        self.stack = []

    def request(self, request_id, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as the root node of one request."""
        root = self._node(None, request_id, "request", "bench")
        self.stack.append(root)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            root.seconds += perf_counter() - t0
            root.calls += 1
            self.stack.pop()

    def call(self, name, layer, fn, args, kwargs, units=0, counted=True):
        if not self.stack:
            return fn(*args, **kwargs)
        parent = self.stack[-1]
        if not counted and parent.layer == layer:
            return fn(*args, **kwargs)
        node = parent.children.get(name)
        if node is None:
            node = parent.children[name] = self._node(parent.nid, parent.request, name, layer)
        self.stack.append(node)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            node.seconds += perf_counter() - t0
            node.calls += 1
            node.units += units
            self.stack.pop()
        probe = PROBES.get(name)
        if probe is not None:
            field, measure = probe
            value = measure(result)
            if field == "units":
                node.units += value
            else:
                node.peak = max(node.peak, value)
        return result

    def _node(self, parent, request, name, layer):
        node = Node(len(self.nodes), parent, request, name, layer)
        self.nodes.append(node)
        return node

    def records(self):
        return [n.record() for n in self.nodes]


class TracedF:
    """Proxy for a resolved test function f: counts calls and points evaluated."""

    def __init__(self, tracer, f):
        self._tracer = tracer
        self._f = f

    def __call__(self, t):
        return self._tracer.call("funcreg.f", "funcreg", self._f, (t,), {}, getattr(t, "size", 1))

    def __getattr__(self, name):
        return getattr(self._f, name)


def _wrap(tracer, fn, layer):
    name = f"{layer}.{fn.__name__}"
    counted = name in COUNTED

    def wrapper(*args, **kwargs):
        result = tracer.call(name, layer, fn, args, kwargs, counted=counted)
        if layer == "funcreg" and callable(result) and not isinstance(result, TracedF):
            result = TracedF(tracer, result)
        return result

    return wrapper


def _traceable(obj):
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    module = getattr(obj, "__module__", "") or ""
    return module.startswith("qapprox.") and module.split(".")[-1] in LAYERS


def install(tracer):
    """Wrap every public layer function at every binding.

    Returns the replaced bindings as (module, attribute, original) triples.
    """
    wrappers = {}
    bindings = []
    for layer in LAYERS:
        module = importlib.import_module(f"qapprox.{layer}")
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _traceable(obj):
                continue
            home = obj.__module__.split(".")[-1]
            if f"{home}.{obj.__name__}" in FOLDED:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(tracer, obj, home)
            setattr(module, attr, wrappers[id(obj)])
            bindings.append((module, attr, obj))
    return bindings


def wrapped_names(bindings):
    """Sorted 'layer.function' names of the wrapped functions."""
    return sorted({f"{obj.__module__.split('.')[-1]}.{obj.__name__}" for _, _, obj in bindings})


def self_seconds(records):
    """Self time per layer: each node's seconds minus its children's seconds."""
    child = {}
    for r in records:
        if r["parent"] is not None:
            child[r["parent"]] = child.get(r["parent"], 0.0) + r["seconds"]
    out = {}
    for r in records:
        out[r["layer"]] = out.get(r["layer"], 0.0) + r["seconds"] - child.get(r["id"], 0.0)
    return out


def totals(records, name):
    """(calls, seconds, units, peak) summed over every node of one function."""
    calls = units = peak = 0
    seconds = 0.0
    for r in records:
        if r["name"] == name:
            calls += r["calls"]
            seconds += r["seconds"]
            units += r["units"]
            peak = max(peak, r["peak"])
    return calls, seconds, units, peak
