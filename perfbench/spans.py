"""Span recording for the traced run.

``Tracer.install`` replaces every public function of the hopfq modules with a
wrapper, in every hopfq module that has bound it (``from .cdnum import cd_mul``
binds a second name in ``fibration``), and counts ``CDElement`` and
``QubitState`` constructions.  Each call records a span: name, start, end,
parent span and op id.  Spans stay in flat arrays in memory until the run
ends; ``summarize`` then reduces them to per-name totals.

Self time of a span is its duration minus its child spans.  A function's
layer self time is its span minus the child spans of other layers, so
``braket.parse_state`` includes the time of ``braket.parse_amplitudes`` but
not that of ``states.make_state``.
"""

import functools
import sys
from array import array
from time import perf_counter

HOPFQ_MODULES = ("cdnum", "states", "braket", "fibration", "tangles", "reporting", "cli")
COUNTED_CLASSES = (("cdnum", "CDElement"), ("states", "QubitState"))

_FIELDS = (("name", "i"), ("op", "i"), ("parent", "i"), ("error", "b"), ("tag", "b"),
           ("start", "d"), ("end", "d"))


def _level_tag(args):
    # cd_mul spans carry the algebra level, so the first level-4 product
    # (which builds the product table) can be found after the run.
    return getattr(args[0], "level", -1) if args else -1


_TAGGERS = {"cdnum.cd_mul": _level_tag}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = {field: array(code) for field, code in _FIELDS}
        self.stack = []
        self.op = -1
        self.counts = {cls: 0 for _, cls in COUNTED_CLASSES}
        self._patches = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid, tag=-1):
        s = self.spans
        idx = len(s["start"])
        s["name"].append(nid)
        s["op"].append(self.op)
        s["parent"].append(self.stack[-1] if self.stack else -1)
        s["error"].append(0)
        s["tag"].append(tag)
        s["end"].append(0.0)
        self.stack.append(idx)
        s["start"].append(perf_counter())
        return idx

    def close(self, idx, error=False):
        self.spans["end"][idx] = perf_counter()
        if error:
            self.spans["error"][idx] = 1
        self.stack.pop()

    def add(self, name, start, end):
        """Record a finished span measured outside the tracer (no parent)."""
        idx = self.open(self.name_id(name))
        self.stack.pop()
        self.spans["start"][idx] = start
        self.spans["end"][idx] = end

    def _wrap(self, name, fn):
        nid = self.name_id(name)
        tagger = _TAGGERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid, tagger(args) if tagger else -1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, error=True)
                raise
            tracer.close(idx)
            return result

        return traced

    def install(self):
        """Wrap hopfq's public functions and count its value-class constructions."""
        modules = [sys.modules[f"hopfq.{m}"] for m in HOPFQ_MODULES]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules + [sys.modules["hopfq"]]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for mod_name, cls_name in COUNTED_CLASSES:
            cls = getattr(sys.modules[f"hopfq.{mod_name}"], cls_name)
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._counted(cls.__init__, cls_name)

    def _counted(self, init, key):
        counts = self.counts
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            if tracer.op >= 0:
                counts[key] += 1
            init(obj, *args, **kwargs)

        return counted

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the raw spans and counts (array bytes plus a small header)."""
        with open(path, "wb") as fh:
            header = repr({"names": self.names, "counts": self.counts,
                           "length": len(self.spans["start"])})
            fh.write(header.encode() + b"\n")
            for field, _ in _FIELDS:
                self.spans[field].tofile(fh)

    @classmethod
    def load(cls, path):
        import ast

        tracer = cls()
        with open(path, "rb") as fh:
            header = ast.literal_eval(fh.readline().decode())
            for field, _ in _FIELDS:
                tracer.spans[field].fromfile(fh, header["length"])
        for name in header["names"]:
            tracer.name_id(name)
        tracer.counts = header["counts"]
        return tracer


def layer_of(name):
    return name.split(".", 1)[0]


class Stat:
    """Totals for one span name over the measured ops."""

    __slots__ = ("calls", "entries", "self_s", "layer_self_s", "errors")

    def __init__(self):
        self.calls = 0  # spans
        self.entries = 0  # spans whose parent belongs to another layer
        self.self_s = 0.0  # span minus all child spans
        self.layer_self_s = 0.0  # span minus child spans of other layers
        self.errors = 0  # exceptions that left the layer


def summarize(tracer, op_tags=None, expected_errors=frozenset()):
    """Per span name (and per ``name@tag`` for tagged ops) totals over ops >= 0.

    ``op_tags`` maps an op id to a tag such as "n3"; ``expected_errors`` holds
    (op id, layer) pairs whose escaping exceptions are part of the request.
    Returns (stats, first_level4_product_s).
    """
    s = tracer.spans
    count = len(s["start"])
    names = tracer.names
    name = s["name"]
    parent = s["parent"]
    layers = [layer_of(nm) for nm in names]
    dur = [e - b for b, e in zip(s["start"], s["end"])]
    self_s = list(dur)
    for i in range(count):
        p = parent[i]
        if p >= 0:
            self_s[p] -= dur[i]
    layer_self = list(self_s)
    for i in range(count - 1, -1, -1):
        p = parent[i]
        if p >= 0 and layers[name[p]] == layers[name[i]]:
            layer_self[p] += layer_self[i]

    op_tags = op_tags or {}
    stats = {}
    first_level4 = None
    mul_id = tracer._name_ids.get("cdnum.cd_mul")
    for i in range(count):
        nid = name[i]
        if first_level4 is None and nid == mul_id and s["tag"][i] == 4:
            first_level4 = dur[i]
        op = s["op"][i]
        if op < 0:
            continue
        p = parent[i]
        layer = layers[nid]
        entry = p < 0 or layers[name[p]] != layer
        keys = [names[nid]]
        tag = op_tags.get(op)
        if tag is not None:
            keys.append(f"{names[nid]}@{tag}")
        for key in keys:
            st = stats.get(key)
            if st is None:
                st = stats[key] = Stat()
            st.calls += 1
            st.entries += entry
            st.self_s += self_s[i]
            st.layer_self_s += layer_self[i]
            if entry and s["error"][i] and (op, layer) not in expected_errors:
                st.errors += 1
    return stats, first_level4
