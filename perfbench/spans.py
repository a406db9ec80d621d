"""Span recorder for the traced benchmark run.

`Spans.install` replaces every public function of the fourfold modules
(and `LocalSystem.char_class`) with a wrapper that records one span per
call: name, start, end, parent span, input id and, for a few functions, a
value read from the result.  Spans stay in memory until `write`; the
per-layer metrics are computed from them by `layer_metrics`.  Nothing in
the package itself is changed on disk.
"""

import functools
import gzip
import inspect
import json
import time

MODULES = ("cli", "manifold", "lattice", "cover", "charpoly", "obstruct")

# values read from a call's result; summed per name
_MEASURES = {
    "lattice.is_characteristic": lambda ok: int(bool(ok)),
    "obstruct.lift_valid": lambda ok: int(bool(ok)),
    "cover.enumerate_characteristics": len,
    "charpoly.total_sw_line_sum":
        lambda data: sum(len(w.terms) for w in data.sw),
}

# span fields
NAME, START, END, PARENT, INPUT, VALUE = range(6)


class Spans:
    """In-memory span log plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []
        self.input_id = None
        self._stack = []
        self._undo = []

    def install(self, package):
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._patch(module, attr, f"{mod_name}.{attr}")
        self._patch(package.cover.LocalSystem, "char_class",
                    "cover.char_class")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, name):
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrap(original, name))
        self._undo.append((owner, attr, original))

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent, time.perf_counter_ns()

    def _close(self, index, name, start, parent, value):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.input_id, value)

    def _wrap(self, fn, name):
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, name, start, parent, None)
            if inspect.isgenerator(result):
                value, result = 0, self._resume(result, name)
            elif measure is not None:
                value = measure(result)
            else:
                return result
            self.spans[index] = self.spans[index][:VALUE] + (value,)
            return result

        return wrapper

    def _resume(self, gen, name):
        """Record each step of a lazy result as a span of the same name.

        A generator does its work when consumed, so each step is timed
        where it runs and counted as one item (`classes_out` for a lazy
        `enumerate_characteristics`).
        """
        while True:
            index, parent, start = self._open()
            value = None
            try:
                item = next(gen)
                value = 1
            except StopIteration:
                value = 0
                return
            finally:
                self._close(index, name, start, parent, value)
            yield item

    def write(self, path):
        """Write the spans as gzipped JSON lines, names listed in a header."""
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": names, "fields": [
                "name", "start_ns", "end_ns", "parent", "input", "value"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps([code[s[NAME]], *s[START:]]))
                fh.write("\n")


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def merge(span_lists):
    """Concatenate span logs of separate processes, shifting parent indices."""
    out = []
    for spans in span_lists:
        offset = len(out)
        out.extend((s[NAME], s[START], s[END],
                    s[PARENT] + offset if s[PARENT] >= 0 else -1,
                    s[INPUT], s[VALUE]) for s in spans)
    return out


def first_calls(span_lists, name="cover.enumerate_characteristics"):
    """(process index, ms) of the first `name` span of each process."""
    out = []
    for i, spans in enumerate(span_lists):
        first = next((s for s in spans if s[NAME] == name), None)
        if first is not None:
            out.append((i, (first[END] - first[START]) / 1e6))
    return out


def layer_metrics(spans, scales, spinc_inputs):
    """Per-input layer metrics over the spans of the timed inputs.

    Input i's self times are multiplied by `scales[i]`, its speed scale.
    `spinc_inputs` holds the ids of inputs run through `spinc`, which
    prints every class it builds, so each counts as examined.
    """
    inputs = len(scales)
    selfs = self_times(spans)
    calls, self_ns, values = {}, {}, {}
    examined = built = 0
    for s, own in zip(spans, selfs):
        if s[INPUT] is None or s[INPUT] == "warmup":
            continue
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own * scales[s[INPUT]]
        values[name] = values.get(name, 0) + (s[VALUE] or 0)
        if name == "cover.enumerate_characteristics":
            built += s[VALUE] or 0
            if s[INPUT] in spinc_inputs:
                examined += s[VALUE] or 0
        elif (name == "obstruct.lift_valid" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "obstruct.certify"):
            examined += 1

    def per_input(table, name, scale=1):
        return table.get(name, 0) / scale / inputs

    def ratio(name):
        return values.get(name, 0) / calls[name] if calls.get(name) else 0.0

    out = {}
    for name in ("lattice.is_characteristic", "lattice.square",
                 "cover.char_class", "obstruct.lift_valid"):
        out[f"{name}.calls"] = per_input(calls, name)
    for name in ("lattice.is_characteristic", "lattice.square",
                 "cover.enumerate_characteristics",
                 "charpoly.total_sw_line_sum", "charpoly.equivariant_euler",
                 "obstruct.build_family", "obstruct.lift_valid",
                 "obstruct.check_theorem_A", "obstruct.check_theorem_B",
                 "obstruct.certify", "manifold.normalize_homeo_type",
                 "lattice.invariants", "cover.build_standard_cover",
                 "cli.parse", "cli.emit_json"):
        out[f"{name}.self_ms"] = per_input(self_ns, name, 1e6)
    out["lattice.is_characteristic.accept_ratio"] = ratio(
        "lattice.is_characteristic")
    out["cover.enumerate_characteristics.classes_out"] = per_input(
        values, "cover.enumerate_characteristics")
    out["cover.useful_ratio"] = examined / built if built else 0.0
    out["charpoly.total_sw_line_sum.terms_out"] = per_input(
        values, "charpoly.total_sw_line_sum")
    out["obstruct.lift_ratio"] = ratio("obstruct.lift_valid")
    out["manifold.normalize_homeo_type.calls_per_input"] = per_input(
        calls, "manifold.normalize_homeo_type")
    return out
