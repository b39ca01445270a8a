"""Spans around the benchmark's calls into each scattree layer.

Tracing wraps module-level functions from outside the package; the
package itself records nothing.  Every module binding of a wrapped
function is replaced, so a name imported into another module (``embeds``
inside ``ends``, ``shift_report`` inside ``stability``) is traced there
too.  A layer that re-enters itself, such as the recursive ``embeds``,
counts every entry but opens a span only at its outermost entry.

A span is (layer, parent span, start, end).  Spans stay in memory, in
flat arrays because ``analyze`` opens more than half a million of them
per pass, and are written to a file when the worker's batch ends.

Also here: the resident high-water mark a child reports.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# layer -> the (module, function) pairs whose calls belong to it
LAYERS = {
    "terms.parse_term": (("terms", "parse_term"),),
    "terms.embeds": (("terms", "embeds"),),
    "terms.expand_finite": (("terms", "expand_finite"),),
    "terms.truncate": (("terms", "truncate"),),
    "finite_trees.rooted_embeds": (("finite_trees", "rooted_embeds"),),
    "finite_trees.canonical_code": (("finite_trees", "canonical_code"),),
    "ranks.rank_summary": (("ranks", "rank_summary"),),
    "ends.shift_report": (("ends", "shift_report"),),
    "stability.classify": (("stability", "classify"),),
    "stability.twin_cardinality": (("stability", "twin_cardinality"),),
    "twins.generate": (("twins", "twin_n"), ("twins", "twin_from_subset")),
    "twins.verify": (("twins", "verify_twins"),),
    "twins.lpath": (
        ("twins", "parse_lpath"),
        ("twins", "lpath_twin_count"),
        ("twins", "enumerate_lpath_twins"),
    ),
}
# span kinds: one root span per benchmark operation, then the layers
KINDS = ("op",) + tuple(LAYERS)


def peak_rss_kb(pid="self"):
    """Resident high-water mark of a process since its exec, from /proc.
    getrusage would also count the parent's pages from before the exec."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """Wraps the LAYERS functions and records their spans and counts."""

    def __init__(self):
        self.kind = array("B")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.calls = [0] * len(KINDS)
        self.depth = [0] * len(KINDS)
        self.embeds_unknown = 0
        self.max_vertices = {"terms.expand_finite": 0, "terms.truncate": 0}

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("scattree")]
        for layer, targets in LAYERS.items():
            for module_name, fn_name in targets:
                original = getattr(sys.modules[f"scattree.{module_name}"], fn_name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def open(self, kind):
        """Open a span of KINDS[kind]; returns its index for close()."""
        index = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index):
        self.end[index] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, layer, fn):
        kind = KINDS.index(layer)
        calls, depth = self.calls, self.depth

        def traced(*args, **kwargs):
            calls[kind] += 1
            if depth[kind]:
                depth[kind] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[kind] -= 1
            depth[kind] = 1
            index = self.open(kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
                depth[kind] = 0
            if layer == "terms.embeds":
                self.embeds_unknown += out == "unknown"
            elif layer in self.max_vertices:
                self.max_vertices[layer] = max(self.max_vertices[layer], out.tree.n)
            return out

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per-layer totals: inclusive time, self time (duration minus the
        time its child spans cover) and entry counts."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        inclusive = [0.0] * len(KINDS)
        own = [0.0] * len(KINDS)
        for i in range(n):
            duration = self.end[i] - self.start[i]
            inclusive[self.kind[i]] += duration
            own[self.kind[i]] += duration - child[i]
        out = {}
        for kind, layer in enumerate(KINDS[1:], start=1):
            out[f"{layer}_s"] = inclusive[kind]
            out[f"{layer}_self_s"] = own[kind]
            out[f"{layer}_calls"] = self.calls[kind]
        out["terms.embeds_unknown"] = self.embeds_unknown
        for layer, vertices in self.max_vertices.items():
            out[f"{layer}_max_vertices"] = vertices
        out["trace.spans"] = n
        return out

    def write(self, path):
        """One JSON header line naming the span kinds and the arrays, then
        the arrays' native bytes in that order."""
        header = {
            "kinds": KINDS,
            "spans": len(self.kind),
            "arrays": [["kind", "B"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for values in (self.kind, self.parent, self.start, self.end):
                values.tofile(fh)
