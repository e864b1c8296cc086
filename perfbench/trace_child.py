"""Traced ``lamlab`` CLI run: wraps the package from outside, no source edit.

Usage: python3 trace_child.py SPANS_JSON -- <lamlab CLI arguments>

Every public function defined in a layer module is wrapped, at every
module attribute that binds it (``cli``, ``continuation``, ``twistmap``,
``measure`` and ``verification`` import the same function objects), so
a call records a span wherever it comes from. ``InteractionStencil.force``
gets a span too; ``Box.__init__`` only a count, since it runs tens of
thousands of times per command. Spans (name, start, end, parent) stay in
memory and are written to SPANS_JSON when the command returns, with the
counters, and the process exits with the command's exit code.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "model", "lattice", "hull", "continuation", "birkhoff",
          "measure", "twistmap", "verification")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"lattice.boxes_built": 0, "continuation.sweeps": 0,
                       "continuation.site_sweeps": 0}
        self.errors = {layer: 0 for layer in LAYERS}

    def wrap(self, fn, name, layer, after=None):
        spans, stack, errors = self.spans, self.stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count_boxes(self, init):
        counts, errors = self.counts, self.errors

        @functools.wraps(init)
        def counted(*args, **kwargs):
            counts["lattice.boxes_built"] += 1
            try:
                return init(*args, **kwargs)
            except BaseException:
                errors["lattice"] += 1
                raise

        return counted

    def record_sweeps(self, args, kwargs, result):
        """After quasi_newton_continue: add its sweeps and site sweeps."""
        model = args[0] if args else kwargs["model"]
        box = args[3] if len(args) > 3 else kwargs["B"]
        r = model.stencil.range
        sites = 1
        for lo, hi in zip(box.lo, box.hi):
            sites *= max(hi - lo + 1 - 2 * r, 0)
        self.counts["continuation.sweeps"] += result.iterations
        self.counts["continuation.site_sweeps"] += result.iterations * sites

    def install(self):
        """Wrap every public layer function at every binding, plus methods."""
        modules = {layer: importlib.import_module(f"lamlab.{layer}")
                   for layer in LAYERS}
        package = importlib.import_module("lamlab")
        targets = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    after = (self.record_sweeps
                             if attr == "quasi_newton_continue" else None)
                    targets[id(fn)] = (fn, self.wrap(fn, f"{layer}.{attr}",
                                                     layer, after))
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        stencil = modules["model"].InteractionStencil
        stencil.force = self.wrap(stencil.force, "model.InteractionStencil.force",
                                  "model")
        box = modules["lattice"].Box
        box.__init__ = self.count_boxes(box.__init__)
        return modules["cli"]

    def dump(self, path, exit_code):
        body = {
            "exit_code": exit_code,
            "spans": self.spans,
            "counts": self.counts,
            "errors": self.errors,
        }
        with open(path, "w") as fh:
            json.dump(body, fh)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_child.py SPANS_JSON -- <lamlab arguments>",
              file=sys.stderr)
        return 1
    tracer = Tracer()
    cli = tracer.install()
    code = cli.main(argv[2:])
    tracer.dump(argv[0], code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
