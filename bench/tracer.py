"""Span recorder that times calls into calr's layers from outside the package.

Each traced function is replaced, at every module attribute the package
resolves it through (``calr.cac``, ``calr.fitting.cac`` and
``calr.geometry.cac`` are one function), by a wrapper that records a span:
its name, start, end, parent span, a summary of the result and the type of
an escaped exception.  Methods are wrapped on their class.  Spans stay in
memory; ``write`` stores them when the run ends.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

# (span name, module, attribute); "Class.method" wraps a method on its class.
TARGETS = (
    ("geometry.gslp", "calr.geometry", "gslp"),
    ("geometry.cac", "calr.geometry", "cac"),
    ("geometry.cacs", "calr.geometry", "cacs"),
    ("geometry.point_in_hull", "calr.geometry", "point_in_hull"),
    ("geometry.svm_soft", "calr.geometry", "svm_soft"),
    ("geometry.contains_batch", "calr.geometry", "ConvexArea.contains_batch"),
    ("fitting.cas_calr", "calr.fitting", "cas_calr"),
    ("fitting.cas2", "calr.fitting", "cas2"),
    ("fitting.naive_calr", "calr.fitting", "naive_calr"),
    ("fitting.post", "calr.fitting", "post"),
    ("linreg.lr", "calr.linreg", "lr"),
    # The samplers call the private least-squares routine directly, so it
    # is the only place where their OLS time can be seen from outside.
    ("linreg.ols", "calr.linreg", "_ols"),
    ("linreg.incomplete_beta", "calr.linreg", "regularized_incomplete_beta"),
    ("linreg.predict_batch", "calr.linreg", "LinearModel.predict_batch"),
    ("calf.predict_batch", "calr.calf", "CalfModel.predict_batch"),
    ("calf.assign_batch", "calr.calf", "CalfModel.assign_batch"),
    ("dataset.load_csv", "calr.dataset", "load_csv"),
    ("dataset.load_matrix", "calr.dataset", "load_matrix"),
    ("dataset.write_csv", "calr.dataset", "write_csv"),
    ("dataset.generate_separable", "calr.dataset", "generate_separable"),
    ("model_io.save_model", "calr.model_io", "save_model"),
    ("model_io.load_model", "calr.model_io", "load_model"),
    ("mip.build_mip", "calr.mip", "build_mip"),
    ("mip.export_mip", "calr.mip", "export_mip"),
    ("cli.gen", "calr.cli", "cmd_gen"),
    ("cli.fit", "calr.cli", "cmd_fit"),
    ("cli.predict", "calr.cli", "cmd_predict"),
    ("cli.eval", "calr.cli", "cmd_eval"),
    ("cli.export_mip", "calr.cli", "cmd_export_mip"),
)

FIT_SPANS = ("fitting.cas_calr", "fitting.cas2", "fitting.naive_calr")

# Span fields, kept as plain lists so recording stays cheap.
NAME, START, END, PARENT, VALUE, ERROR = range(6)


def _summary(result):
    """What a span keeps of a result: None, a bool, a length, or True."""
    if result is None or isinstance(result, bool):
        return result
    if hasattr(result, "__len__"):
        return len(result)
    return True


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.active = False
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[VALUE] = _summary(result)
            return result

        return traced

    def install(self):
        """Wrap every target at each module attribute and class it lives on."""
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for key, m in sys.modules.items() if key == "calr" or key.startswith("calr.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def stats(self):
        """Per span name: calls, total and self seconds, outcomes."""
        durations = [s[END] - s[START] for s in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += durations[i]
        out = {}
        for i, s in enumerate(self.spans):
            st = out.setdefault(
                s[NAME],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "none": 0, "true": 0,
                 "errors": 0, "sizes": []},
            )
            st["calls"] += 1
            st["total_s"] += durations[i]
            st["self_s"] += durations[i] - child_time[i]
            if s[ERROR] is not None:
                st["errors"] += 1
            elif s[VALUE] is None:
                st["none"] += 1
            elif s[VALUE] is True:
                st["true"] += 1
            elif not isinstance(s[VALUE], bool):
                st["sizes"].append(s[VALUE])
        return out

    def write(self, path):
        """Store every span as one JSON line: name, start, end, parent, value, error."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
