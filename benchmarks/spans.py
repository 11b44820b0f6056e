"""In-memory span recorder for the traced benchmark run.

The recorder replaces module attributes with timing wrappers: the public
functions that lyacert.certify and lyacert.detect call, plus numpy.linalg and
scipy.linalg kernel entry points, which are only counted.  Spans are kept in
a list and written out once, after the run.  Nothing here changes what the
wrapped functions compute.
"""

import functools
import json
import time

#: (module, attribute, span name); one span name may cover several modules
#: that import the same function
SPANS = (
    ("lyacert.certify", "input_digest", "certify.digest"),
    ("lyacert.certify", "detectability_report", "detect.report"),
    ("lyacert.detect", "stabilizing_output_injection", "detect.injection"),
    ("lyacert.detect", "final_observability_constant", "detect.eps_star"),
    ("lyacert.detect", "hautus_detectable", "detect.hautus"),
    ("lyacert.detect", "l2_detectable", "detect.l2"),
    ("lyacert.detect", "unobservable_subspace", "detect.unobservable"),
    ("lyacert.certify", "lyap_solve_direct", "lyapunov.solve_direct"),
    ("lyacert.certify", "lyap_solve_integral", "lyapunov.solve_integral"),
    ("lyacert.certify", "rkhs_factor", "lyapunov.rkhs_factor"),
    ("lyacert.certify", "growth_fit", "linalg.growth_fit"),
    ("lyacert.certify", "spectral_abscissa", "linalg.abscissa"),
    ("lyacert.detect", "spectral_abscissa", "linalg.abscissa"),
    ("lyacert.lyapunov", "spectral_abscissa", "linalg.abscissa"),
    ("lyacert.linalg", "spectral_abscissa", "linalg.abscissa"),
)

#: (module, attribute, counter name): kernel entry points, counted only
KERNELS = (
    ("numpy.linalg", "eig", "eig"),
    ("numpy.linalg", "eigvals", "eig"),
    ("numpy.linalg", "eigvalsh", "eigh"),
    ("numpy.linalg", "eigh", "eigh"),
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "solve", "solve"),
    ("numpy.linalg", "norm", "norm"),
    ("scipy.linalg", "expm", "expm"),
    ("scipy.linalg", "eigh", "eigh"),
    ("scipy.linalg", "solve_continuous_are", "care"),
)


class Recorder:
    """Spans of one traced pass.  Each span is a dict with name, start, end,
    parent (index into ``spans`` or None), request (operation index) and
    the kernel-call count at its start and end."""

    def __init__(self):
        self.spans = []
        self.kernel_calls = {}
        self._kernels = 0
        self._stack = []
        self._saved = []
        self.request = None

    def span(self, name, fn, *args, **kwargs):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "request": self.request, "kernels0": self._kernels}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            rec["kernels1"] = self._kernels
            self._stack.pop()

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        self.kernel_calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._kernels += 1
            self.kernel_calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules):
        """Wrap every entry of SPANS and KERNELS; ``modules`` maps module
        names to imported modules."""
        for table, make in ((SPANS, self._timed), (KERNELS, self._counted)):
            for mod, attr, name in table:
                module = modules[mod]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def totals(self):
        """Per span name: inclusive seconds, self seconds, calls and kernel
        calls made inside the span."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = {}
        for i, rec in enumerate(self.spans):
            t = out.setdefault(rec["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                              "kernels": 0})
            dur = rec["end"] - rec["start"]
            t["s"] += dur
            t["self_s"] += dur - child[i]
            t["calls"] += 1
            t["kernels"] += rec["kernels1"] - rec["kernels0"]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
