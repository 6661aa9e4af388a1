"""In-memory span tracer for the marginalrg benchmark.

The tracer wraps the public functions of each marginalrg module, and the
FFT entry points of numpy.fft and scipy.fft, at every name they are bound
under: ``weighted_norm`` is imported by name into ``blocksolver`` and the
package root, so patching ``funcspace`` alone would miss every solver call.
Each wrapped call records a span (name, parent, start, end); spans stay in
memory and the benchmark writes them out when it ends. A layer's self time
is its span's duration minus the durations of its child spans.
"""

import collections
import contextlib
import functools
import importlib
import math
import sys
import time

import numpy as np

# (layer name, module, attribute); an attribute with a dot is a method.
LAYERS = (
    ("config.load_config", "marginalrg.config", "load_config"),
    ("funcspace.weighted_norm", "marginalrg.funcspace", "weighted_norm"),
    ("funcspace.pointwise_power", "marginalrg.funcspace", "pointwise_power"),
    ("funcspace.apply_multiplier", "marginalrg.funcspace", "apply_multiplier"),
    ("funcspace.dilate", "marginalrg.funcspace", "dilate"),
    ("kernel.multiplier", "marginalrg.kernel", "ScalingKernel.multiplier"),
    ("blocksolver.solve_block", "marginalrg.blocksolver", "solve_block"),
    ("rgflow.run_flow", "marginalrg.rgflow", "run_flow"),
    ("rgflow.rg_step", "marginalrg.rgflow", "rg_step"),
    ("marginal.marginal_constants", "marginalrg.marginal", "marginal_constants"),
    ("marginal.marginal_response", "marginalrg.marginal", "marginal_response"),
    ("marginal.decay_coefficient", "marginalrg.marginal", "decay_coefficient"),
    ("marginal.overlap_constant", "marginalrg.marginal", "overlap_constant"),
    ("verify.direct_integrate", "marginalrg.verify", "direct_integrate"),
)

# Both FFT libraries are counted, so a later switch of backend or to real
# transforms stays visible under the same metric.
FFT_ENTRIES = tuple(
    (module, name)
    for module in ("numpy.fft", "scipy.fft")
    for name in ("fft", "ifft", "rfft", "irfft")
)
FFT_LAYER = "funcspace.fft"
OP_SPAN = "op"


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _fft_size(name, args, kwargs, out):
    """(transform length, number of transforms) of one FFT call."""
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    if name == "rfft":
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        length = n if n is not None else np.shape(args[0])[axis]
    else:
        length = out.shape[axis]
    return int(length), int(out.size // out.shape[axis])


class Tracer:
    """Records spans and solver/FFT counts while installed."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.solves = []  # (picard iterations, time rows, grid points)
        self.ffts = []  # (transform length, transforms, bytes in + out)
        self._stack = [-1]
        self._patches = []

    def reset(self):
        self.spans, self.solves, self.ffts = [], [], []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        self.spans.append([name, self._stack[-1], 0.0, 0.0])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][2:] = start, end

    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return traced

    def _record_solve(self, args, kwargs, sol):
        self.solves.append((sol.iterations, len(sol.times), sol.grid.n_points))

    def _fft_hook(self, name):
        def hook(args, kwargs, out):
            length, count = _fft_size(name, args, kwargs, out)
            self.ffts.append((length, count, np.asarray(args[0]).nbytes + out.nbytes))

        return hook

    def _targets(self):
        for layer, module, attr in LAYERS:
            solver = layer in ("blocksolver.solve_block", "verify.direct_integrate")
            yield layer, module, attr, self._record_solve if solver else None
        for module, name in FFT_ENTRIES:
            yield FFT_LAYER, module, name, self._fft_hook(name)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "marginalrg" or key.startswith("marginalrg.")
        ]
        for layer, module, attr, hook in self._targets():
            home, last = _resolve(module, attr)
            original = vars(home)[last]
            wrapper = self._wrap(layer, original, hook)
            owners = [home] + [
                mod
                for mod in package
                if mod is not home and any(v is original for v in vars(mod).values())
            ]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        durations = [end - start for _, _, start, end in self.spans]
        own = list(durations)
        for (_, parent, _, _), duration in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= duration
        return durations, own

    def summary(self):
        """Per-op layer figures from the spans and counts recorded since reset."""
        durations, own = self.self_times()
        calls = collections.Counter()
        total = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        for (name, _, _, _), duration, mine in zip(self.spans, durations, own):
            calls[name] += 1
            total[name] += duration
            self_s[name] += mine
        out = {}
        for layer, _, _ in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.total_s"] = total[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        points = sum(length * count for length, count, _ in self.ffts)
        out[f"{FFT_LAYER}.calls"] = calls[FFT_LAYER]
        out[f"{FFT_LAYER}.points"] = points
        out[f"{FFT_LAYER}.busy_s"] = total[FFT_LAYER]
        # computed, not measured: 5 N log2 N per length-N transform, and
        # input plus output array bytes (cache traffic is not counted)
        out[f"{FFT_LAYER}.flops_computed"] = sum(
            5.0 * length * math.log2(length) * count for length, count, _ in self.ffts
        )
        out[f"{FFT_LAYER}.bytes_computed"] = sum(b for _, _, b in self.ffts)
        stack_points = sum(rows * n for _, rows, n in self.solves)
        out["blocksolver.picard_iters"] = sum(it for it, _, _ in self.solves)
        out["blocksolver.stack_points"] = stack_points
        out["blocksolver.stack_bytes_per_block_computed"] = (
            16.0 * stack_points / len(self.solves) if self.solves else 0.0
        )
        out["trace.op_wall_s"] = total[OP_SPAN]
        out["trace.unattributed_s"] = self_s[OP_SPAN]
        out["trace.accounted_s"] = sum(own)
        return out

    def block_times(self):
        """Durations of every rg_step span recorded since reset."""
        return [end - start for name, _, start, end in self.spans if name == "rgflow.rg_step"]


def tail(samples):
    """(value, percentile) with exactly ten samples beyond it, or None."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)

