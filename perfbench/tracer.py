"""In-memory spans around the public functions of each noisyfed module.

``Tracer.install`` replaces each target function by a wrapper at every name in
the loaded ``noisyfed`` modules that refers to it, so the wrapper sits where
callers look the function up (``noisyfed.engine.stream`` as well as
``noisyfed.seeding.stream``).  Methods are wrapped on their class.  A wrapper
records one span per call, ``(target, start_ns, end_ns, parent span)``, plus
the counts some targets return.  ``summary`` turns the spans into per-target
``calls``, ``busy_s`` (outermost calls only) and ``self_s`` (minus the time of
child spans), and per-module ``self_s``.  A target missing at the traced
revision is reported absent, never as zero.
"""

import functools
import math
from array import array
import os
import sys
import time

# metric prefix -> (module, attribute path); "*.name" means the method of
# every class in the module that defines it.
TARGETS = {
    "cli.main": ("noisyfed.cli", "main"),
    "config.parse_experiment": ("noisyfed.config", "parse_experiment"),
    "engine.run": ("noisyfed.engine", "run"),
    "engine.sample_clients": ("noisyfed.engine", "sample_clients"),
    "engine.downlink_broadcast": ("noisyfed.engine", "downlink_broadcast"),
    "engine.local_train": ("noisyfed.engine", "local_train"),
    "engine.uplink_transmit": ("noisyfed.engine", "uplink_transmit"),
    "engine.aggregate": ("noisyfed.engine", "aggregate"),
    "seeding.stream": ("noisyfed.seeding", "stream"),
    "tasks.make_task": ("noisyfed.tasks", "make_task"),
    "tasks.derive_constants": ("noisyfed.tasks", "derive_constants"),
    "tasks.stochastic_gradient": ("noisyfed.tasks", "stochastic_gradient"),
    "tasks.global_loss": ("noisyfed.tasks", "QuadraticTask.global_loss"),
    "policies.round_params": ("noisyfed.policies", "*.round_params"),
    "policies.schedule_excess": ("noisyfed.policies", "*.schedule_excess"),
    "policies.mdt_uplink_variance": ("noisyfed.policies",
                                     "mdt_uplink_variance"),
    "channel.add_effective_noise": ("noisyfed.channel", "add_effective_noise"),
    "channel.analog_downlink_receive": ("noisyfed.channel",
                                        "analog_downlink_receive"),
    "channel.analog_uplink_aggregate": ("noisyfed.channel",
                                        "analog_uplink_aggregate"),
    "channel.draw_fades": ("noisyfed.channel", "draw_fades"),
    "channel.measure_global_snr": ("noisyfed.channel", "measure_global_snr"),
    "vectors.squared_distance": ("noisyfed.vectors", "squared_distance"),
    "vectors.mean_of": ("noisyfed.vectors", "mean_of"),
    "analysis.aggregation_noise_oracle": ("noisyfed.analysis",
                                          "aggregation_noise_oracle"),
    "analysis.client_sampling_oracle": ("noisyfed.analysis",
                                        "client_sampling_oracle"),
    "analysis.differential_upload_oracle": ("noisyfed.analysis",
                                            "differential_upload_oracle"),
    "analysis.sgd_one_step_oracle": ("noisyfed.analysis",
                                     "sgd_one_step_oracle"),
    "analysis.convergence_bound": ("noisyfed.analysis", "convergence_bound"),
    "analysis.fit_rate": ("noisyfed.analysis", "fit_rate"),
    "traceio.write_trace": ("noisyfed.traceio", "write_trace"),
    "traceio.write_json": ("noisyfed.traceio", "write_json"),
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_analog(counts, args, kwargs, result):
    counts["channel.fade_retries"] += result[1]["retries"]
    counts["channel.diversity_copies"] += _arg(args, kwargs, 3, "copies", 1)


def _count_fades(counts, args, kwargs, result):
    shape = _arg(args, kwargs, 0, "shape")
    kept = math.prod(shape) if isinstance(shape, tuple) else int(shape)
    counts["channel.fades_kept"] += kept
    counts["channel.fades_drawn"] += kept + result[1]


def _count_bytes(counts, args, kwargs, result):
    counts["traceio.write_trace.bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


# Counts read at a boundary: target -> (counter names, hook).
COUNTERS = {
    "channel.analog_downlink_receive": (
        ("channel.fade_retries", "channel.diversity_copies"), _count_analog),
    "channel.analog_uplink_aggregate": (
        ("channel.fade_retries", "channel.diversity_copies"), _count_analog),
    "channel.draw_fades": (
        ("channel.fades_kept", "channel.fades_drawn"), _count_fades),
    "traceio.write_trace": (("traceio.write_trace.bytes",), _count_bytes),
}


def _resolve(module_name, path):
    """The (owner, attribute, function) triples a target names."""
    module = sys.modules.get(module_name)
    if module is None:
        return []
    if path.startswith("*."):
        attr = path[2:]
        return [(cls, attr, cls.__dict__[attr])
                for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module_name
                and callable(cls.__dict__.get(attr))]
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return [(owner, attr, fn)] if callable(fn) else []


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, summary."""

    def __init__(self):
        self.names = list(TARGETS)
        # Spans as columns: target, parent span, start ns, end ns.
        self.spans = tuple(array("q") for _ in range(4))
        self.stack = []
        self.counts = {c: 0 for names, _ in COUNTERS.values() for c in names}
        self.broken = set()
        self.absent = set()
        self._patched = []

    def install(self):
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "noisyfed"
                                         or name.startswith("noisyfed."))]
        for tid, name in enumerate(self.names):
            found = _resolve(*TARGETS[name])
            if not found:
                self.absent.add(name)
                continue
            for owner, attr, fn in found:
                wrapped = self._wrap(tid, name, fn)
                if isinstance(owner, type):
                    self._patch(owner, attr, fn, wrapped)
                    continue
                # Every module-level name bound to the same function object.
                for module in package:
                    for alias, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, alias, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, tid, name, fn):
        tids, parents, starts, ends = self.spans
        stack, clock = self.stack, time.perf_counter_ns
        counter = COUNTERS.get(name, (None, None))[1]
        counts, broken = self.counts, self.broken

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tids)
            tids.append(tid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None and name not in broken:
                try:
                    counter(counts, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    broken.add(name)
            return result

        return traced

    def summary(self):
        """Flat ``{metric: value}``; absent metrics are left out."""
        tids, parents, starts, ends = self.spans
        n_targets = len(self.names)
        calls = [0] * n_targets
        busy = [0] * n_targets
        own = [0] * n_targets
        child = [0] * len(tids)
        for parent, start, end in zip(parents, starts, ends):
            if parent >= 0:
                child[parent] += end - start
        for index, (tid, parent, start, end) in enumerate(
                zip(tids, parents, starts, ends)):
            calls[tid] += 1
            own[tid] += end - start - child[index]
            up = parent
            while up >= 0 and tids[up] != tid:
                up = parents[up]
            if up < 0:
                busy[tid] += end - start
        out = {}
        module_self = {}
        for tid, name in enumerate(self.names):
            if name in self.absent:
                continue
            out[f"{name}.calls"] = calls[tid]
            out[f"{name}.busy_s"] = busy[tid] / 1e9
            out[f"{name}.self_s"] = own[tid] / 1e9
            module = name.split(".")[0]
            module_self[module] = module_self.get(module, 0) + own[tid]
        for module, ns in module_self.items():
            out[f"{module}.self_s"] = ns / 1e9
        for name, (counters, _) in COUNTERS.items():
            if name in self.absent or name in self.broken:
                continue
            for counter in counters:
                out[counter] = self.counts[counter]
        if "channel.fades_drawn" in out:
            drawn = out["channel.fades_drawn"]
            # Nothing drawn wastes nothing: the ratio is 1 with a base of 0.
            out["channel.fade_accept_ratio"] = \
                out["channel.fades_kept"] / drawn if drawn else 1.0
        out["tracing.spans"] = len(tids)
        return out
