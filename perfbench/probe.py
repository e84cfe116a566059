"""Outside-in instrumentation of the product's layers.

Every hook here wraps a public function or method of ``repro`` from the
benchmark's side; no product file is edited.  A wrapped module-level
function is rebound in every loaded ``repro`` module that imported it by
name, so callers that did ``from .worker import run_trial`` see the
wrapper too.  Everything is undone by :meth:`Hooks.uninstall`.

Two instruments:

* :class:`KernelMeter` wraps only the kernel's stepping entry points
  (``Kernel.run``, once per run, and ``Kernel.step``, the single-step
  hook the model checker drives).  It records host time inside them and
  the simulated totals they advanced: steps, cycles, domain switches and
  delivered interrupts.  It is on in every run, traced or not.
* :class:`Tracer` is the second, costly tier, used only by the traced
  run.  It times *spans* at boundaries crossed at most about once per
  simulated step (name, parent, calls, inclusive and self time) and only
  *counts* the per-access functions, whose cost a timer would swamp.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path).  A span's self time is its
# duration minus the durations of the spans nested directly inside it.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "repro.cli", "main"),
    ("hardware.machine.build", "repro.hardware.machine", "Machine.__init__"),
    ("kernel.kernel.build", "repro.kernel.kernel", "Kernel.__init__"),
    ("kernel.kernel.run", "repro.kernel.kernel", "Kernel.run"),
    ("kernel.kernel.step", "repro.kernel.kernel", "Kernel.step"),
    ("hardware.cpu.execute_user", "repro.hardware.cpu", "Core.execute_user"),
    ("kernel.switch.execute", "repro.kernel.switch", "SwitchPath.execute"),
    ("hardware.cache.flush", "repro.hardware.cache", "Cache.flush"),
    ("core.proof.prove", "repro.core.proof", "TimeProtectionProof.prove"),
    ("core.obligations.check_all", "repro.core.obligations", "check_all"),
    ("core.casesplit.audit", "repro.core.casesplit", "audit"),
    ("core.unwinding.check_unwinding", "repro.core.unwinding",
     "check_unwinding"),
    ("core.noninterference.compare_finished_runs",
     "repro.core.noninterference", "compare_finished_runs"),
    ("mc.explorer.run", "repro.mc.explorer", "ModelChecker.run"),
    ("mc.product.clone", "repro.mc.product", "ProductState.clone"),
    ("mc.spec.apply_choice", "repro.mc.spec", "apply_choice"),
    ("mc.product.finish_apply", "repro.mc.product", "ProductState.finish_apply"),
    ("mc.product.fingerprint", "repro.mc.product", "ProductState.fingerprint"),
    ("mc.por.reduce_choices", "repro.mc.por", "reduce_choices"),
    ("kernel.kernel.clone_for_mc", "repro.kernel.kernel", "Kernel.clone_for_mc"),
    ("hardware.machine.digest_all", "repro.hardware.machine",
     "Machine.digest_all"),
    ("campaign.worker.run_trial", "repro.campaign.worker", "run_trial"),
    ("campaign.store.append", "repro.campaign.store", "ResultStore.append"),
    ("campaign.store.completed_keys", "repro.campaign.store",
     "ResultStore.completed_keys"),
    ("analysis.capacity.mutual_information_from_samples",
     "repro.analysis.capacity", "mutual_information_from_samples"),
)

# (counter name, module, attribute path, count hits).  Called several
# times per simulated step: counted, never timed.
COUNTERS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("hardware.cache.access", "repro.hardware.cache", "Cache.access", True),
    ("hardware.tlb.lookup", "repro.hardware.tlb", "Tlb.lookup", True),
    ("hardware.state.touch", "repro.hardware.state",
     "Instrumentation.touch", False),
    ("hardware.cpu.cached_access", "repro.hardware.cpu", "Core.cached_access",
     False),
    ("hardware.cpu.translate", "repro.hardware.cpu", "Core.translate", False),
)

SIM_TOTALS = ("steps", "cycles", "switches", "irq_delivered")

# A shared host's vCPU changes speed from second to second, and a busy
# neighbour slows code with a large working set more than a tight loop.
# So timings are scaled by a fixed pure-Python calibration workload
# shaped like the simulator's hot loop (slotted objects, method calls,
# a ~1 MB set-associative table), re-timed about every 0.1 s of
# measuring (see ScaledClock).  Scaled seconds are host seconds on a
# host where one pass of the calibration workload takes this long:
CALIBRATION_REF_S = 0.003
# The product slows by less than the calibration loop does: when the
# loop took 1.8x longer, a proof took about 1.6x longer.  So host time
# is scaled by (reference / calibration) to this power.  On a 2-vCPU
# shared VM, powers 0.6 to 0.8 gave the least spread across runs on all
# three workloads; 1.0 over-corrected and doubled the model-check spread.
CALIBRATION_POWER = 0.7


class _Line:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.stamp = 0


class _CalibrationCache:
    """An LRU set-associative table: the calibration workload's state."""

    def __init__(self, sets: int = 2048, ways: int = 8) -> None:
        self.sets = [[_Line(-1 - way) for way in range(ways)]
                     for _ in range(sets)]
        self.tick = 0

    def access(self, addr: int) -> bool:
        lines = self.sets[(addr >> 6) % len(self.sets)]
        tag = addr >> 12
        self.tick += 1
        for line in lines:
            if line.tag == tag:
                line.stamp = self.tick
                return True
        victim = min(lines, key=lambda line: line.stamp)
        victim.tag = tag
        victim.stamp = self.tick
        return False


_CALIBRATION_CACHE: Optional[_CalibrationCache] = None


def _calibration_pass() -> None:
    global _CALIBRATION_CACHE
    if _CALIBRATION_CACHE is None:
        _CALIBRATION_CACHE = _CalibrationCache()
    cache = _CALIBRATION_CACHE
    x = 12345
    for _ in range(4000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        cache.access(x & 0xFFFFFF)


def calibration_seconds(repeats: int = 2) -> float:
    """Fastest of ``repeats`` timed passes of the calibration workload."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        _calibration_pass()
        best = min(best, time.perf_counter() - started)
    return best


def _scale(calibration: float) -> float:
    return (CALIBRATION_REF_S / calibration) ** CALIBRATION_POWER


class ScaledClock:
    """Host time in scaled seconds, recalibrated as it goes.

    ``mark()`` returns the scaled time now.  It recalibrates first when
    the last calibration is older than ``interval_s`` (or when forced),
    so each stretch between calibrations is scaled by the mean of the
    calibrations at its two ends (see ``CALIBRATION_POWER``).  Time
    spent calibrating is not counted.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self._calibration = calibration_seconds()
        self._since = time.perf_counter()
        self._scaled = 0.0

    def mark(self, force: bool = False) -> float:
        now = time.perf_counter()
        if not force and now - self._since < self.interval_s:
            return self._scaled + (
                (now - self._since) * _scale(self._calibration)
            )
        calibration = calibration_seconds()
        self._scaled += (now - self._since) * _scale(
            (self._calibration + calibration) / 2
        )
        self._calibration = calibration
        self._since = time.perf_counter()
        return self._scaled


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` or ``None`` if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if value is None:
        return None
    return owner, attr, value


class HostClock:
    """Unscaled host seconds; never calibrates.

    The traced run's clock: a calibration run inside a traced span would
    be counted as that span's self time.
    """

    def mark(self, force: bool = False) -> float:
        return time.perf_counter()


class Hooks:
    """Installed wrappers and what they replaced, restorable in reverse."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def wrap(self, module_name: str, path: str,
             make: Callable[[Callable], Callable]) -> bool:
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}:{path}")
            return False
        owner, attr, original = found
        wrapper = functools.wraps(original)(make(original))
        targets = [owner]
        if not isinstance(owner, type):
            # Rebind by-name imports of a module-level function too.
            targets += [
                module for name, module in list(sys.modules.items())
                if module is not None and module is not owner
                and (name == "repro" or name.startswith("repro."))
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)
        return True

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


def _kernel_clock(kernel) -> int:
    return max(core.clock.now for core in kernel.machine.cores)


class KernelMeter:
    """Host time and simulated totals of the kernel's stepping calls.

    ``Kernel.run`` is wrapped once per run and reads the kernel's own
    step counter; ``Kernel.step`` executes exactly one step per call.
    :meth:`piece` splits that accounting by op.
    Its times come from ``clock``, scaled by default (see
    :class:`ScaledClock`).
    """

    def __init__(self, clock=None) -> None:
        self.clock = clock if clock is not None else ScaledClock()
        self.ns = 0.0
        self.totals: Dict[str, int] = dict.fromkeys(SIM_TOTALS, 0)
        # (op key, scaled s, scaled kernel ns, kernel steps), one per op.
        self.pieces: List[Tuple[str, float, float, int]] = []
        self.hooks = Hooks()

    def reset(self) -> None:
        self.ns = 0.0
        self.totals = dict.fromkeys(SIM_TOTALS, 0)
        self.pieces = []

    @contextlib.contextmanager
    def piece(self, key: str):
        """Record the enclosed op's scaled time and kernel time as ``key``."""
        ns0, steps0 = self.ns, self.totals["steps"]
        started = self.clock.mark(force=True)
        try:
            yield
        finally:
            self.pieces.append((
                key, self.clock.mark(force=True) - started, self.ns - ns0,
                self.totals["steps"] - steps0,
            ))

    def _measure(self, kernel, call, counted_steps):
        steps0 = kernel.total_steps
        cycles0 = _kernel_clock(kernel)
        switches0 = len(kernel.switch_path.records)
        irqs0 = len(kernel.irq_deliveries)
        started = self.clock.mark()
        try:
            return call()
        finally:
            self.ns += (self.clock.mark() - started) * 1e9
            totals = self.totals
            totals["steps"] += (
                counted_steps if counted_steps else kernel.total_steps - steps0
            )
            totals["cycles"] += _kernel_clock(kernel) - cycles0
            totals["switches"] += len(kernel.switch_path.records) - switches0
            totals["irq_delivered"] += len(kernel.irq_deliveries) - irqs0

    def install(self) -> None:
        meter = self

        def make_run(original):
            def run(kernel, *args, **kwargs):
                return meter._measure(
                    kernel, lambda: original(kernel, *args, **kwargs), 0
                )
            return run

        def make_step(original):
            def step(kernel, *args, **kwargs):
                return meter._measure(
                    kernel, lambda: original(kernel, *args, **kwargs), 1
                )
            return step

        self.hooks.wrap("repro.kernel.kernel", "Kernel.run", make_run)
        self.hooks.wrap("repro.kernel.kernel", "Kernel.step", make_step)

    def uninstall(self) -> None:
        self.hooks.uninstall()


class Tracer:
    """Timed spans at coarse layer boundaries, counts at per-access ones."""

    def __init__(self) -> None:
        # name -> [calls, inclusive ns, self ns]
        self.spans: Dict[str, List[int]] = {name: [0, 0, 0] for name, *_ in SPANS}
        # name -> {parent name: calls}
        self.parents: Dict[str, Dict[Optional[str], int]] = {
            name: {} for name, *_ in SPANS
        }
        # name -> [calls, hits]
        self.counts: Dict[str, List[int]] = {
            name: [0, 0] for name, *_ in COUNTERS
        }
        self._stack: List[list] = []
        self.hooks = Hooks()

    def _make_span(self, name: str):
        stats = self.spans[name]
        parents = self.parents[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def make(original):
            def span(*args, **kwargs):
                parent = stack[-1][0] if stack else None
                frame = [name, 0]
                stack.append(frame)
                t0 = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    duration = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    stats[0] += 1
                    stats[1] += duration
                    stats[2] += duration - frame[1]
                    parents[parent] = parents.get(parent, 0) + 1
            return span
        return make

    def _make_counter(self, name: str, hits: bool):
        cell = self.counts[name]

        def make(original):
            if hits:
                def counted(*args, **kwargs):
                    result = original(*args, **kwargs)
                    cell[0] += 1
                    if result.hit:
                        cell[1] += 1
                    return result
            else:
                def counted(*args, **kwargs):
                    cell[0] += 1
                    return original(*args, **kwargs)
            return counted
        return make

    def install(self) -> None:
        for name, module, path in SPANS:
            self.hooks.wrap(module, path, self._make_span(name))
        for name, module, path, hits in COUNTERS:
            self.hooks.wrap(module, path, self._make_counter(name, hits))

    def uninstall(self) -> None:
        self.hooks.uninstall()

    def span_table(self) -> List[dict]:
        """Every span with its parents, for the trace file."""
        return [
            {
                "name": name,
                "parents": {str(p): n for p, n in self.parents[name].items()},
                "calls": calls,
                "ns": ns,
                "self_ns": self_ns,
            }
            for name, (calls, ns, self_ns) in self.spans.items()
        ]
