"""Span tracer for the traced benchmark run.

Tracing is installed from outside the package: the public functions of
`hallmhd` (and `numpy.fft.fftn`/`ifftn`) are wrapped and rebound on the module
objects that call them, so nothing inside `src/hallmhd` is edited.  Each call
becomes one span (name, start, end, parent) kept in memory; FFT spans also
carry the number of one-component cube transforms and the bytes computed from
the input and output array sizes.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

import hallmhd.checkpoint as checkpoint
import hallmhd.fields as fields
import hallmhd.littlewood_paley as littlewood_paley
import hallmhd.solver as solver

STEP = "solver.Stepper.step"

# fields functions reached from solver and littlewood_paley; they are rebound in
# every module that holds them, so calls made inside fields are traced too
FIELDS_NAMES = (
    "curl",
    "divergence_error",
    "from_physical",
    "grad_norm_sq",
    "inner_product",
    "leray_project",
    "lp_norm",
    "random_field",
    "to_physical",
    "vector_potential",
    "zero_field",
)
SOLVER_NAMES = ("rhs", "dt_gate", "energy", "magnetic_helicity", "make_initial")
LP_METHODS = ("project", "shell_l2_sq", "shell_linf")
CHECKPOINT_NAMES = ("write_checkpoint", "read_checkpoint")


def _fft_work(a, axes) -> tuple[int, int]:
    """(one-component cube transforms, input bytes) of an fftn/ifftn call."""
    a = np.asarray(a)
    axes = range(a.ndim) if axes is None else axes
    cube = int(np.prod([a.shape[ax] for ax in axes]))
    return a.size // cube, a.nbytes


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, transforms, bytes]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, fft: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if fft:
                transforms, nbytes = _fft_work(args[0], kwargs.get("axes"))
                spans[idx][4] = transforms
                spans[idx][5] = nbytes + out.nbytes
            return out

        return traced

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        self._rebind(np.fft, "fftn", self._wrap("fft.forward", np.fft.fftn, fft=True))
        self._rebind(np.fft, "ifftn", self._wrap("fft.inverse", np.fft.ifftn, fft=True))
        for name in FIELDS_NAMES:
            original = getattr(fields, name)
            wrapper = self._wrap(f"fields.{name}", original)
            for module in (fields, solver, littlewood_paley):
                if getattr(module, name, None) is original:
                    self._rebind(module, name, wrapper)
        for name in SOLVER_NAMES:
            self._rebind(solver, name, self._wrap(f"solver.{name}", getattr(solver, name)))
        self._rebind(solver.Stepper, "step", self._wrap(STEP, solver.Stepper.step))
        self._rebind(
            littlewood_paley,
            "build_partition",
            self._wrap("littlewood_paley.build_partition", littlewood_paley.build_partition),
        )
        for name in LP_METHODS:
            cls = littlewood_paley.LPPartition
            self._rebind(cls, name, self._wrap(f"littlewood_paley.{name}", getattr(cls, name)))
        for name in CHECKPOINT_NAMES:
            self._rebind(
                checkpoint, name, self._wrap(f"checkpoint.{name}", getattr(checkpoint, name))
            )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, transforms,
        bytes] list per span, parent being an index into the list or -1."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "transforms", "bytes"],
                       "spans": self.spans}, fh)


class SpanStats:
    """Per-name aggregates over the recorded spans, split by whether the span
    ran inside a `Stepper.step` span."""

    def __init__(self, spans: list[list]):
        n = len(spans)
        child = [0.0] * n
        in_step = [False] * n
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_step[i] = in_step[parent] or spans[parent][0] == STEP
        self.step_durations = [s[2] - s[1] for s in spans if s[0] == STEP]
        self.steps = len(self.step_durations)
        self.total: dict[tuple[str, bool], list[float]] = {}
        for i, (name, start, end, _, transforms, nbytes) in enumerate(spans):
            inside = in_step[i] or name == STEP
            agg = self.total.setdefault((name, inside), [0, 0.0, 0.0, 0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
            agg[3] += transforms
            agg[4] += nbytes
        self._spans = spans

    def _agg(self, name: str, inside: bool | None) -> list:
        """[calls, inclusive s, self s, transforms, bytes] for a span name;
        inside=None sums over spans in and out of steps."""
        keys = [(name, True), (name, False)] if inside is None else [(name, inside)]
        out = [0, 0.0, 0.0, 0, 0]
        for key in keys:
            for j, v in enumerate(self.total.get(key, ())):
                out[j] += v
        return out

    def per_step(self, name: str, field: int) -> float:
        return self._agg(name, True)[field] / self.steps if self.steps else 0.0

    def per_call(self, name: str, field: int = 1) -> float:
        agg = self._agg(name, None)
        return agg[field] / agg[0] if agg[0] else 0.0

    def child_count_per_call(self, parent_name: str, child_name: str) -> float:
        """Mean number of descendant spans named child_name per parent span."""
        spans = self._spans
        owners = [0] * len(spans)
        parents = 0
        count = 0
        for i, s in enumerate(spans):
            owners[i] = i if s[0] == parent_name else (owners[s[3]] if s[3] >= 0 else -1)
            if s[0] == parent_name:
                parents += 1
            elif s[0] == child_name and owners[i] >= 0:
                count += 1
        return count / parents if parents else 0.0
