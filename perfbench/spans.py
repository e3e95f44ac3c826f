"""Outside-in spans over irfad's public functions.

A function imported with ``from .x import f`` is bound at import time in the
importing module, so a span must wrap the binding the caller looks up, not the
definition. ``BINDINGS`` lists, for each span, every such binding; class
attributes (``Tape.silu``) are wrapped on the class, which is where instance
lookup finds them. Nothing under ``src/`` changes: the tracer patches module and
class attributes after import and puts the originals back on ``uninstall``.

Every span is filed under the benchmark stage running when it fires (``gen``,
``train``, ``score``, ``eval``, ``load``, ``pass:<scorer>``, ``requests``). Its
self time is its duration minus the durations of the spans that ran inside it;
a stage's own self time is what the stage spent outside every wrapped call
(for a CLI stage: argument parsing, CSV formatting, atomic writes, manifest).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

BINDINGS: dict[str, tuple[tuple[str, str], ...]] = {
    "grad.leaf": (("irfad.grad", "Tape.leaf"),),
    "grad.affine": (("irfad.grad", "Tape.affine"),),
    "grad.silu": (("irfad.grad", "Tape.silu"),),
    "grad.mean_squared_error": (("irfad.grad", "Tape.mean_squared_error"),),
    "grad.backward": (("irfad.grad", "Tape.backward"),),
    "trainer.train": (("irfad.cli", "train"),),
    "trainer.optimizer_step": (("irfad.trainer", "optimizer_step"),),
    "net.time_embedding": (
        ("irfad.trainer", "time_embedding"),
        ("irfad.pipeline", "time_embedding"),
        ("irfad.net", "time_embedding"),
    ),
    "net.forward_features": (("irfad.net", "NoisePredictor.forward_features"),),
    "net.predict_noise": (("irfad.irf", "predict_noise"), ("irfad.baselines", "predict_noise")),
    "net.save_checkpoint": (("irfad.cli", "save_checkpoint"),),
    "net.load_checkpoint": (("irfad.cli", "load_checkpoint"), ("irfad.net", "load_checkpoint")),
    "schedule.q_sample": (
        ("irfad.trainer", "q_sample"),
        ("irfad.irf", "q_sample"),
        ("irfad.baselines", "q_sample"),
    ),
    "schedule.mean_path": (("irfad.irf", "mean_path"),),
    "irf.irf_mean": (("irfad.irf", "irf_mean"),),
    "scoring.image_score": (("irfad.scoring", "image_score"),),
    "scoring.score_map": (("irfad.scoring", "score_map"),),
    "scoring.bilinear_upsample": (
        ("irfad.scoring", "bilinear_upsample"),
        ("irfad.pipeline", "bilinear_upsample"),
    ),
    "baselines.ddim_invert_batch": (("irfad.baselines", "ddim_invert_batch"),),
    "baselines.reconstruct_batch": (("irfad.baselines", "reconstruct_batch"),),
    "pipeline.scorer": (("irfad.pipeline", "Scorer.__call__"),),
    "pipeline.evaluate_scorer": (("irfad.cli", "evaluate_scorer"),),
    "pipeline.pixel_maps": (("irfad.pipeline", "pixel_maps"), ("irfad.cli", "pixel_maps")),
    "metrics.auroc": (("irfad.pipeline", "auroc"), ("irfad.cli", "auroc")),
    "metrics.average_precision": (
        ("irfad.pipeline", "average_precision"),
        ("irfad.cli", "average_precision"),
    ),
    "metrics.f1_max": (("irfad.pipeline", "f1_max"), ("irfad.cli", "f1_max")),
    "metrics.aupro": (("irfad.pipeline", "aupro"),),
    "data.gen": (("irfad.cli", "gen_toy"), ("irfad.cli", "gen_blobs")),
    "data.save_dataset": (("irfad.cli", "save_dataset"),),
    "data.load_dataset": (("irfad.cli", "load_dataset"), ("irfad.data", "load_dataset")),
}

# Counted, not timed: every evaluation the scorers report to their counter.
NFE_BINDING = ("irfad.net", "EvalCounter.add")
STAGE = "stage"  # span name under which a stage's own self time is filed
TAPE_OPS = ("grad.leaf", "grad.affine", "grad.silu", "grad.mean_squared_error")


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Aggregates span self times per (stage, span); single-threaded."""

    def __init__(self):
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[tuple[str, str]] = Counter()
        self.stage_runs: Counter[str] = Counter()
        self.stage_wall: defaultdict[str, float] = defaultdict(float)
        # (stage, counter name) -> total: "nfe", "forward_rows", "distinct_scores"
        self.counts: Counter[tuple[str, str]] = Counter()
        # (rows, ((fan_in, fan_out), ...)) -> calls, for FLOPs and the dgemm reference
        self.forward_shapes: Counter[tuple] = Counter()
        self._stage = "none"
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for span, bindings in BINDINGS.items():
            for module_name, attr in bindings:
                owner, name = _resolve(module_name, attr)
                original = owner.__dict__[name]
                hook = _HOOKS.get(span)
                setattr(owner, name, self._wrap(span, original, hook))
                self._patches.append((owner, name, original))
        owner, name = _resolve(*NFE_BINDING)
        original = owner.__dict__[name]

        @functools.wraps(original)
        def add(counter, n):
            self.counts[(self._stage, "nfe")] += int(n)
            return original(counter, n)

        setattr(owner, name, add)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    @contextmanager
    def paused(self):
        """Run the body on the original functions."""
        installed = self.installed
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def _wrap(self, span: str, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                key = (self._stage, span)
                self.self_s[key] += (t1 - t0) - frame[0]
                self.calls[key] += 1
            if hook is not None:
                hook(self, args)
            if stack:
                # the hook's cost is tracing overhead, not the caller's work
                stack[-1][0] += time.perf_counter() - t0
            return result

        return wrapper

    # -- stages --------------------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        """File the spans that fire inside under `name`; record its self time."""
        previous, self._stage = self._stage, name
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[(name, STAGE)] += wall - frame[0]
            self.stage_runs[name] += 1
            self.stage_wall[name] += wall
            self._stage = previous

    # -- summaries -------------------------------------------------------------

    def fired(self) -> set[str]:
        return {span for (_, span), n in self.calls.items() if n}

    def per_stage_run(self, span: str) -> float:
        """Self seconds of `span` in one run of each stage it fired in."""
        return self._per_run(self.self_s, span)

    def calls_per_stage_run(self, span: str) -> float:
        return self._per_run(self.calls, span)

    def count_per_stage_run(self, counter: str) -> float:
        return self._per_run(self.counts, counter)

    def _per_run(self, table, key: str) -> float:
        return sum(n / max(1, self.stage_runs[stage])
                   for (stage, name), n in table.items() if name == key)

    def share_of_stage(self, spans, stage: str) -> float:
        """Self time of `spans` inside `stage` over that stage's wall."""
        if not self.stage_wall.get(stage):
            return 0.0
        return sum(self.self_s.get((stage, s), 0.0) for s in spans) / self.stage_wall[stage]


def _forward_hook(tracer: Tracer, args) -> None:
    net, x2 = args
    rows = int(x2.shape[0])
    tracer.forward_shapes[(rows, tuple(p.shape for p in net.params[0::2]))] += 1
    tracer.counts[(tracer._stage, "forward_rows")] += rows


def _distinct_hook(tracer: Tracer, args) -> None:
    scores = np.asarray(args[0])
    tracer.counts[(tracer._stage, "distinct_scores")] += int(np.unique(scores).size)


_HOOKS = {
    "net.forward_features": _forward_hook,
    "metrics.auroc": _distinct_hook,
    "metrics.average_precision": _distinct_hook,
    "metrics.f1_max": _distinct_hook,
    "metrics.aupro": _distinct_hook,
}


def forward_flops(shapes_calls: Counter) -> float:
    """Multiply-add FLOPs of the recorded forward calls (bias and SiLU left out)."""
    return float(sum(2 * rows * sum(a * b for a, b in shapes) * n
                     for (rows, shapes), n in shapes_calls.items()))


def dgemm_seconds(shapes_calls: Counter, min_seconds: float = 0.02) -> float:
    """Time bare ``a @ w`` on every recorded (rows, fan_in, fan_out) and weight
    it by the call counts: the roofline the forward is read against."""
    rng = np.random.default_rng(0)
    total = 0.0
    for (rows, shapes), n in shapes_calls.items():
        for fan_in, fan_out in shapes:
            a = rng.standard_normal((rows, fan_in))
            w = rng.standard_normal((fan_in, fan_out))
            a @ w  # first call pays any lazy set-up
            reps, t0 = 0, time.perf_counter()
            while True:
                a @ w
                reps += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= min_seconds:
                    break
            total += n * elapsed / reps
    return total
