"""Per-layer metrics of a traced run, and the spans each workload must fire.

Every ``_s`` metric is a self time in seconds for one run of each benchmark
stage the span fired in (stage totals divided by that stage's run count), so
it does not grow with the number of rounds that fit into ``--seconds``. A
``requests`` stage is one block of the workload's ``requests_per_block``
requests. Counts are normalized the same way. ``_share`` metrics are a self
time inside one stage over that stage's wall. Rates and the tracing overhead
are taken over the whole traced run. Span times are raw seconds of this host;
the overhead compares probe-scaled walls of the untraced round 0 with those
of the traced rounds.
"""

from __future__ import annotations

import os
import statistics

from spans import STAGE, TAPE_OPS, Tracer, dgemm_seconds, forward_flops

# Self-time metrics: metric name -> span.
SELF_TIMES = {
    "grad.backward_s": "grad.backward",
    "grad.silu_s": "grad.silu",
    "grad.affine_s": "grad.affine",
    "grad.leaf_s": "grad.leaf",
    "trainer.optimizer_step_s": "trainer.optimizer_step",
    "trainer.self_s": "trainer.train",
    "net.forward_features_s": "net.forward_features",
    "net.predict_noise_self_s": "net.predict_noise",
    "net.time_embedding_s": "net.time_embedding",
    "net.save_checkpoint_s": "net.save_checkpoint",
    "net.load_checkpoint_s": "net.load_checkpoint",
    "schedule.q_sample_s": "schedule.q_sample",
    "schedule.mean_path_s": "schedule.mean_path",
    "irf.irf_mean_self_s": "irf.irf_mean",
    "scoring.image_score_s": "scoring.image_score",
    "scoring.score_map_s": "scoring.score_map",
    "scoring.bilinear_upsample_s": "scoring.bilinear_upsample",
    "baselines.ddim_invert_batch_self_s": "baselines.ddim_invert_batch",
    "baselines.reconstruct_batch_self_s": "baselines.reconstruct_batch",
    "pipeline.scorer_self_s": "pipeline.scorer",
    "pipeline.evaluate_scorer_self_s": "pipeline.evaluate_scorer",
    "pipeline.pixel_maps_s": "pipeline.pixel_maps",
    "metrics.auroc_s": "metrics.auroc",
    "metrics.average_precision_s": "metrics.average_precision",
    "metrics.f1_max_s": "metrics.f1_max",
    "metrics.aupro_s": "metrics.aupro",
    "data.gen_s": "data.gen",
    "data.save_dataset_s": "data.save_dataset",
    "data.load_dataset_s": "data.load_dataset",
}
CLI_STAGES = ("gen", "train", "score", "eval")
METRIC_SPANS = ("metrics.auroc", "metrics.average_precision", "metrics.f1_max", "metrics.aupro")

_COMMON = {
    "data.gen", "data.save_dataset", "data.load_dataset",
    "trainer.train", "trainer.optimizer_step", "schedule.q_sample",
    "grad.leaf", "grad.affine", "grad.silu", "grad.mean_squared_error", "grad.backward",
    "net.time_embedding", "net.forward_features", "net.predict_noise",
    "net.save_checkpoint", "net.load_checkpoint",
    "pipeline.scorer", "pipeline.evaluate_scorer",
    "baselines.ddim_invert_batch", "baselines.reconstruct_batch",
    "metrics.auroc", "metrics.average_precision", "metrics.f1_max",
}
_PIXEL = {"pipeline.pixel_maps", "scoring.bilinear_upsample", "metrics.aupro"}
# Traced runs serve requests only on the serving workload (workloads.Bench.serving).
_PER_SAMPLE = {"irf.irf_mean", "schedule.mean_path", "scoring.image_score", "scoring.score_map"}
EXPECTED_SPANS = {
    "toy": _COMMON,
    "blobs": _COMMON | _PIXEL,
    "online": _COMMON | _PIXEL | _PER_SAMPLE,
}


def _overhead(bench) -> tuple[float, float]:
    """Traced minus untraced wall of the same stages: round 0 runs untraced."""
    traced_rounds = range(1, bench.rounds)
    untraced = traced = 0.0
    for name in {name for r, name, *_ in bench.walls if r == 0}:
        base = bench.stage_walls(name, (0,))
        after = bench.stage_walls(name, traced_rounds)
        if after:
            untraced += sum(base)
            traced += statistics.median(after) * len(base)
    return traced - untraced, (traced - untraced) / untraced


def layer_metrics(tracer: Tracer, bench) -> dict[str, tuple[float, str]]:
    t = tracer
    out = {name: (t.per_stage_run(span), "s") for name, span in SELF_TIMES.items()}
    out["grad.tape_nodes"] = (sum(t.calls_per_stage_run(op) for op in TAPE_OPS), "count")
    out["grad.silu_share"] = (t.share_of_stage(["grad.silu"], "train"), "frac")
    out["trainer.steps"] = (t.calls_per_stage_run("trainer.optimizer_step"), "count")
    out["trainer.optimizer_step_share"] = (
        t.share_of_stage(["trainer.optimizer_step"], "train"), "frac")
    out["net.forward_calls"] = (t.calls_per_stage_run("net.forward_features"), "count")
    out["net.forward_rows"] = (t.count_per_stage_run("forward_rows"), "count")
    flops = forward_flops(t.forward_shapes)
    forward_total = sum(s for (_, span), s in t.self_s.items() if span == "net.forward_features")
    out["net.forward_gflops"] = (flops / forward_total / 1e9 if forward_total else 0.0, "GFLOP/s")
    dgemm = dgemm_seconds(t.forward_shapes)
    out["net.dgemm_gflops"] = (flops / dgemm / 1e9 if dgemm else 0.0, "GFLOP/s")
    out["net.checkpoint_bytes"] = (
        os.path.getsize(os.path.join(bench.model_dir, "checkpoint.bin")), "bytes")
    out["pipeline.nfe"] = (t.count_per_stage_run("nfe"), "count")
    out["metrics.distinct_scores"] = (t.count_per_stage_run("distinct_scores"), "count")
    out["metrics.eval_share"] = (t.share_of_stage(METRIC_SPANS, "eval"), "frac")
    cli = {
        stage: t.self_s.get((stage, STAGE), 0.0) / max(1, t.stage_runs[stage])
        for stage in CLI_STAGES
    }
    for stage, secs in cli.items():
        out[f"cli.{stage}_self_s"] = (secs, "s")
    out["cli.self_s"] = (sum(cli.values()), "s")
    overhead_s, overhead_frac = _overhead(bench)
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
