"""Command-line front end.

Subcommands: gen | train | score | eval | toy | bench. Flags --config,
--seed, --t, --scorer, --out override config-file values (see config.py
for precedence). `main` creates the output directory, and once the command
succeeds writes a `manifest` with the fully resolved configuration next to
its artifacts. All files are written atomically through `data.atomic_write`.

Exit codes: 0 success, 2 config error, 3 data/artifact error,
4 numeric or training error. Failures print one machine-parsable line:
`irfad: error: <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

import numpy as np

from .config import RunConfig, resolve_config
from .data import (
    BlobParams,
    Dataset,
    atomic_write,
    gen_blobs,
    gen_toy,
    load_dataset,
    save_dataset,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    IrfadError,
    NumericError,
)
from .irf import DEFAULT_T_INFER_FEATURES, DEFAULT_T_INFER_TOY, MEAN_PATH, NOISY_STATE
from .metrics import EvalReport, auroc, average_precision, f1_max, throughput
from .net import NoisePredictor, load_checkpoint, save_checkpoint
from .pipeline import (
    DDIM,
    IRF_MEAN,
    IRF_NOISY,
    RECON,
    SCORER_KINDS,
    Scorer,
    evaluate_scorer,
    normalized_scores,
    pixel_maps,
)
from .schedule import linear_schedule
from .trainer import TrainConfig, train


def _write_text(path: str, lines: list[str]) -> None:
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _write_manifest(out_dir: str, command: str, cfg: RunConfig) -> None:
    lines = [f"command={command}"]
    lines.extend(f"{key}={value}" for key, value in cfg.items())
    _write_text(os.path.join(out_dir, "manifest"), lines)


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal form
    return str(value)


def _load_run_dataset(path: str) -> Dataset:
    if not path:
        raise ConfigError("this command needs data=<dataset dir>")
    if not os.path.isdir(path):
        raise DataError(f"dataset directory not found: {path}")
    return load_dataset(path)


def _load_net(cfg: RunConfig):
    if not cfg.checkpoint:
        raise ConfigError("this command needs checkpoint=<file>")
    schedule = linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    return load_checkpoint(cfg.checkpoint, schedule), schedule


def _train_config(cfg: RunConfig) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
        beta1=cfg.adam_beta1,
        beta2=cfg.adam_beta2,
        eps=cfg.adam_eps,
        seed=cfg.seed,
    )


def _make_scorer(cfg: RunConfig, kind: str, net, schedule, dataset: Dataset) -> Scorer:
    """A `kind` scorer at cfg.t_infer, or else the data's default step capped at T."""
    t_infer = cfg.t_infer
    if t_infer <= 0:
        toy = len(dataset.sample_shape) == 1
        t_infer = min(DEFAULT_T_INFER_TOY if toy else DEFAULT_T_INFER_FEATURES, cfg.T)
    return Scorer(
        kind,
        net,
        schedule,
        t_infer=t_infer,
        batch_size=cfg.infer_batch,
        noise_seed=cfg.seed,
        recon_t_start=cfg.recon_t_start,
        recon_steps=cfg.recon_steps,
        ddim_steps=cfg.ddim_steps,
    )


def _write_scores(out_dir: str, table) -> None:
    """scores.csv: id, s and, for the IRF scorers, s_diff and s_nll."""
    rows = []
    for i in range(table.s.size):
        if table.s_diff is not None:
            rows.append([i, _fmt(table.s[i]), _fmt(table.s_diff[i]), _fmt(table.s_nll[i])])
        else:
            rows.append([i, _fmt(table.s[i]), "", ""])
    atomic_write(
        os.path.join(out_dir, "scores.csv"),
        _csv_bytes(["id", "s", "s_diff", "s_nll"], rows),
    )


def _write_score_maps(out_dir: str, maps: np.ndarray) -> None:
    """One raw little-endian float64 file per sample plus a sidecar header."""
    maps_dir = os.path.join(out_dir, "maps")
    os.makedirs(maps_dir, exist_ok=True)
    n, H, W = maps.shape
    _write_text(
        os.path.join(maps_dir, "maps.header"),
        [f"dtype=float64-le rows={H} cols={W} count={n}"],
    )
    for i in range(n):
        atomic_write(
            os.path.join(maps_dir, f"map_{i:05d}.bin"),
            np.ascontiguousarray(maps[i], "<f8").tobytes(),
        )


def _write_report(out_dir: str, report: EvalReport) -> None:
    """eval.csv, then the same rows on stdout."""
    rows = report.rows()
    atomic_write(
        os.path.join(out_dir, "eval.csv"),
        _csv_bytes(["metric", "value"], [list(row) for row in rows]),
    )
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")


# -- subcommands -------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> None:
    if cfg.data == "toy":
        train_ds, test_ds = gen_toy(cfg.seed)
    elif cfg.data == "blobs":
        train_ds, test_ds = gen_blobs(
            cfg.n_train,
            cfg.n_test,
            dims=(cfg.channels, cfg.height, cfg.width),
            anomaly=BlobParams(cfg.blob_amplitude, cfg.blob_rows, cfg.blob_cols),
            seed=cfg.seed,
            upsample_to=(cfg.up_height, cfg.up_width),
        )
    else:
        raise ConfigError(f"gen needs data=toy or data=blobs, got {cfg.data!r}")
    save_dataset(train_ds, os.path.join(cfg.out, "train"))
    save_dataset(test_ds, os.path.join(cfg.out, "test"))
    print(f"wrote {len(train_ds)} train / {len(test_ds)} test samples to {cfg.out}")


def _train_and_save(cfg: RunConfig, train_ds: Dataset, schedule):
    """Train a fresh net on `train_ds`; write checkpoint.bin and trainlog.csv."""
    d = int(np.prod(train_ds.sample_shape))
    net = NoisePredictor.create(d, cfg.hidden, cfg.embed_dim, schedule, cfg.seed)
    net, log = train(net, train_ds, schedule, _train_config(cfg))
    save_checkpoint(net, os.path.join(cfg.out, "checkpoint.bin"))
    rows = [
        [epoch + 1, _fmt(loss), _fmt(secs)]
        for epoch, (loss, secs) in enumerate(zip(log.epoch_losses, log.epoch_seconds))
    ]
    atomic_write(
        os.path.join(cfg.out, "trainlog.csv"),
        _csv_bytes(["epoch", "mean_loss", "seconds"], rows),
    )
    return net, log


def cmd_train(cfg: RunConfig) -> None:
    train_ds = _load_run_dataset(cfg.data)
    schedule = linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    _, log = _train_and_save(cfg, train_ds, schedule)
    ckpt_path = os.path.join(cfg.out, "checkpoint.bin")
    print(f"final loss {log.final_loss:.6f}; checkpoint at {ckpt_path}")


def cmd_score(cfg: RunConfig) -> None:
    net, schedule = _load_net(cfg)
    dataset = _load_run_dataset(cfg.data)
    scorer = _make_scorer(cfg, cfg.scorer, net, schedule, dataset)
    table = scorer(dataset.samples)
    if cfg.normalize_scores:
        normal = dataset.labels == 0
        calib = scorer(dataset.samples[normal])
        table.s = normalized_scores(table, calib)
    _write_scores(cfg.out, table)
    if cfg.save_maps and table.deltas is not None:
        maps = pixel_maps(table, (cfg.up_height, cfg.up_width))
        _write_score_maps(cfg.out, maps)
    print(f"scored {table.s.size} samples with {cfg.scorer} at t={scorer.t_infer}")


def _read_scores_csv(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise DataError(f"scores csv not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or "s" not in reader.fieldnames:
                raise DataError(f"{path}: missing 's' column")
            scores = np.array([float(row["s"]) for row in reader])
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad score value ({exc})") from exc
    if not np.all(np.isfinite(scores)):
        raise DataError(f"{path}: non-finite score values")
    return scores


def cmd_eval(cfg: RunConfig) -> None:
    dataset = _load_run_dataset(cfg.data)
    if cfg.scores_csv:
        scores = _read_scores_csv(cfg.scores_csv)
        if scores.size != len(dataset):
            raise DataError(
                f"{cfg.scores_csv} has {scores.size} rows, dataset has {len(dataset)}"
            )
        report = EvalReport(
            image_auroc=auroc(scores, dataset.labels),
            image_ap=average_precision(scores, dataset.labels),
            image_f1=f1_max(scores, dataset.labels),
        )
    else:
        net, schedule = _load_net(cfg)
        scorer = _make_scorer(cfg, cfg.scorer, net, schedule, dataset)
        report, _ = evaluate_scorer(scorer, dataset, fpr_limit=cfg.fpr_limit)
    _write_report(cfg.out, report)


def cmd_toy(cfg: RunConfig) -> None:
    """End-to-end 1-D pipeline: generate, train, score, report."""
    train_ds, test_ds = gen_toy(cfg.seed)
    schedule = linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    net, _ = _train_and_save(cfg, train_ds, schedule)

    mean_scorer = _make_scorer(cfg, IRF_MEAN, net, schedule, test_ds)
    noisy_scorer = _make_scorer(cfg, IRF_NOISY, net, schedule, test_ds)
    report, mean_table = evaluate_scorer(mean_scorer, test_ds)
    noisy_table = noisy_scorer(test_ds.samples)

    _write_scores(cfg.out, mean_table)
    x0s = test_ds.samples.reshape(-1)
    lines = ["x0\tabs_delta\tlabel\tinput_kind"]
    for table, kind in ((mean_table, MEAN_PATH), (noisy_table, NOISY_STATE)):
        amps = np.abs(table.deltas.reshape(-1))
        for i in range(x0s.size):
            lines.append(
                f"{_fmt(x0s[i])}\t{_fmt(amps[i])}\t{int(test_ds.labels[i])}\t{kind}"
            )
    _write_text(os.path.join(cfg.out, "trajectories.tsv"), lines)
    _write_report(cfg.out, report)


def cmd_bench(cfg: RunConfig) -> None:
    """Compare scorer accuracy and speed on one dataset."""
    net, schedule = _load_net(cfg)
    dataset = _load_run_dataset(cfg.data)
    rows = []
    for kind in (IRF_MEAN, RECON, DDIM):
        scorer = _make_scorer(cfg, kind, net, schedule, dataset)
        table = scorer(dataset.samples)
        rate, nfe = throughput(scorer, dataset.samples, repeats=cfg.bench_repeats)
        rows.append(
            [
                kind,
                _fmt(auroc(table.s, dataset.labels)),
                _fmt(average_precision(table.s, dataset.labels)),
                _fmt(f1_max(table.s, dataset.labels)),
                nfe,
                _fmt(rate),
            ]
        )
        print(f"{kind}: nfe={nfe} rate={rate:.1f}/s")
    atomic_write(
        os.path.join(cfg.out, "bench.csv"),
        _csv_bytes(["scorer", "auroc", "ap", "f1_max", "nfe", "samples_per_sec"], rows),
    )


# -- entry point --------------------------------------------------------------

_COMMANDS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "score": cmd_score,
    "eval": cmd_eval,
    "toy": cmd_toy,
    "bench": cmd_bench,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irfad",
        description="One-step diffusion anomaly detection via inverse residual fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="key=value config file")
        cmd.add_argument("--seed", default=None, help="root RNG seed")
        cmd.add_argument("--t", default=None, help="inference step index")
        cmd.add_argument("--scorer", default=None, choices=SCORER_KINDS)
        cmd.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(
            args.config,
            {"seed": args.seed, "t_infer": args.t, "scorer": args.scorer, "out": args.out},
        )
        os.makedirs(cfg.out, exist_ok=True)
        _COMMANDS[args.command](cfg)
        _write_manifest(cfg.out, args.command, cfg)
        return 0
    except ConfigError as exc:
        print(f"irfad: error: config: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"irfad: error: data: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"irfad: error: numeric: {exc}", file=sys.stderr)
        return 4
    except IrfadError as exc:
        print(f"irfad: error: usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
