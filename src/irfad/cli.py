"""Command-line front end.

Commands: gen | train | score | eval | toy | bench. Every command takes
the same flags --config, --seed, --t, --scorer, --out, before or after the
command; they override config-file values (see config.py for precedence).
All files are written atomically through `data.atomic_write`, which makes
the output directory with the first of them, so a command refused on its
inputs leaves no `--out`. Once the command succeeds, `main` writes a
`manifest` with the fully resolved configuration beside its artifacts.

Exit codes: 0 success, 2 config error, 3 data/artifact error (including
a path the OS refuses, such as an `--out` that names a file, and memory
the OS refuses), 4 numeric or training error. Failures print one
machine-parsable line: `irfad: error: <kind>: <message>`.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import RunConfig, resolve_config
from .data import (
    BlobParams,
    Dataset,
    atomic_write,
    field_shape,
    gen_blobs,
    gen_toy,
    load_dataset,
    quote,
    read_key_values,
    save_dataset,
    write_key_values,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    IrfadError,
    NumericError,
)
from .irf import DEFAULT_T_INFER_FEATURES, DEFAULT_T_INFER_TOY, MEAN_PATH, NOISY_STATE
from .metrics import EvalReport, auroc, average_precision, f1_max, shared_ranking, throughput
from .net import NoisePredictor, load_checkpoint, save_checkpoint
from .pipeline import (
    DDIM,
    IRF_MEAN,
    IRF_NOISY,
    RECON,
    SCORER_KINDS,
    Scorer,
    evaluate_scorer,
    pixel_maps,
)
from .schedule import linear_schedule
from .trainer import TrainConfig, train


# What an `eval` from a scores CSV takes from the `score` run that wrote it.
_SCORE_RUN_KEYS = ("scorer", "t_infer", "checkpoint")


def _score_run(scores_csv: str) -> dict[str, str]:
    """`_SCORE_RUN_KEYS` as recorded in the manifest that `score` wrote
    beside `scores_csv`; empty when there is no such manifest."""
    path = os.path.join(os.path.dirname(scores_csv), "manifest")
    manifest = read_key_values(path) if os.path.exists(path) else {}
    if manifest.get("command") != "score":
        return {}
    return {key: manifest[key] for key in _SCORE_RUN_KEYS if key in manifest}


def _write_manifest(out_dir: str, command: str, cfg: RunConfig, source=None) -> None:
    """`command`, then every resolved config key. An `eval` from a scores
    CSV ran no scorer: `source` is `_score_run` of its scores, and the
    manifest records the scorer, step and checkpoint found there, or leaves
    them out when that run is unknown."""
    items = cfg.items()
    if source is not None:
        items = [
            (key, source.get(key, value))
            for key, value in items
            if key in source or key not in _SCORE_RUN_KEYS
        ]
    write_key_values(os.path.join(out_dir, "manifest"), [("command", command), *items])


def _write_table(path: str, header: list[str], columns: list) -> None:
    """A run table at `path`: the header, then one line per row, its fields
    joined by a tab in a `.tsv` file and by `,` in any other.

    `columns` holds one sequence per header field. An ndarray column is
    written through `tolist()` and `repr`, so a float is its shortest
    round-trip decimal; any other column through `str`. A float64 column
    whose bits equal an earlier one's (`0.0` and `-0.0` differ) reuses that
    column's text, and one whose entries all have the same bits is
    formatted with one `repr`. No field holds a separator, a quote or a
    newline, so nothing is quoted.
    """
    cells, written = [], []  # written: (bits, text) of each float64 column
    for col in columns:
        if not isinstance(col, np.ndarray):
            cells.append(map(str, col))
        elif col.dtype != np.float64:
            cells.append(map(repr, col.tolist()))
        else:
            bits = col.view(np.uint64)
            text = next((t for b, t in written if np.array_equal(b, bits)), None)
            if text is None:
                if bits.size and (bits == bits[0]).all():
                    text = [repr(col[0].item())] * bits.size
                else:
                    text = list(map(repr, col.tolist()))
                written.append((bits, text))
            cells.append(text)
    sep = "\t" if path.endswith(".tsv") else ","
    lines = [sep.join(header), *map(sep.join, zip(*cells))]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
        seed=cfg.seed,
    )


def _make_scorer(cfg: RunConfig, kind: str, net, schedule, dataset: Dataset) -> Scorer:
    """A `kind` scorer at cfg.t_infer.

    A 0 there is first replaced in `cfg` by the data's default step capped
    at T, so the run's manifest records the step the scorer used.
    """
    if cfg.t_infer <= 0:
        toy = len(dataset.sample_shape) == 1
        cfg.t_infer = min(DEFAULT_T_INFER_TOY if toy else DEFAULT_T_INFER_FEATURES, cfg.T)
    return Scorer(
        kind,
        net,
        schedule,
        t_infer=cfg.t_infer,
        batch_size=cfg.infer_batch,
        noise_seed=cfg.seed,
        recon_t_start=cfg.recon_t_start,
        recon_steps=cfg.recon_steps,
        ddim_steps=cfg.ddim_steps,
    )


def _check_map_target(cfg: RunConfig, dataset: Dataset) -> None:
    """save_maps needs a residual-field scorer and a target no smaller than
    the field whose (n, H, W) float64 maps fit the address space."""
    if cfg.scorer not in (IRF_MEAN, IRF_NOISY):
        raise ConfigError(f"save_maps needs an irf scorer, got scorer={cfg.scorer}")
    _, h, w = field_shape(dataset.sample_shape)
    if cfg.up_height < h or cfg.up_width < w:
        raise ConfigError(
            f"save_maps target ({cfg.up_height}, {cfg.up_width}) is below the field's ({h}, {w})"
        )
    if 8 * len(dataset) * cfg.up_height * cfg.up_width > np.iinfo(np.intp).max:
        raise ConfigError(
            f"save_maps target ({cfg.up_height}, {cfg.up_width}) for {len(dataset)} samples "
            "exceeds the addressable size"
        )


def _write_scores(out_dir: str, table) -> None:
    """scores.csv: id, s and, for the IRF scorers, s_diff and s_nll."""
    n = table.s.size
    if table.s_diff is not None:
        components = [table.s_diff, table.s_nll]
    else:
        components = [[""] * n, [""] * n]
    path = os.path.join(out_dir, "scores.csv")
    _write_table(path, ["id", "s", "s_diff", "s_nll"], [range(n), table.s, *components])


def _write_trajectories(out_dir: str, dataset: Dataset, tables) -> None:
    """trajectories.tsv: x0, |delta|, label and input kind; one block per (table, kind)."""
    k = len(tables)
    columns = [
        np.tile(dataset.samples.reshape(-1), k),
        np.concatenate([np.abs(table.deltas.reshape(-1)) for table, _ in tables]),
        np.tile(dataset.labels, k),
        [kind for _, kind in tables for _ in range(len(dataset))],
    ]
    path = os.path.join(out_dir, "trajectories.tsv")
    _write_table(path, ["x0", "abs_delta", "label", "input_kind"], columns)


def _write_trainlog(out_dir: str, log) -> None:
    """trainlog.csv: epoch, mean loss and seconds."""
    epochs = range(1, len(log.epoch_losses) + 1)
    columns = [epochs, np.array(log.epoch_losses), np.array(log.epoch_seconds)]
    _write_table(os.path.join(out_dir, "trainlog.csv"), ["epoch", "mean_loss", "seconds"], columns)


def _image_report(scores: np.ndarray, labels: np.ndarray) -> EvalReport:
    """AUROC, AP and F1-max of image scores, from one shared ranking."""
    with shared_ranking():
        return EvalReport(
            image_auroc=auroc(scores, labels),
            image_ap=average_precision(scores, labels),
            image_f1=f1_max(scores, labels),
        )


def _write_report(out_dir: str, report: EvalReport) -> None:
    """eval.csv, then the same rows on stdout."""
    rows = report.rows()
    _write_table(os.path.join(out_dir, "eval.csv"), ["metric", "value"], list(zip(*rows)))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value}")


# -- commands ----------------------------------------------------------------


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
        raise ConfigError(f"gen needs data=toy or data=blobs, got {quote(cfg.data)}")
    save_dataset(train_ds, os.path.join(cfg.out, "train"))
    save_dataset(test_ds, os.path.join(cfg.out, "test"))
    print(f"wrote {len(train_ds)} train / {len(test_ds)} test samples to {cfg.out}")


def _train_and_save(cfg: RunConfig, train_ds: Dataset, schedule):
    """Train a fresh net on `train_ds`; write checkpoint.bin and trainlog.csv."""
    d = int(np.prod(train_ds.sample_shape))
    net = NoisePredictor.create(d, cfg.hidden, cfg.embed_dim, schedule, cfg.seed)
    net, log = train(net, train_ds, schedule, _train_config(cfg))
    save_checkpoint(net, os.path.join(cfg.out, "checkpoint.bin"))
    _write_trainlog(cfg.out, log)
    return net, log


def cmd_train(cfg: RunConfig) -> None:
    train_ds = _load_run_dataset(cfg.data)
    schedule = linear_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    _, log = _train_and_save(cfg, train_ds, schedule)
    ckpt_path = os.path.join(cfg.out, "checkpoint.bin")
    print(f"final loss {log.final_loss:.6f}; checkpoint at {ckpt_path}")


def cmd_score(cfg: RunConfig) -> None:
    """Write scores.csv and, with save_maps, maps.bin.

    maps.bin holds the (n, up_height, up_width) pixel maps as little-endian
    float64 in row-major order, the layout of a split's samples.bin.
    """
    net, schedule = _load_net(cfg)
    dataset = _load_run_dataset(cfg.data)
    scorer = _make_scorer(cfg, cfg.scorer, net, schedule, dataset)
    if cfg.save_maps:
        _check_map_target(cfg, dataset)
    table = scorer(dataset.samples)
    _write_scores(cfg.out, table)
    if cfg.save_maps:
        maps = pixel_maps(table, (cfg.up_height, cfg.up_width)).astype("<f8", copy=False)
        atomic_write(os.path.join(cfg.out, "maps.bin"), maps.tobytes())
    print(f"scored {table.s.size} samples with {cfg.scorer} at t={scorer.t_infer}")


def _check_ids(path: str, ids: list) -> None:
    """Row i must carry id i, so that it scores the dataset's sample i."""
    for i, text in enumerate(ids):
        try:
            ok = int(text) == i
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise DataError(
                f"{path}: row {i + 1} has id {quote(text)}; "
                f"ids must be 0..{len(ids) - 1} in row order"
            )


def _read_scores_csv(path: str) -> np.ndarray:
    """The `s` column of a scores CSV; an `id` column, if any, is checked.

    Blank lines are skipped. A row must reach the `s` and `id` columns.
    """
    if not os.path.exists(path):
        raise DataError(f"scores csv not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if "s" not in header:
                raise DataError(f"{path}: missing 's' column")
            rows = [row for row in reader if row]
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}: malformed CSV ({exc})") from exc
    column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    s_col = column["s"]
    id_col = column.get("id", s_col)
    needed = max(s_col, id_col) + 1
    for i, row in enumerate(rows):
        if len(row) < needed:
            raise DataError(f"{path}: row {i + 1} has {len(row)} fields, needs {needed}")
    scores = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            scores[i] = float(row[s_col])
        except ValueError as exc:
            raise DataError(f"{path}: row {i + 1} has bad score value {quote(row[s_col])}") from exc
    if "id" in column:
        _check_ids(path, [row[id_col] for row in rows])
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
        report = _image_report(scores, dataset.labels)
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
    fields = ((mean_table, MEAN_PATH), (noisy_table, NOISY_STATE))
    _write_trajectories(cfg.out, test_ds, fields)
    _write_report(cfg.out, report)


def cmd_bench(cfg: RunConfig) -> None:
    """Compare scorer speed and accuracy (of each warm-up pass) on one dataset."""
    net, schedule = _load_net(cfg)
    dataset = _load_run_dataset(cfg.data)
    kinds = (IRF_MEAN, RECON, DDIM)
    accuracy, nfes, rates = [], [], []
    for kind in kinds:
        scorer = _make_scorer(cfg, kind, net, schedule, dataset)
        rate, nfe, table = throughput(scorer, dataset.samples, repeats=cfg.bench_repeats)
        report = _image_report(table.s, dataset.labels)
        accuracy.append([report.image_auroc, report.image_ap, report.image_f1])
        nfes.append(nfe)
        rates.append(rate)
        print(f"{kind}: nfe={nfe} rate={rate:.1f}/s")
    _write_table(
        os.path.join(cfg.out, "bench.csv"),
        ["scorer", "auroc", "ap", "f1_max", "nfe", "samples_per_sec"],
        [kinds, *np.array(accuracy).T, nfes, np.array(rates)],
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
    """One parser: the command and the five flags, in any order."""
    parser = argparse.ArgumentParser(
        prog="irfad",
        description="One-step diffusion anomaly detection via inverse residual fields",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", default=None, help="root RNG seed")
    parser.add_argument("--t", default=None, help="inference step index")
    parser.add_argument("--scorer", default=None, choices=SCORER_KINDS)
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = resolve_config(
            args.config,
            {"seed": args.seed, "t_infer": args.t, "scorer": args.scorer, "out": args.out},
        )
        source = None
        if args.command == "eval" and cfg.scores_csv:
            source = _score_run(cfg.scores_csv)  # refused before any output
        out = os.path.abspath(cfg.out)  # refused now if it is, or lies under, a file
        while not os.path.lexists(out):
            out = os.path.dirname(out)
        if not os.path.isdir(out):
            raise DataError(f"--out {quote(cfg.out)}: {quote(out)} is not a directory")
        _COMMANDS[args.command](cfg)
        _write_manifest(cfg.out, args.command, cfg, source)
        return 0
    except ConfigError as exc:
        print(f"irfad: error: config: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, OSError) as exc:
        print(f"irfad: error: data: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"irfad: error: data: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"irfad: error: numeric: {exc}", file=sys.stderr)
        return 4
    except IrfadError as exc:
        print(f"irfad: error: usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
