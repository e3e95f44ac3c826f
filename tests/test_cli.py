import csv
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irfad import cli
from irfad.config import resolve_config
from irfad.data import Dataset, gen_toy, load_dataset, save_dataset
from irfad.errors import ConfigError, ParameterError
from irfad.pipeline import SCORER_KINDS, ScoreTable, pixel_maps
from irfad.rng import make_rng
from irfad.trainer import TrainLog

from oracles import (
    _csv_bytes,
    _fmt,
    scores_csv_rows,
    trainlog_csv_rows,
    trajectories_tsv_rows,
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "irfad", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()))
    return str(path)


@pytest.fixture(scope="module")
def tiny_blob_run(tmp_path_factory):
    """gen -> train -> score -> eval chain with a deliberately tiny config."""
    root = tmp_path_factory.mktemp("cli-blobs")
    gen_cfg = write_config(
        root / "gen.cfg", data="blobs", n_train=24, n_test=12
    )
    gen = run_cli("gen", "--config", gen_cfg, "--out", str(root / "data"), "--seed", "3")
    cfg = write_config(
        root / "train.cfg",
        data=str(root / "data" / "train"), epochs=8, batch_size=8,
        hidden="16,16", embed_dim=8, infer_batch=64,
    )
    train = run_cli(
        "train", "--config", cfg, "--out", str(root / "run"), "--seed", "3"
    )
    # second config pointing at the generated artifacts
    cfg2 = write_config(
        root / "run.cfg",
        data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        infer_batch=64, save_maps="true",
    )
    return root, cfg, cfg2, gen, train


def test_gen_and_train_chain(tiny_blob_run):
    root, cfg, cfg2, gen, train = tiny_blob_run
    assert gen.returncode == 0, gen.stderr
    assert (root / "data" / "train" / "samples.bin").exists()
    assert (root / "data" / "test" / "masks" / "masks.bin").exists()
    assert (root / "data" / "manifest").exists()
    assert train.returncode == 0, train.stderr
    assert (root / "run" / "checkpoint.bin").exists()
    with open(root / "run" / "trainlog.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(float(r["mean_loss"]) >= 0 for r in rows)


def test_score_writes_components_and_maps(tiny_blob_run):
    root, cfg, cfg2, *_ = tiny_blob_run
    res = run_cli("score", "--config", cfg2, "--out", str(root / "scored"))
    assert res.returncode == 0, res.stderr
    with open(root / "scored" / "scores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        assert float(row["s"]) == pytest.approx(
            float(row["s_diff"]) + float(row["s_nll"])
        )
    # maps.bin is n x H x W little-endian float64: H, W from the manifest, n from scores.csv
    manifest = dict(
        line.split("=", 1) for line in (root / "scored" / "manifest").read_text().splitlines()
    )
    shape = (len(rows), int(manifest["up_height"]), int(manifest["up_width"]))
    assert shape == (12, 32, 32)
    maps = np.fromfile(root / "scored" / "maps.bin", dtype="<f8")
    assert maps.size == np.prod(shape)
    assert not (root / "scored" / "maps").exists()
    cfg = resolve_config(cfg2, {})
    net, schedule = cli._load_net(cfg)
    split = load_dataset(cfg.data)
    table = cli._make_scorer(cfg, cfg.scorer, net, schedule, split)(split.samples)
    assert maps.reshape(shape).tobytes() == pixel_maps(table, shape[1:]).tobytes()


@pytest.mark.parametrize("scorer", ["recon", "ddim"])
def test_score_maps_with_a_baseline_scorer_exits_2(tiny_blob_run, tmp_path, scorer):
    root, cfg, cfg2, *_ = tiny_blob_run
    out = tmp_path / "o"
    res = run_cli("score", "--config", cfg2, "--scorer", scorer, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip().startswith("irfad: error: config:")
    assert "save_maps" in res.stderr
    assert not (out / "scores.csv").exists() and not (out / "manifest").exists()


def test_recon_steps_past_the_schedule_exit_2_before_scoring(tiny_blob_run, tmp_path):
    # refused when the scorer is made, not after a million noise slots
    root, *_ = tiny_blob_run
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        recon_steps=1_000_000,
    )
    out = tmp_path / "o"
    res = run_cli("score", "--config", cfg, "--scorer", "recon", "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip() == "irfad: error: usage: steps 1000000 outside [1, 500]"
    assert not (out / "scores.csv").exists() and not (out / "manifest").exists()


def test_score_maps_below_the_field_exits_2_before_scoring(tiny_blob_run, tmp_path):
    # the blob split holds 8x8 fields; a 4-row map target cannot hold them
    root, *_ = tiny_blob_run
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        save_maps="true", up_height=4,
    )
    out = tmp_path / "o"
    res = run_cli("score", "--config", cfg, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip().startswith("irfad: error: config:")
    assert not (out / "scores.csv").exists() and not (out / "manifest").exists()


def test_eval_reports_pixel_metrics(tiny_blob_run):
    root, cfg, cfg2, *_ = tiny_blob_run
    res = run_cli("eval", "--config", cfg2, "--out", str(root / "evald"))
    assert res.returncode == 0, res.stderr
    with open(root / "evald" / "eval.csv") as fh:
        metrics = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
    for key in ("image_auroc", "pixel_auroc", "pixel_aupro", "mad", "nfe"):
        assert key in metrics
    assert 0.0 <= float(metrics["pixel_auroc"]) <= 1.0
    # eval times nothing, so it reports no throughput
    assert "samples_per_sec" not in metrics
    assert "samples_per_sec" not in res.stdout


def test_eval_draws_maps_at_the_masks_resolution(tiny_blob_run, tmp_path):
    # masks generated at 16x16 while up_height/up_width keep their 32x32 default
    root, *_ = tiny_blob_run
    gen_cfg = write_config(
        tmp_path / "gen.cfg", data="blobs", n_train=4, n_test=12, up_height=16, up_width=16
    )
    gen = run_cli("gen", "--config", gen_cfg, "--out", str(tmp_path / "data"), "--seed", "4")
    assert gen.returncode == 0, gen.stderr
    cfg = write_config(
        tmp_path / "eval.cfg",
        data=str(tmp_path / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "evald"))
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "evald" / "eval.csv") as fh:
        metrics = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    for key in ("pixel_auroc", "pixel_ap", "pixel_f1", "pixel_aupro"):
        assert 0.0 <= metrics[key] <= 1.0


def test_bench_reports_nfe_per_scorer(tiny_blob_run):
    root, cfg, cfg2, *_ = tiny_blob_run
    cfg3 = write_config(
        root / "bench.cfg",
        data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        infer_batch=64, recon_t_start=100, recon_steps=10,
        ddim_steps=3, bench_repeats=2,
    )
    res = run_cli("bench", "--config", cfg3, "--out", str(root / "bench"))
    assert res.returncode == 0, res.stderr
    with open(root / "bench" / "bench.csv") as fh:
        rows = {r["scorer"]: r for r in csv.DictReader(fh)}
    assert rows["irf-mean"]["nfe"] == "12"
    assert rows["ddim"]["nfe"] == str(12 * 3)
    assert rows["recon"]["nfe"] == str(12 * 10)


def test_eval_on_perfect_detector_fixture(tmp_path):
    _, test = gen_toy(0)
    sub = test.samples[:20]
    labels = test.labels[:20].copy()
    labels[:10] = 0
    labels[10:] = 1
    ds = Dataset(samples=sub, labels=labels, masks=None, role="test")
    save_dataset(ds, tmp_path / "ds")
    scores_path = tmp_path / "scores.csv"
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "s", "s_diff", "s_nll"])
        for i in range(20):
            writer.writerow([i, float(labels[i]) + 0.25, "", ""])
    cfg = write_config(
        tmp_path / "eval.cfg", data=str(tmp_path / "ds"), scores_csv=str(scores_path)
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "out" / "eval.csv") as fh:
        metrics = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert metrics["image_auroc"] == 1.0
    assert metrics["image_ap"] == 1.0
    assert metrics["image_f1"] == 1.0
    # no network ran, so there is no evaluation count to report
    assert "nfe" not in metrics
    assert "nfe" not in res.stdout
    # no `score` manifest beside the scores: the run that made them is unknown
    lines = (tmp_path / "out" / "manifest").read_text().splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys[0] == "command" and "scores_csv" in keys
    assert not {"scorer", "t_infer", "checkpoint"} & set(keys)


# -- argument parser -------------------------------------------------------------

COMMANDS = ["gen", "train", "score", "eval", "toy", "bench"]
FLAGS = ["--config", "c.cfg", "--seed", "3", "--t", "50", "--scorer", "ddim", "--out", "o"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_parses_the_five_flags(command):
    for argv in ([command, *FLAGS], [*FLAGS, command], [*FLAGS[:4], command, *FLAGS[4:]]):
        args = cli._build_parser().parse_args(argv)
        assert (args.command, args.config, args.seed, args.t, args.scorer, args.out) == (
            command, "c.cfg", "3", "50", "ddim", "o"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        [],
        ["--out", "o"],
        ["score", "--scorer", "bogus"],
        ["score", "--nope", "1"],
    ],
    ids=["unknown-command", "no-command", "flags-only", "bogus-scorer", "unknown-flag"],
)
def test_bad_command_line_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "irfad: error:" in capsys.readouterr().err


def test_help_lists_commands_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for word in [*COMMANDS, *FLAGS[::2]]:
        assert word in text


def test_flags_before_the_command_run_it(tmp_path, capsys):
    cfg = write_config(tmp_path / "gen.cfg", data="blobs", n_train=4, n_test=4)
    out = tmp_path / "o"
    assert cli.main(["--seed", "5", "--out", str(out), "--config", cfg, "gen"]) == 0
    manifest = (out / "manifest").read_text()
    assert manifest.startswith("command=gen\n")
    assert "\nseed=5\n" in manifest
    assert load_dataset(out / "test").samples.shape == (4, 4, 8, 8)


# -- failure modes ---------------------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path):
    # normalize_scores and adam_beta1 are retired keys; AdamW's moment rates
    # and eps are trainer constants
    for key in ("no_such_key", "normalize_scores", "adam_beta1"):
        cfg = write_config(tmp_path / "bad.cfg", **{key: "5"})
        res = run_cli("gen", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 2
        assert res.stderr.startswith(f"irfad: error: config: unknown config key '{key}'")
        assert len(res.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "o" / "manifest").exists()


def _insert_line(path, index, line):
    lines = path.read_text().splitlines()
    lines.insert(index, line)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("place, code", [("config", 2), ("split", 3), ("score-run", 3)])
def test_line_without_equals_exits_with_its_line_number(place, code, tiny_blob_run, tmp_path, capsys):
    root, _, run_cfg, *_ = tiny_blob_run
    split = tmp_path / "split"
    save_dataset(load_dataset(root / "data" / "test"), split)
    checkpoint = str(root / "run" / "checkpoint.bin")
    if place == "score-run":
        scored = tmp_path / "scored"
        assert cli.main(["score", "--config", run_cfg, "--out", str(scored)]) == 0
        cfg = write_config(tmp_path / "c.cfg", data=split, scores_csv=scored / "scores.csv")
        broken = scored / "manifest"
    else:
        cfg = write_config(tmp_path / "c.cfg", data=split, checkpoint=checkpoint)
        broken = Path(cfg) if place == "config" else split / "manifest"
    _insert_line(broken, 2, "infer_batch 64")
    capsys.readouterr()
    out = tmp_path / "o"
    assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == code
    kind = "config" if code == 2 else "data"
    assert capsys.readouterr().err == (
        f"irfad: error: {kind}: {broken}:3: expected key=value, got 'infer_batch 64'\n"
    )
    assert not (out / "manifest").exists()


@pytest.mark.parametrize("fault", ["normal-with-mask-pixel", "masks-below-the-field"])
def test_split_breaking_a_mask_invariant_exits_3_before_scoring(fault, tiny_blob_run, tmp_path, capsys):
    root, *_ = tiny_blob_run
    split = load_dataset(root / "data" / "test")
    assert split.labels[0] == 0 and split.masks.shape[1:] == (32, 32)
    save_dataset(split, tmp_path / "split")
    masks = split.masks.copy()
    if fault == "normal-with-mask-pixel":
        masks[0, 5, 5] = 1
        needle = "normal sample with positive mask pixels in annotated set"
    else:  # 4x4 masks for 8x8 fields
        masks = masks[:, ::8, ::8]
        _insert_line(tmp_path / "split" / "manifest", 99, "mask_shape=4,4")  # the last value wins
        needle = "masks (4, 4) are smaller than the fields (8, 8)"
    (tmp_path / "split" / "masks" / "masks.bin").write_bytes(masks.tobytes())
    cfg = write_config(
        tmp_path / "c.cfg", data=tmp_path / "split", checkpoint=root / "run" / "checkpoint.bin"
    )
    out = tmp_path / "o"
    assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"irfad: error: data: {needle}\n"
    assert not (out / "eval.csv").exists()


def test_split_of_neither_vectors_nor_fields_exits_3_at_load(tmp_path, capsys):
    # 32-entry vectors rewritten as (4, 8) samples: the same bytes, a shape no scorer takes
    save_dataset(Dataset(np.ones((6, 32)), np.zeros(6, dtype=np.uint8), None), tmp_path / "split")
    _insert_line(tmp_path / "split" / "manifest", 99, "shape=4,8")  # the last value wins
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", data=tmp_path / "split", epochs=1, hidden="8")
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "irfad: error: data: unsupported sample shape (4, 8): "
        "need (d,) vectors or (c, h, w) fields\n"
    )
    assert not out.exists()


def test_train_on_a_split_with_abnormal_labels_exits_3(tiny_blob_run, tmp_path, capsys):
    root, *_ = tiny_blob_run
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", data=root / "data" / "test", epochs=1, hidden="8")
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "irfad: error: data: training data holds 6 abnormal samples\n"
    assert not out.exists()


def test_split_shape_is_refused_before_its_files_are_opened(tmp_path, capsys):
    save_dataset(Dataset(np.ones((6, 32)), np.zeros(6, dtype=np.uint8), None), tmp_path / "split")
    _insert_line(tmp_path / "split" / "manifest", 99, "shape=4,8")
    (tmp_path / "split" / "samples.bin").unlink()
    cfg = write_config(tmp_path / "c.cfg", data=tmp_path / "split", epochs=1, hidden="8")
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(
        "irfad: error: data: unsupported sample shape (4, 8):"
    )


@pytest.mark.parametrize(
    "command, config, code",
    [
        ("train", {"data": "absent"}, 3),
        ("score", {"data": "absent", "checkpoint": "absent.bin"}, 3),
        ("eval", {}, 2),
    ],
    ids=["train", "score", "eval"],
)
def test_a_command_refused_on_its_inputs_creates_no_out(command, config, code, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", **{k: tmp_path / v for k, v in config.items()})
    out = tmp_path / "a" / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("irfad: error: ")
    assert not (tmp_path / "a").exists()


def test_missing_dataset_exits_3(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg", data=str(tmp_path / "absent"), checkpoint="x"
    )
    res = run_cli("train", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.strip().startswith("irfad: error: data:")


def test_eval_on_nan_sample_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    split = load_dataset(root / "data" / "test")
    split.samples[5, 0, 0, 0] = np.nan
    save_dataset(split, tmp_path / "nan-split")
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "nan-split"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.strip().startswith("irfad: error: data:")
    assert "non-finite" in res.stderr


@pytest.mark.parametrize("scorer", SCORER_KINDS)
def test_score_refuses_non_finite_scores_before_any_output(scorer, tiny_blob_run, tmp_path, capsys):
    root, *_ = tiny_blob_run
    split = load_dataset(root / "data" / "test")
    split.samples[7] = 1e200  # finite, so the loader takes it; its score is not
    save_dataset(split, tmp_path / "split")
    cfg = write_config(
        tmp_path / "c.cfg", data=tmp_path / "split", checkpoint=root / "run" / "checkpoint.bin"
    )
    out = tmp_path / "o"
    assert cli.main(["score", "--config", cfg, "--scorer", scorer, "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("irfad: error: numeric: non-finite"), lines
    assert not (out / "scores.csv").exists()
    assert not (out / "manifest").exists()


def test_eval_with_nan_checkpoint_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    raw = (root / "run" / "checkpoint.bin").read_bytes()
    bad = tmp_path / "nan.bin"
    bad.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(bad)
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.strip().startswith("irfad: error: data:")
    assert "non-finite" in res.stderr


def test_eval_with_non_binary_label_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    split = load_dataset(root / "data" / "test")
    save_dataset(split, tmp_path / "split")
    labels = bytearray((tmp_path / "split" / "labels.bin").read_bytes())
    labels[0] = 2
    (tmp_path / "split" / "labels.bin").write_bytes(bytes(labels))
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "split"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.strip().startswith("irfad: error: data:")


def test_eval_with_nan_score_exits_3(tmp_path):
    _, test = gen_toy(0)
    save_dataset(test, tmp_path / "ds")
    scores_path = tmp_path / "scores.csv"
    rows = ["id,s,s_diff,s_nll"] + [f"{i},{0.5 if i else 'nan'},," for i in range(len(test))]
    scores_path.write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "c.cfg", data=str(tmp_path / "ds"), scores_csv=str(scores_path)
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.strip().startswith("irfad: error: data:")
    assert "non-finite" in res.stderr


def test_eval_with_undecodable_manifest_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    save_dataset(load_dataset(root / "data" / "test"), tmp_path / "split")
    manifest = bytearray((tmp_path / "split" / "manifest").read_bytes())
    manifest[10] ^= 0x80  # no longer UTF-8
    (tmp_path / "split" / "manifest").write_bytes(bytes(manifest))
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "split"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert res.stderr.strip().startswith("irfad: error: data:")
    assert len(res.stderr.strip().splitlines()) == 1


def test_eval_with_undecodable_scores_csv_exits_3(tmp_path):
    _, test = gen_toy(0)
    save_dataset(test, tmp_path / "ds")
    scores_path = tmp_path / "scores.csv"
    rows = [b"id,s\xff,s_diff,s_nll"] + [f"{i},0.5,,".encode() for i in range(len(test))]
    scores_path.write_bytes(b"\n".join(rows) + b"\n")
    cfg = write_config(
        tmp_path / "c.cfg", data=str(tmp_path / "ds"), scores_csv=str(scores_path)
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert res.stderr.strip().startswith("irfad: error: data:")
    assert "UTF-8" in res.stderr


@pytest.mark.parametrize(
    "header, ids, code",
    [
        ("id,s", [str(i) for i in range(32)], 0),
        ("s", None, 0),
        ("id,s", [str(i) for i in reversed(range(32))], 3),
        ("id,s", ["0", "0"] + [str(i) for i in range(2, 32)], 3),
        ("id,s", [f"{i}.0" for i in range(32)], 3),
    ],
    ids=["in-order", "no-id-column", "reversed", "duplicated", "non-integer"],
)
def test_eval_scores_csv_ids_must_run_in_row_order(header, ids, code, tmp_path):
    # rows 5984..6015 of the toy test split: 16 normal, then 16 abnormal
    _, test = gen_toy(0)
    split = Dataset(
        samples=test.samples[5984:6016], labels=test.labels[5984:6016], masks=None
    )
    save_dataset(split, tmp_path / "ds")
    scores = split.labels + 0.25
    if ids is None:
        rows = [repr(v) for v in scores.tolist()]
    else:
        rows = [f"{i},{v!r}" for i, v in zip(ids, scores.tolist())]
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("\n".join([header, *rows]) + "\n")
    cfg = write_config(
        tmp_path / "c.cfg", data=str(tmp_path / "ds"), scores_csv=str(scores_path)
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == code, res.stderr
    if code:
        assert res.stderr.strip().startswith("irfad: error: data:")
        assert "in row order" in res.stderr
        assert not (tmp_path / "o" / "manifest").exists()
    else:
        assert "image_auroc  1.0" in res.stdout


@pytest.mark.parametrize(
    "row_7, needle",
    [
        ("7,0.25,,", None),
        ("7,0.25", None),
        ("", None),
        ("7", "row 8 has 1 fields, needs 2"),
        ("7,0.25,," + "0" * 200_000, "malformed CSV"),
    ],
    ids=["full", "no-components", "blank-line", "no-score", "field-over-csv-limit"],
)
def test_eval_scores_csv_rows(row_7, needle, tmp_path):
    # rows 5984..6015 of the toy test split: 16 normal ones scored 0.25,
    # then 16 abnormal ones scored 1.25
    _, test = gen_toy(0)
    split = Dataset(
        samples=test.samples[5984:6016], labels=test.labels[5984:6016], masks=None
    )
    save_dataset(split, tmp_path / "ds")
    rows = [f"{i},{v!r},," for i, v in enumerate((split.labels + 0.25).tolist())]
    if row_7:
        rows[7] = row_7
    else:
        rows.insert(7, "")  # a blank line is skipped, as csv.DictReader skips it
    scores_path = tmp_path / "scores.csv"
    scores_path.write_text("\n".join(["id,s,s_diff,s_nll", *rows]) + "\n")
    cfg = write_config(
        tmp_path / "c.cfg", data=str(tmp_path / "ds"), scores_csv=str(scores_path)
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    if needle:
        assert res.returncode == 3, res.stderr
        assert_one_error_line(res, "data")
        assert needle in res.stderr
        assert not (tmp_path / "o" / "manifest").exists()
    else:
        assert res.returncode == 0, res.stderr
        assert "image_auroc  1.0" in res.stdout


def test_undecodable_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"data = blobs\nn_train = 4\xff\n")
    res = run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip().startswith("irfad: error: config:")
    assert len(res.stderr.strip().splitlines()) == 1


def test_negative_inference_step_exits_2(tmp_path):
    cfg = write_config(tmp_path / "t.cfg", t_infer=-1)
    for args in (("--t", "-7"), ("--config", cfg)):
        out = tmp_path / args[0].strip("-")
        res = run_cli("toy", *args, "--out", str(out))
        assert res.returncode == 2, res.stderr
        assert res.stderr.strip().startswith("irfad: error: config:")
        assert "t_infer" in res.stderr
        assert not (out / "manifest").exists()


def assert_one_error_line(res, kind):
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith(f"irfad: error: {kind}:"), res.stderr


@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_exits_3(inside, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    out = taken / "sub" if inside else taken
    cfg = write_config(tmp_path / "c.cfg", data="blobs", n_train=4, n_test=4)
    res = run_cli("gen", "--config", cfg, "--out", str(out))
    assert res.returncode == 3, res.stderr
    assert_one_error_line(res, "data")
    assert taken.read_text() == "keep me\n"


@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-file"])
def test_out_naming_a_file_is_refused_before_the_command_runs(inside, tmp_path, monkeypatch):
    taken = tmp_path / "taken"
    taken.write_text("keep me\n")
    monkeypatch.setitem(cli._COMMANDS, "gen", lambda cfg: pytest.fail("the command ran"))
    out = taken / "sub" if inside else taken
    assert cli.main(["gen", "--out", str(out)]) == 3


def test_checkpoint_naming_a_directory_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(tmp_path)
    )
    out = tmp_path / "o"
    res = run_cli("score", "--config", cfg, "--out", str(out))
    assert res.returncode == 3, res.stderr
    assert_one_error_line(res, "data")
    assert not (out / "manifest").exists()
    assert not (out / "scores.csv").exists()


def test_config_naming_a_directory_exits_2(tmp_path):
    out = tmp_path / "o"
    res = run_cli("gen", "--config", str(tmp_path), "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert_one_error_line(res, "config")
    assert not (out / "manifest").exists()


@pytest.mark.parametrize(
    "command, values, kind, needle",
    [
        ("gen", dict(data="blobs", seed=-1), "config", "seed"),
        ("gen", dict(data="blobs", seed=2**64), "config", "seed"),
        ("train", dict(hidden="16,,16"), "config", "empty entry"),
        ("train", dict(hidden=""), "config", "empty entry"),
        ("gen", dict(data="blobs", n_train=4, n_test=4, blob_amplitude="inf"), "usage", "amplitude"),
        ("gen", dict(data="blobs", n_train=4, n_test=4, blob_amplitude="nan"), "usage", "amplitude"),
        *(("eval", dict(fpr_limit=v), "config", "fpr_limit") for v in ("0", "-1", "nan", "inf", "1.5")),
    ],
    ids=["seed-negative", "seed-2^64", "hidden-empty-entry", "hidden-empty",
         "amplitude-inf", "amplitude-nan", "fpr-limit-0", "fpr-limit-negative",
         "fpr-limit-nan", "fpr-limit-inf", "fpr-limit-1.5"],
)
def test_bad_config_value_exits_2(command, values, kind, needle, tmp_path):
    cfg = write_config(tmp_path / "c.cfg", **values)
    out = tmp_path / "o"
    res = run_cli(command, "--config", cfg, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert_one_error_line(res, kind)
    assert needle in res.stderr
    assert not (out / "manifest").exists()
    assert not (out / "train").exists()


def test_seed_range_is_checked_where_it_enters():
    assert resolve_config(None, {"seed": str(2**64 - 1)}).seed == 2**64 - 1
    for seed in ("-1", str(2**64), str(2**70)):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(None, {"seed": seed})
    for seed in (-1, 2**64):
        with pytest.raises(ParameterError):
            make_rng(seed, "x")


def test_fpr_limit_is_checked_where_it_enters():
    for limit in (1.0, 0.3, 5e-324):
        assert resolve_config(None, {"fpr_limit": repr(limit)}).fpr_limit == limit
    for limit in ("0", "-0.0", "-1", "nan", "inf", "1.5"):
        with pytest.raises(ConfigError, match="fpr_limit"):
            resolve_config(None, {"fpr_limit": limit})


def test_gen_without_generator_exits_2(tmp_path):
    res = run_cli("gen", "--out", str(tmp_path / "o"))
    assert res.returncode == 2


def test_training_divergence_exits_4(tmp_path):
    train, _ = gen_toy(1)
    small = Dataset(
        samples=train.samples[:16], labels=train.labels[:16], masks=None, role="train"
    )
    save_dataset(small, tmp_path / "ds")
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "ds"), epochs=3, batch_size=8,
        hidden="8,8", embed_dim=4, lr=1e150,
    )
    res = run_cli("train", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 4
    assert res.stderr.strip().startswith("irfad: error: numeric:")


def test_a_gradient_square_past_float32_range_exits_4_with_one_line(tmp_path):
    # samples of about 1e20 are finite in float32, but the output layer's
    # gradient squared is not, so AdamW's float32 second moment refuses it
    train, _ = gen_toy(1)
    big = Dataset(
        samples=train.samples[:16] * 1e20, labels=train.labels[:16], masks=None, role="train"
    )
    save_dataset(big, tmp_path / "ds")
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "ds"), epochs=3, batch_size=8, hidden="8,8", embed_dim=4,
    )
    res = run_cli("train", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 4
    assert res.stderr.splitlines() == [
        "irfad: error: numeric: training diverged at epoch 1: "
        "AdamW second moment is past float32's range"
    ]


def test_non_finite_learning_rate_exits_2(tmp_path):
    train, _ = gen_toy(1)
    small = Dataset(
        samples=train.samples[:16], labels=train.labels[:16], masks=None, role="train"
    )
    save_dataset(small, tmp_path / "ds")
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "ds"), epochs=1, batch_size=8,
        hidden="8,8", embed_dim=4, lr="nan",
    )
    res = run_cli("train", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert "learning rate" in res.stderr
    assert not (tmp_path / "o" / "checkpoint.bin").exists()


def _with_header(raw, header):
    """Checkpoint bytes `raw` with its header replaced by `header`."""
    hlen = int.from_bytes(raw[8:12], "little")
    return raw[:8] + len(header).to_bytes(4, "little") + header + raw[12 + hlen :]


def test_score_with_float_header_field_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    raw = (root / "run" / "checkpoint.bin").read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = re.sub(rb"(?m)^m=(\d+)$", rb"m=\1.0", raw[12 : 12 + hlen])
    bad = tmp_path / "float-m.bin"
    bad.write_bytes(_with_header(raw, header))
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(bad)
    )
    res = run_cli("score", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert_one_error_line(res, "data")
    assert re.search(r"bad header \(m: cannot parse '\d+\.0'\)", res.stderr), res.stderr


def test_score_with_a_10000_character_header_value_prints_one_short_line(
    tiny_blob_run, tmp_path
):
    root, *_ = tiny_blob_run
    raw = (root / "run" / "checkpoint.bin").read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = re.sub(rb"(?m)^beta_start=.*$", b"beta_start=" + b"x" * 10_000, raw[12 : 12 + hlen])
    bad = tmp_path / "long-beta.bin"
    bad.write_bytes(_with_header(raw, header))
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(bad)
    )
    res = run_cli("score", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert_one_error_line(res, "data")
    assert len(res.stderr.encode("utf-8")) < 300, res.stderr
    assert "beta_start: cannot parse 'xxx" in res.stderr


@pytest.mark.parametrize(
    "header", [b"[" * 200_000, b"d=\xff\n"], ids=["brackets", "not-utf8"]
)
def test_score_with_a_header_that_is_not_key_value_text_exits_3(header, tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_with_header((root / "run" / "checkpoint.bin").read_bytes(), header))
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(bad)
    )
    out = tmp_path / "o"
    res = run_cli("score", "--config", cfg, "--out", str(out))
    assert res.returncode == 3, res.stderr
    assert_one_error_line(res, "data")
    assert not (out / "manifest").exists()


def assert_one_short_error_line(res, kind):
    """One `irfad: error:` line, under 300 bytes however long the input was."""
    assert_one_error_line(res, kind)
    assert len(res.stderr.encode()) < 300, res.stderr[:400]


def test_score_quotes_a_cut_of_a_long_header_line(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    raw = (root / "run" / "checkpoint.bin").read_bytes()
    (tmp_path / "bad.bin").write_bytes(_with_header(raw, b"[" * 200_000))
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(tmp_path / "bad.bin")
    )
    res = run_cli("score", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr[:400]
    assert_one_short_error_line(res, "data")
    assert f"got {'[' * 80!r}... (200000 characters)" in res.stderr


def test_config_error_quotes_a_cut_of_a_long_value(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", lr="x" * 10_000)
    res = run_cli("gen", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr[:400]
    assert_one_short_error_line(res, "config")
    assert f"bad value for 'lr': {'x' * 80!r}... (10000 characters)" in res.stderr


def test_eval_quotes_a_cut_of_a_long_score_cell(tmp_path):
    _, test = gen_toy(0)
    split = Dataset(samples=test.samples[:4], labels=test.labels[:4], masks=None)
    save_dataset(split, tmp_path / "ds")
    rows = ["id,s", "0,0.5", "1," + "x" * 10_000, "2,0.5", "3,0.5"]
    (tmp_path / "scores.csv").write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "c.cfg", data=str(tmp_path / "ds"), scores_csv=str(tmp_path / "scores.csv")
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr[:400]
    assert_one_short_error_line(res, "data")
    assert "row 2 has bad score value 'xxx" in res.stderr
    assert not (tmp_path / "o" / "manifest").exists()


def test_cli_import_loads_no_json():
    """Every text header irfad reads or writes is key=value: nothing imports json."""
    probe = "import sys, irfad.cli; print('json' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_scorer_flag_selects_baseline_with_empty_components(tiny_blob_run):
    root, *_ = tiny_blob_run
    cfg = write_config(  # no save_maps: a baseline scorer has no maps to save
        root / "ddim.cfg",
        data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        infer_batch=64,
    )
    res = run_cli(
        "score", "--config", cfg, "--scorer", "ddim", "--t", "50",
        "--out", str(root / "scored-ddim"),
    )
    assert res.returncode == 0, res.stderr
    with open(root / "scored-ddim" / "scores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert all(r["s_diff"] == "" and r["s_nll"] == "" for r in rows)
    assert all(float(r["s"]) >= 0 for r in rows)
    manifest = (root / "scored-ddim" / "manifest").read_text()
    assert "scorer=ddim" in manifest and "t_infer=50" in manifest


def test_eval_from_scores_csv_names_the_score_run(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    checkpoint = str(root / "run" / "checkpoint.bin")
    cfg = write_config(
        tmp_path / "score.cfg", data=str(root / "data" / "test"), checkpoint=checkpoint,
    )
    scored = tmp_path / "scored"
    res = run_cli("score", "--config", cfg, "--scorer", "ddim", "--t", "50", "--out", str(scored))
    assert res.returncode == 0, res.stderr
    cfg = write_config(  # the eval config names no scorer, step or checkpoint
        tmp_path / "eval.cfg", data=str(root / "data" / "test"),
        scores_csv=str(scored / "scores.csv"),
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "manifest").read_text().splitlines()
    manifest = dict(line.split("=", 1) for line in lines)
    assert manifest["command"] == "eval"
    assert manifest["scorer"] == "ddim"
    assert manifest["t_infer"] == "50"
    assert manifest["checkpoint"] == checkpoint
    assert len(lines) == len(manifest)  # each key once


def test_manifest_embeds_resolved_config(tiny_blob_run):
    root, *_ = tiny_blob_run
    manifest = (root / "run" / "manifest").read_text()
    assert "command=train" in manifest
    assert "seed=3" in manifest
    assert "epochs=8" in manifest


@pytest.mark.parametrize("command", ["gen", "train", "score", "eval", "toy", "bench"])
def test_manifest_names_its_command(command, tiny_blob_run, tmp_path):
    root, train_cfg, run_cfg, *_ = tiny_blob_run
    written = {
        "gen": dict(data="blobs", n_train=4, n_test=4),
        "toy": dict(epochs=1),
        "bench": dict(
            data=str(root / "data" / "test"),
            checkpoint=str(root / "run" / "checkpoint.bin"),
            infer_batch=64, recon_steps=2, bench_repeats=1,
        ),
    }
    if command in written:
        cfg = write_config(tmp_path / "c.cfg", **written[command])
    else:
        cfg = train_cfg if command == "train" else run_cfg
    out = tmp_path / "out"
    res = run_cli(command, "--config", cfg, "--out", str(out), "--seed", "3")
    assert res.returncode == 0, res.stderr
    text = (out / "manifest").read_text()
    assert text.startswith(f"command={command}\n")
    # a command that scores records the step it scored at: the data's default, capped at T
    step = {"score": 500, "eval": 500, "toy": 250, "bench": 500}.get(command, 0)
    assert f"\nt_infer={step}\n" in text


def test_eval_copies_the_default_step_of_the_score_run(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    cfg = write_config(
        tmp_path / "score.cfg", data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
    )
    scored = tmp_path / "scored"
    res = run_cli("score", "--config", cfg, "--out", str(scored))
    assert res.returncode == 0, res.stderr
    assert "at t=500" in res.stdout
    assert "\nt_infer=500\n" in (scored / "manifest").read_text()
    cfg = write_config(
        tmp_path / "eval.cfg", data=str(root / "data" / "test"),
        scores_csv=str(scored / "scores.csv"),
    )
    res = run_cli("eval", "--config", cfg, "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert "\nt_infer=500\n" in (tmp_path / "out" / "manifest").read_text()


def test_eval_refuses_a_bad_score_manifest_before_any_output(tiny_blob_run, tmp_path, capsys):
    root, *_ = tiny_blob_run
    cfg = write_config(
        tmp_path / "score.cfg", data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
    )
    scored = tmp_path / "scored"
    assert cli.main(["score", "--config", cfg, "--out", str(scored)]) == 0
    with open(scored / "manifest", "a") as fh:
        fh.write("oops\n")
    cfg = write_config(
        tmp_path / "eval.cfg", data=str(root / "data" / "test"),
        scores_csv=str(scored / "scores.csv"),
    )
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["eval", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("irfad: error: data:") and "expected key=value" in captured.err
    assert not (out / "eval.csv").exists() and not (out / "manifest").exists()


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"])
def test_line_break_in_a_value_is_a_config_error(brk, tmp_path, capsys):
    out = tmp_path / f"nl{brk}x"
    assert cli.main(["score", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("irfad: error: config:") and "line break" in err
    assert not out.exists()
    with pytest.raises(ConfigError, match="line break"):
        resolve_config(None, {"seed": f"5{brk}"})


def test_gen_count_beyond_memory_exits_with_its_kind(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "c.cfg", data="blobs", n_train=2**70)
    assert cli.main(["gen", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err.startswith("irfad: error: usage:")

    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "gen_blobs", refused)
    cfg = write_config(tmp_path / "c.cfg", data="blobs", n_train=2**40)
    assert cli.main(["gen", "--config", cfg, "--out", str(tmp_path / "b")]) == 3
    err = capsys.readouterr().err
    assert err == "irfad: error: data: Unable to allocate 8.00 TiB\n"
    assert not (tmp_path / "b" / "manifest").exists()


@pytest.mark.parametrize(
    "command, key, kind",
    [("train", "T", "usage"), ("train", "hidden", "usage"), ("train", "embed_dim", "usage"),
     ("score", "up_height", "config"), ("score", "up_width", "config")],
)
def test_size_past_the_address_space_exits_2(command, key, kind, tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    if command == "train":
        values = dict(data=root / "data" / "train", epochs=1, hidden=16, embed_dim=8)
    else:
        values = dict(data=root / "data" / "test", checkpoint=root / "run" / "checkpoint.bin",
                      save_maps="true")
    cfg = write_config(tmp_path / "c.cfg", **{**values, key: 2**70})
    out = tmp_path / "o"
    res = run_cli(command, "--config", cfg, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert_one_error_line(res, kind)
    assert "addressable size" in res.stderr
    assert not (out / "manifest").exists()
    assert not (out / "scores.csv").exists()


# -- run tables ------------------------------------------------------------------

# Normal draws, any magnitude from subnormal to near the largest double, and
# both zeros.
_FIELD = st.one_of(
    st.floats(-4.0, 4.0),
    st.tuples(st.floats(1e-320, 1e308), st.booleans()).map(lambda t: -t[0] if t[1] else t[0]),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16, sys.float_info.max]),
)


@pytest.mark.parametrize(
    "s_diff",
    [[0.0] * 5, [-0.0] * 5, [0.0, 0.0, -0.0, 0.0, 0.0]],
    ids=["all-zero", "all-negative-zero", "one-negative-zero"],
)
def test_scores_csv_constant_column_keeps_the_row_writers_bytes(s_diff, tmp_path):
    # a column of one repeated value is formatted once; -0.0 is not 0.0
    s = np.array([1.5, -2.0, 0.25, 3.0, 1e-300])
    table = ScoreTable(s, np.array(s_diff), s - np.array(s_diff))
    cli._write_scores(str(tmp_path), table)
    written = (tmp_path / "scores.csv").read_bytes()
    assert written == scores_csv_rows(table)
    assert written.count(b"-0.0,") == sum(np.signbit(s_diff))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_run_tables_keep_the_row_writers_bytes(data):
    n = data.draw(st.integers(1, 40), label="rows")
    column = st.lists(_FIELD, min_size=n, max_size=n).map(np.array)
    s = data.draw(column, label="s")
    if data.draw(st.booleans(), label="irf"):
        table = ScoreTable(s, data.draw(column), data.draw(column))
    else:
        table = ScoreTable(s)
    split = Dataset(
        samples=data.draw(column).reshape(n, 1),
        labels=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        masks=None,
    )
    fields = [
        (ScoreTable(s, deltas=data.draw(column).reshape(n, 1, 1, 1)), kind)
        for kind in ("mean_path", "noisy_state")
    ]
    log = TrainLog(data.draw(column).tolist(), data.draw(column).tolist())
    with tempfile.TemporaryDirectory() as out:
        cli._write_scores(out, table)
        cli._write_trajectories(out, split, fields)
        cli._write_trainlog(out, log)
        path = Path(out)
        assert (path / "scores.csv").read_bytes() == scores_csv_rows(table)
        assert (path / "trajectories.tsv").read_bytes() == trajectories_tsv_rows(
            split.samples, split.labels, fields
        )
        assert (path / "trainlog.csv").read_bytes() == trainlog_csv_rows(
            log.epoch_losses, log.epoch_seconds
        )
        back = cli._read_scores_csv(str(path / "scores.csv"))
    assert np.all(back == table.s)
    assert back.tobytes() == table.s.tobytes()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_table_bytes_match_the_row_writer(data):
    n = data.draw(st.integers(1, 30), label="rows")
    floats = st.lists(_FIELD, min_size=n, max_size=n).map(np.array)
    k = data.draw(st.integers(2, 3), label="grid width")
    grid = data.draw(st.lists(st.lists(_FIELD, min_size=k, max_size=k), min_size=n, max_size=n))
    columns = [np.array(grid).T[data.draw(st.integers(0, k - 1), label="strided")]]  # as bench
    kinds = ["float", "repeat", "copy", "zero-sign", "constant", "uint8", "int64", "range",
             "list"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=7)):
        earlier = [c for c in columns if isinstance(c, np.ndarray) and c.dtype == np.float64]
        if kind == "float":
            columns.append(data.draw(floats))
        elif kind == "repeat":
            columns.append(data.draw(st.sampled_from(earlier)))
        elif kind == "copy":
            columns.append(data.draw(st.sampled_from(earlier)).copy())
        elif kind == "zero-sign":  # equal in value to an earlier column, not in bits
            col = data.draw(st.sampled_from(earlier)).copy()
            col[data.draw(st.integers(0, n - 1))] = 0.0
            columns.append(col)
            columns.append(np.where(col == 0.0, -col, col))
        elif kind == "constant":  # one value in every row, but a zero may flip sign in one
            col = np.full(n, data.draw(_FIELD))
            if data.draw(st.booleans(), label="flip"):
                i = data.draw(st.integers(0, n - 1))
                col[i] = -col[i] if col[i] == 0.0 else col[i]
            columns.append(col)
        elif kind in ("uint8", "int64"):
            ints = st.integers(*((0, 255) if kind == "uint8" else (-(2**63), 2**63 - 1)))
            columns.append(np.array(data.draw(st.lists(ints, min_size=n, max_size=n)), kind))
        elif kind == "range":
            columns.append(range(n))
        else:
            words = st.text("abcdefgh-_.", min_size=1, max_size=6)
            columns.append(data.draw(st.lists(words, min_size=n, max_size=n)))
    name, sep = data.draw(st.sampled_from([("t.csv", ","), ("t.tsv", "\t")]), label="file")
    header = [f"c{j}" for j in range(len(columns))]
    rows = [[_fmt(col[i]) for col in columns] for i in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, name)
        cli._write_table(str(path), header, columns)
        assert path.read_bytes() == _csv_bytes(header, rows, sep)


def test_import_loads_no_scipy():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, irfad.cli; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
