import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from irfad.data import Dataset, gen_toy, load_dataset, save_dataset


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
    header = (root / "scored" / "maps" / "maps.header").read_text()
    assert "rows=32 cols=32" in header
    blob = (root / "scored" / "maps" / "map_00000.bin").read_bytes()
    assert len(blob) == 32 * 32 * 8
    assert (root / "scored" / "manifest").exists()


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


def test_score_normalized_centres_the_normal_rows(tiny_blob_run):
    root, cfg, cfg2, *_ = tiny_blob_run
    cfg3 = write_config(
        root / "normalized.cfg",
        data=str(root / "data" / "test"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        normalize_scores="true",
    )
    res = run_cli("score", "--config", cfg3, "--out", str(root / "scored-z"))
    assert res.returncode == 0, res.stderr
    with open(root / "scored-z" / "scores.csv") as fh:
        s = np.array([float(r["s"]) for r in csv.DictReader(fh)])
    labels = load_dataset(root / "data" / "test").labels
    assert abs(s[labels == 0].mean()) < 1e-9


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


# -- failure modes ---------------------------------------------------------------


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 5\n")
    res = run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert res.stderr.strip().startswith("irfad: error: config:")
    assert len(res.stderr.strip().splitlines()) == 1


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


def test_score_normalized_without_normal_rows_exits_2(tiny_blob_run, tmp_path):
    # the calibration set (the normal rows) is empty
    root, *_ = tiny_blob_run
    split = load_dataset(root / "data" / "test")
    abnormal = split.labels == 1
    cut = Dataset(
        samples=split.samples[abnormal], labels=split.labels[abnormal],
        masks=split.masks[abnormal], provenance=split.provenance, role="test",
    )
    save_dataset(cut, tmp_path / "abnormal-only")
    cfg = write_config(
        tmp_path / "c.cfg",
        data=str(tmp_path / "abnormal-only"),
        checkpoint=str(root / "run" / "checkpoint.bin"),
        normalize_scores="true",
    )
    res = run_cli("score", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.strip().startswith("irfad: error: usage:")
    assert "zero samples" in res.stderr


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


def test_score_with_float_header_field_exits_3(tiny_blob_run, tmp_path):
    root, *_ = tiny_blob_run
    raw = (root / "run" / "checkpoint.bin").read_bytes()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + hlen])
    header["m"] = float(header["m"])
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    bad = tmp_path / "float-m.bin"
    bad.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :])
    cfg = write_config(
        tmp_path / "c.cfg", data=str(root / "data" / "test"), checkpoint=str(bad)
    )
    res = run_cli("score", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert res.stderr.strip().startswith("irfad: error: data:")
    assert "m must be an integer" in res.stderr


def test_scorer_flag_selects_baseline_with_empty_components(tiny_blob_run):
    root, cfg, cfg2, *_ = tiny_blob_run
    res = run_cli(
        "score", "--config", cfg2, "--scorer", "ddim", "--t", "50",
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
    assert (out / "manifest").read_text().startswith(f"command={command}\n")


def test_import_loads_no_scipy():
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, irfad.cli; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
