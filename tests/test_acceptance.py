"""Acceptance gate: every release criterion at its stated tolerance.

Each test records a PASS/FAIL line (printed in the terminal summary) and
then asserts. The heavyweight reference runs come from session fixtures.
"""

import subprocess
import sys

import numpy as np

from irfad.irf import irf_mean, irf_noisy
from irfad.metrics import aupro, auroc, throughput
from irfad.net import EvalCounter, predict_noise
from irfad.pipeline import DDIM, IRF_MEAN, IRF_NOISY, RECON, Scorer, evaluate_scorer
from irfad.rng import make_rng
from irfad.schedule import mean_path, q_sample
from irfad.scoring import bilinear_upsample, feature_scale_maps

from conftest import ACCEPTANCE_LOG
from oracles import (
    ap_exhaustive,
    aupro_exhaustive,
    auroc_pairs,
    blob_covariance,
    f1_exhaustive,
    gaussian_eps_star,
)


def criterion(name: str, ok: bool, detail: str):
    ACCEPTANCE_LOG.append((name, bool(ok), detail))
    assert ok, f"{name}: {detail}"


def test_c1_toy_separation(toy_run):
    value = auroc(toy_run.mean_table.s, toy_run.test.labels)
    ok = value >= 0.95 and toy_run.seconds <= 600.0
    criterion(
        "C1 toy separation",
        ok,
        f"mean-path AUROC={value:.4f} (>=0.95), runtime={toy_run.seconds:.0f}s (<=600s)",
    )


def test_c2_input_convention_ordering(toy_run):
    mean_auroc = auroc(toy_run.mean_table.s, toy_run.test.labels)
    noisy_aurocs = []
    for seed in range(5):
        scorer = Scorer(
            IRF_NOISY,
            toy_run.net,
            toy_run.schedule,
            t_infer=toy_run.t_infer,
            batch_size=256,
            noise_seed=seed,
        )
        table = scorer(toy_run.test.samples)
        noisy_aurocs.append(auroc(table.s, toy_run.test.labels))
    noisy_mean = float(np.mean(noisy_aurocs))
    criterion(
        "C2 input-convention ordering",
        noisy_mean < mean_auroc,
        f"AUROC noisy (5-seed mean)={noisy_mean:.4f} < mean-path={mean_auroc:.4f}",
    )


def test_c3_one_step_property(toy_run):
    n = len(toy_run.test)
    counted = toy_run.mean_counter.count
    criterion(
        "C3 one-step property",
        counted == n,
        f"evaluation counter={counted}, test-set size={n}",
    )


def test_c4_speedup_and_nfe_ratio(toy_run):
    samples = toy_run.test.samples
    irf = Scorer(
        IRF_MEAN, toy_run.net, toy_run.schedule, t_infer=toy_run.t_infer,
        batch_size=256,
    )
    ddim = Scorer(
        DDIM, toy_run.net, toy_run.schedule, t_infer=toy_run.t_infer,
        batch_size=256, ddim_steps=3,
    )
    recon = Scorer(
        RECON, toy_run.net, toy_run.schedule, t_infer=toy_run.t_infer,
        batch_size=256, recon_t_start=500, recon_steps=50, noise_seed=0,
    )
    rate_irf, nfe_irf, _ = throughput(irf, samples, repeats=5)
    rate_ddim, nfe_ddim, _ = throughput(ddim, samples, repeats=5)
    rate_recon, nfe_recon, _ = throughput(recon, samples, repeats=5)
    ratio = rate_irf / rate_ddim
    ok = (
        ratio >= 1.5
        and nfe_irf == len(samples)
        and nfe_ddim == 3 * len(samples)
        and rate_irf > rate_ddim > rate_recon
    )
    criterion(
        "C4 speedup",
        ok,
        f"throughput ratio irf/ddim3={ratio:.2f} (>=1.5), "
        f"NFE {nfe_irf}:{nfe_ddim} (exactly 1:3), "
        f"ordering irf {rate_irf:.0f}/s > ddim {rate_ddim:.0f}/s > recon {rate_recon:.0f}/s",
    )


def test_c5_gradient_correctness():
    from test_grad import ALL_OPS, sweep_op

    for op in ALL_OPS:
        sweep_op(op, instances=100, seed=1)
    criterion(
        "C5 gradient correctness",
        True,
        f"{len(ALL_OPS)} ops x 100 randomized instances vs central differences (rtol 1e-4)",
    )


def test_c6_metric_oracles():
    from test_metrics import random_instance, random_map_instance
    from irfad.metrics import aupro, average_precision, f1_max

    rng = make_rng(10, "acceptance-metrics")
    for _ in range(200):
        scores, labels = random_instance(rng)
        assert auroc(scores, labels) == auroc_pairs(scores, labels)
        assert average_precision(scores, labels) == ap_exhaustive(scores, labels)
        assert f1_max(scores, labels) == f1_exhaustive(scores, labels)
    rng_maps = make_rng(11, "acceptance-aupro")
    for _ in range(200):
        maps, masks = random_map_instance(rng_maps)
        assert aupro(maps, masks, 0.3) == aupro_exhaustive(maps, masks, 0.3)
    criterion(
        "C6 metric oracles",
        True,
        "auroc/AP/F1-max/AU-PRO == brute-force oracles on 200 instances each",
    )


def test_c7_predicted_noise_gaussianity(toy_run):
    normal = toy_run.test.samples[toy_run.test.labels == 0].reshape(-1, 1)
    rng = make_rng(17, "acceptance-gaussianity")
    eps = rng.standard_normal(normal.shape)
    xt = q_sample(toy_run.schedule, normal, toy_run.t_infer, eps)
    out = predict_noise(toy_run.net, xt, toy_run.t_infer)
    mean, var = float(out.mean()), float(out.var())
    ok = abs(mean) <= 0.1 and 0.8 <= var <= 1.2
    criterion(
        "C7 predicted-noise gaussianity",
        ok,
        f"{normal.shape[0]} draws at t={toy_run.t_infer}: |mean|={abs(mean):.4f} (<=0.1), "
        f"var={var:.4f} (in [0.8, 1.2])",
    )


def test_c8_scoring_identities(toy_run):
    table = toy_run.mean_table
    decomposition = np.array_equal(table.s, table.s_diff + table.s_nll)

    # negative log-likelihood against the direct Gaussian log-pdf oracle
    from scipy.stats import norm

    deltas = table.deltas
    logpdf = norm.logpdf(deltas.reshape(len(deltas), -1)).sum(axis=1)
    constant = deltas[0].size / 2.0 * np.log(2.0 * np.pi)
    nll_err = float(np.max(np.abs(table.s_nll - (-logpdf - constant))))

    # zero-noise equivalence of the two input conventions
    subset = toy_run.test.samples[:500]
    equiv = all(
        np.array_equal(
            irf_noisy(
                toy_run.net, toy_run.schedule, x0, toy_run.t_infer, np.zeros_like(x0)
            ).delta,
            irf_mean(toy_run.net, toy_run.schedule, x0, toy_run.t_infer).delta,
        )
        for x0 in subset
    )
    ok = decomposition and nll_err <= 1e-9 and equiv
    criterion(
        "C8 scoring identities",
        ok,
        f"s==s_diff+s_nll on all {table.s.size} samples: {decomposition}; "
        f"max |s_nll - oracle|={nll_err:.2e} (<=1e-9); "
        f"irf_noisy(eps=0) == irf_mean on 500 samples: {equiv}",
    )


def test_c9_pixel_level_pipeline(blob_run):
    report = blob_run.report
    from irfad.data import BlobParams, gen_blobs

    _, zero_test = gen_blobs(2, 1200, anomaly=BlobParams(amplitude=0.0), seed=1)
    zero_table = blob_run.scorer(zero_test.samples)
    zero_auroc = auroc(zero_table.s, zero_test.labels)
    ok = (
        report.pixel_auroc >= 0.9
        and report.pixel_aupro >= 0.7
        and abs(zero_auroc - 0.5) <= 0.05
    )
    criterion(
        "C9 pixel-level pipeline",
        ok,
        f"pixel AUROC={report.pixel_auroc:.4f} (>=0.9), "
        f"AU-PRO={report.pixel_aupro:.4f} (>=0.7), "
        f"zero-amplitude image AUROC={zero_auroc:.4f} (0.5 +/- 0.05)",
    )


def test_c9_gap_to_the_gaussian_optimum(blob_run):
    # Report only, with no bound: normal blob fields are N(0, A A^T), so the
    # Bayes-optimal predictor eps* is Gaussian conditioning. The line tells
    # how far the reference net is from eps* on the mean-path states that
    # C9 scores, and what eps*'s own fields score on C9's metrics.
    test, t = blob_run.test, blob_run.t_infer
    cov = blob_covariance(test.sample_shape)
    states = mean_path(blob_run.schedule, test.samples.reshape(len(test), -1), t)
    optimum = gaussian_eps_star(np.zeros(len(cov)), cov, blob_run.schedule, t, states)
    normal = test.labels == 0
    gap = float(np.mean((predict_noise(blob_run.net, states[normal], t) - optimum[normal]) ** 2))
    scale = float(np.mean(optimum[normal] ** 2))
    maps = bilinear_upsample(feature_scale_maps(optimum.reshape(test.samples.shape)),
                             *test.masks.shape[1:])
    criterion(
        "C9 companion: gap to the Gaussian optimum",
        True,
        f"t={t}, {int(normal.sum())} normal rows: mean squared gap net - eps*={gap:.4g} "
        f"(mean eps*^2={scale:.4g}); eps* fields: pixel AUROC="
        f"{auroc(maps.reshape(-1), test.masks.reshape(-1)):.4f}, "
        f"AU-PRO={aupro(maps, test.masks, 0.3):.4f} (report only)",
    )


def test_c10_determinism(tmp_path):
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text("epochs = 3\n")
    outputs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        res = subprocess.run(
            [
                sys.executable, "-m", "irfad", "toy",
                "--config", str(cfg_path), "--seed", "123", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outputs.append(
            {
                f: (out / f).read_bytes()
                for f in ("checkpoint.bin", "scores.csv", "trajectories.tsv")
            }
        )
    same = {f: outputs[0][f] == outputs[1][f] for f in outputs[0]}
    criterion(
        "C10 determinism",
        all(same.values()),
        "bitwise-identical across two runs: "
        + ", ".join(f"{f}={v}" for f, v in same.items()),
    )


def test_c11_neighbouring_steps(toy_run, blob_run):
    # The abstract's claim: the IRF holds at any step near t*, so the bounds
    # of C1 (toy) and C9 (blobs) hold at t* +- 25 and t* +- 50 as well.
    offsets = (-50, -25, 0, 25, 50)
    toy = []
    for dt in offsets:
        scorer = Scorer(
            IRF_MEAN, toy_run.net, toy_run.schedule,
            t_infer=toy_run.t_infer + dt, batch_size=256,
        )
        toy.append(auroc(scorer(toy_run.test.samples).s, toy_run.test.labels))
    pixel = []
    for dt in offsets:
        scorer = Scorer(
            IRF_MEAN, blob_run.net, blob_run.schedule,
            t_infer=blob_run.t_infer + dt, batch_size=256,
        )
        report, _ = evaluate_scorer(scorer, blob_run.test)
        pixel.append((report.pixel_auroc, report.pixel_aupro))
    spread = max(toy) - min(toy)
    ok = (
        min(toy) >= 0.95
        and spread <= 0.01
        and all(a >= 0.9 and pro >= 0.7 for a, pro in pixel)
    )
    criterion(
        "C11 neighbouring steps",
        ok,
        f"t*{'/'.join(f'{dt:+d}' for dt in offsets)}: "
        f"toy AUROC {'/'.join(f'{v:.4f}' for v in toy)} (>=0.95, spread "
        f"{spread:.4f} <=0.01); blobs pixel AUROC "
        f"{'/'.join(f'{a:.4f}' for a, _ in pixel)} (>=0.9), AU-PRO "
        f"{'/'.join(f'{p:.4f}' for _, p in pixel)} (>=0.7)",
    )
