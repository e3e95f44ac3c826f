import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from irfad import baselines, cli, metrics, pipeline
from irfad.baselines import ddim_invert_batch, reconstruct_batch
from irfad.data import gen_blobs
from irfad.errors import NumericError, ParameterError
from irfad.irf import irf_mean, irf_noisy
from irfad.net import EvalCounter, NoisePredictor, save_checkpoint
from irfad.pipeline import (
    DDIM,
    IRF_MEAN,
    IRF_NOISY,
    RECON,
    ScoreTable,
    Scorer,
    evaluate_scorer,
    pixel_maps,
)
from irfad.rng import make_rng
from irfad.schedule import linear_schedule
from irfad.scoring import image_score, image_scores


@pytest.fixture(scope="module")
def setup():
    schedule = linear_schedule(100)
    train_ds, test_ds = gen_blobs(6, 8, dims=(2, 4, 4), seed=0, upsample_to=(8, 8))
    d = int(np.prod(test_ds.sample_shape))
    net = NoisePredictor.create(d, (16,), 8, schedule, seed=2)
    rng = make_rng(1, "test-pipeline")
    net.params = [rng.standard_normal(p.shape) * 0.1 for p in net.params]
    return schedule, net, test_ds


def test_unknown_scorer_rejected(setup):
    schedule, net, _ = setup
    with pytest.raises(ParameterError, match="unknown scorer 'nope'"):
        Scorer("nope", net, schedule, t_infer=10)
    # a config file's text is quoted cut to its first 80 characters
    with pytest.raises(ParameterError, match=r"'q{80}'\.\.\. \(10000 characters\)"):
        Scorer("q" * 10_000, net, schedule, t_infer=10)


@pytest.mark.parametrize("kind", [IRF_MEAN, DDIM])
@pytest.mark.parametrize("t_infer", [2.5, True, np.array([5]), 0, 101])
def test_scorer_step_must_be_one_integer_in_range(setup, kind, t_infer):
    schedule, net, _ = setup
    with pytest.raises(ParameterError):
        Scorer(kind, net, schedule, t_infer=t_infer)


@pytest.mark.parametrize("kind, steps", [
    (RECON, dict(recon_t_start=50, recon_steps=10**6)),
    (RECON, dict(recon_t_start=50, recon_steps=0)),
    (RECON, dict(recon_t_start=101, recon_steps=3)),
    (RECON, dict(recon_t_start=2.5, recon_steps=1)),
    (DDIM, dict(ddim_steps=101)),
    (DDIM, dict(ddim_steps=0)),
])
def test_baseline_step_settings_are_refused_at_construction(setup, kind, steps):
    schedule, net, _ = setup
    with pytest.raises(ParameterError):
        Scorer(kind, net, schedule, t_infer=10, **steps)
    # another kind's step settings are not read
    other = RECON if kind == DDIM else DDIM
    Scorer(other, net, schedule, t_infer=10, **{"recon_t_start": 50, **steps})


def test_irf_table_matches_per_sample_scores(setup):
    schedule, net, test_ds = setup
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10, batch_size=3)
    table = scorer(test_ds.samples)
    for i in range(len(test_ds)):
        sc = image_score(table.deltas[i])
        assert table.s_diff[i] == sc.s_diff
        assert table.s_nll[i] == sc.s_nll
        assert table.s[i] == table.s_diff[i] + table.s_nll[i]


@pytest.mark.parametrize("kind", [IRF_MEAN, IRF_NOISY, RECON, DDIM])
def test_zero_samples_rejected(setup, kind):
    schedule, net, test_ds = setup
    scorer = Scorer(kind, net, schedule, t_infer=10,
                    recon_t_start=50, recon_steps=2, ddim_steps=2)
    with pytest.raises(ParameterError, match="zero samples"):
        scorer(test_ds.samples[:0])


@pytest.mark.parametrize("kind", [IRF_MEAN, IRF_NOISY, RECON, DDIM])
def test_nan_sample_rejected(setup, kind):
    schedule, net, test_ds = setup
    samples = test_ds.samples.copy()
    samples[3, 1, 2, 0] = np.nan
    scorer = Scorer(kind, net, schedule, t_infer=10, batch_size=3,
                    recon_t_start=50, recon_steps=2, ddim_steps=2)
    with pytest.raises(NumericError):
        scorer(samples)


def test_counter_tracks_per_scorer_cost(setup):
    schedule, net, test_ds = setup
    n = len(test_ds)
    for kind, steps, expected in (
        (IRF_MEAN, None, n),
        (IRF_NOISY, None, n),
        (DDIM, 4, 4 * n),
        (RECON, 5, 5 * n),
    ):
        counter = EvalCounter()
        scorer = Scorer(
            kind, net, schedule, t_infer=10, batch_size=3,
            recon_t_start=50, recon_steps=steps or 1, ddim_steps=steps or 1,
        )
        scorer(test_ds.samples, counter)
        assert counter.count == expected, kind


def test_noisy_scorer_reproducible_per_call(setup):
    schedule, net, test_ds = setup
    scorer = Scorer(IRF_NOISY, net, schedule, t_infer=10, noise_seed=5)
    a = scorer(test_ds.samples)
    b = scorer(test_ds.samples)
    assert np.array_equal(a.s, b.s)
    other = Scorer(IRF_NOISY, net, schedule, t_infer=10, noise_seed=6)(test_ds.samples)
    assert not np.array_equal(a.s, other.s)


def test_pixel_maps_requires_fields(setup):
    schedule, net, test_ds = setup
    table = Scorer(DDIM, net, schedule, t_infer=10, ddim_steps=2)(test_ds.samples)
    with pytest.raises(ParameterError):
        pixel_maps(table, (8, 8))


def test_evaluate_scorer_full_report(setup):
    schedule, net, test_ds = setup
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10, batch_size=4)
    report, table = evaluate_scorer(scorer, test_ds)
    assert report.nfe == len(test_ds)
    assert 0.0 <= report.image_auroc <= 1.0
    assert report.pixel_auroc is not None
    assert report.pixel_aupro is not None
    assert table.deltas.shape == (len(test_ds), 2, 4, 4)


def test_evaluate_scorer_sorts_each_score_set_once(setup, monkeypatch):
    # one sweep for the image scores, one for the pixel maps (7 unshared)
    schedule, net, test_ds = setup
    computed = []
    original = metrics._ranking
    monkeypatch.setattr(
        metrics, "_ranking", lambda s, l: computed.append(s.size) or original(s, l)
    )
    report, _ = evaluate_scorer(Scorer(IRF_MEAN, net, schedule, t_infer=10), test_ds)
    assert computed == [len(test_ds), test_ds.masks.size]
    assert report.pixel_aupro is not None


def test_evaluate_scorer_without_masks_is_image_only(setup):
    schedule, net, test_ds = setup
    from irfad.data import Dataset

    stripped = Dataset(
        samples=test_ds.samples, labels=test_ds.labels, masks=None, role="test"
    )
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10)
    report, _ = evaluate_scorer(scorer, stripped)
    assert report.pixel_auroc is None and report.pixel_aupro is None


def test_baseline_table_has_no_components(setup):
    schedule, net, test_ds = setup
    table = Scorer(DDIM, net, schedule, t_infer=10, ddim_steps=2)(test_ds.samples)
    assert table.s_diff is None and table.s_nll is None and table.deltas is None


def test_score_table_is_frozen(setup):
    schedule, net, test_ds = setup
    table = Scorer(IRF_MEAN, net, schedule, t_infer=10)(test_ds.samples)
    with pytest.raises(FrozenInstanceError):
        table.s = table.s_diff


def test_dataset_dim_mismatch_rejected(setup):
    schedule, net, _ = setup
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=10)
    with pytest.raises(ParameterError):
        scorer(np.zeros((4, 7)))


# -- batches on several threads ----------------------------------------------------

KINDS = (IRF_MEAN, IRF_NOISY, RECON, DDIM)
NFE_PER_SAMPLE = {IRF_MEAN: 1, IRF_NOISY: 1, RECON: 3, DDIM: 2}
MORE_THAN_CORES = (os.cpu_count() or 1) + 3
# 23 rows in batches of 2: 12 batches, the last one a single row
ROWS = make_rng(7, "test-pipeline-rows").standard_normal((23, 2, 4, 4))


def _scorer(net, schedule, kind):
    return Scorer(kind, net, schedule, t_infer=10, batch_size=2, noise_seed=4,
                  recon_t_start=50, recon_steps=3, ddim_steps=2)


def _serial(scorer, samples, counter):
    """The reference: one batch after another on this thread, recon noise
    drawn batch by batch."""
    n = len(samples)
    if scorer.kind in (IRF_MEAN, IRF_NOISY):
        if scorer.kind == IRF_NOISY:
            eps = make_rng(scorer.noise_seed, "score-noisy").standard_normal(samples.shape)
        deltas = np.empty(samples.shape)
        for start, stop in scorer._batches(n):
            if scorer.kind == IRF_MEAN:
                res = irf_mean(scorer.net, scorer.schedule, samples[start:stop],
                               scorer.t_infer, counter)
            else:
                res = irf_noisy(scorer.net, scorer.schedule, samples[start:stop],
                                scorer.t_infer, eps[start:stop], counter)
            deltas[start:stop] = res.delta
        s_diff, s_nll = image_scores(deltas)
        return ScoreTable(s=s_diff + s_nll, s_diff=s_diff, s_nll=s_nll, deltas=deltas)
    X = samples.reshape(n, -1)
    s = np.empty(n)
    rng = make_rng(scorer.noise_seed, "score-recon")
    for start, stop in scorer._batches(n):
        if scorer.kind == RECON:
            noise = rng.standard_normal((scorer.recon_steps, stop - start, X.shape[1]))
            s[start:stop] = reconstruct_batch(scorer.net, scorer.schedule, X[start:stop],
                                              scorer.recon_t_start, scorer.recon_steps,
                                              noise, counter)
        else:
            s[start:stop] = ddim_invert_batch(scorer.net, scorer.schedule, X[start:stop],
                                              scorer.ddim_steps, counter)
    return ScoreTable(s=s)


def _assert_same_bits(got, want):
    for name in ("s", "s_diff", "s_nll", "deltas"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.tobytes() == b.tobytes(), name


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started while the test runs, in start order."""
    names = []

    class Recorded(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return names


def _count(started, pool):
    """Threads of the executor `pool` among the started ones (`pool`_N)."""
    return sum(name.rpartition("_")[0] == pool for name in started)


def _assert_scorer_threads(started, workers, batches):
    """The `workers - 1` loops besides the caller's run on one executor. A
    loop that finds no batch left ends, and its idle thread may take the
    next loop, so up to workers - 1 threads start: at least the first."""
    most = min(workers, batches) - 1
    assert min(most, 1) <= _count(started, "irfad-scorer") <= most


@pytest.mark.parametrize("workers", [1, 2, MORE_THAN_CORES])
@pytest.mark.parametrize("kind", KINDS)
def test_parallel_scorer_matches_the_serial_loop(setup, monkeypatch, started, kind, workers):
    schedule, net, _ = setup
    scorer = _scorer(net, schedule, kind)
    want_counter = EvalCounter()
    want = _serial(scorer, ROWS, want_counter)
    assert want_counter.count == NFE_PER_SAMPLE[kind] * len(ROWS)

    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    counter = EvalCounter()
    counter.count = 5  # the call adds to what the caller counted before
    got = scorer(ROWS, counter)
    _assert_same_bits(got, want)
    assert counter.count == 5 + want_counter.count
    # the calling thread is one worker; several batches draw their noise inline
    _assert_scorer_threads(started, workers, 12)
    assert _count(started, "irfad-scorer") == len(started)
    started.clear()
    scorer(ROWS[:2])  # one batch: no scoring thread, but recon's noise thread takes an idle core
    assert started == (["irfad-noise_0"] if kind == RECON and workers > 1 else [])


@pytest.mark.parametrize("workers", [1, 2, MORE_THAN_CORES])
@pytest.mark.parametrize("rows", [2, 6], ids=["1-batch", "3-batches"])
@pytest.mark.parametrize("kind", KINDS)
def test_noise_producer_starts_only_for_one_recon_batch_with_an_idle_core(
    setup, monkeypatch, started, kind, rows, workers
):
    schedule, net, _ = setup
    scorer = _scorer(net, schedule, kind)
    samples = ROWS[:rows]
    want_counter = EvalCounter()
    want = _serial(scorer, samples, want_counter)
    monkeypatch.setattr(pipeline, "_workers", lambda: workers)
    counter = EvalCounter()
    _assert_same_bits(scorer(samples, counter), want)
    assert counter.count == want_counter.count == NFE_PER_SAMPLE[kind] * rows
    batches = rows // 2
    producer = kind == RECON and batches == 1 and workers > 1
    assert _count(started, "irfad-noise") == producer
    _assert_scorer_threads(started, workers, batches)
    assert _count(started, "irfad-noise") + _count(started, "irfad-scorer") == len(started)


@pytest.mark.parametrize("blas, cores, workers", [(None, 4, 4), (1, 4, 4), (2, 4, 2), (3, 4, 1), (8, 4, 1)])
def test_workers_share_the_cores_with_blas_threads(monkeypatch, blas, cores, workers):
    monkeypatch.setattr(pipeline, "_openblas_get_num_threads", lambda: blas and (lambda: blas))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    assert pipeline._workers() == workers


@pytest.mark.parametrize("blas", ["1", "2"])
def test_workers_read_the_blas_thread_count_numpy_runs_with(blas):
    code = ("from irfad import pipeline; get = pipeline._openblas_get_num_threads(); "
            "print(get() if get else 0, pipeline._workers())")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    threads, workers = map(int, run.stdout.split())
    if threads == 0:
        pytest.skip("NumPy's BLAS here is not an OpenBLAS that can be asked")
    assert threads <= int(blas)
    assert workers == max(1, len(os.sched_getaffinity(0)) // threads)


def test_parallel_scorer_under_fast_thread_switching(setup, monkeypatch):
    schedule, net, _ = setup
    cases = [(_scorer(net, schedule, kind), ROWS) for kind in KINDS]
    # recon on one batch: a producer draws while the chain runs
    cases.append((_scorer(net, schedule, RECON), ROWS[:2]))
    wants = [_serial(scorer, samples, None) for scorer, samples in cases]
    monkeypatch.setattr(pipeline, "_workers", lambda: MORE_THAN_CORES)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        while True:
            for (scorer, samples), want in zip(cases, wants):
                counter = EvalCounter()
                _assert_same_bits(scorer(samples, counter), want)
                assert counter.count == NFE_PER_SAMPLE[scorer.kind] * len(samples)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", KINDS)
def test_parallel_scorer_failure_stops_and_joins_every_thread(setup, monkeypatch, kind):
    schedule, net, _ = setup
    samples = ROWS.copy()
    samples[11, 1, 2, 3] = np.nan  # in the sixth of twelve batches
    monkeypatch.setattr(pipeline, "_workers", lambda: MORE_THAN_CORES)
    before = threading.active_count()
    with pytest.raises(NumericError, match="non-finite network input"):
        _scorer(net, schedule, kind)(samples, EvalCounter())
    assert threading.active_count() == before


def test_parallel_scorer_failure_keeps_the_cli_exit_code(setup, monkeypatch, tmp_path, capsys):
    schedule, net, test_ds = setup
    samples = np.concatenate([test_ds.samples] * 3)
    samples[11, 1, 2, 3] = np.nan  # the split loader would refuse it: inject past it
    split = replace(test_ds, samples=samples, labels=np.tile(test_ds.labels, 3),
                    masks=np.concatenate([test_ds.masks] * 3))
    monkeypatch.setattr(cli, "_load_run_dataset", lambda path: split)
    monkeypatch.setattr(pipeline, "_workers", lambda: MORE_THAN_CORES)
    save_checkpoint(net, tmp_path / "checkpoint.bin")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"T = 100\ninfer_batch = 2\ncheckpoint = {tmp_path / 'checkpoint.bin'}\n")
    before = threading.active_count()
    out = tmp_path / "out"
    assert cli.main(["eval", "--config", str(cfg), "--t", "10", "--out", str(out)]) == 4
    assert threading.active_count() == before
    assert capsys.readouterr().err.startswith("irfad: error: numeric: non-finite network input")
    assert not (out / "eval.csv").exists()


def test_parallel_scorer_interrupt_stops_and_joins_every_thread(setup, monkeypatch):
    schedule, net, _ = setup
    calls = []

    def interrupted(*args):
        calls.append(args)
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        time.sleep(0.01)  # the other thread is mid-batch when the interrupt comes
        return irf_mean(*args)

    monkeypatch.setattr(pipeline, "irf_mean", interrupted)
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _scorer(net, schedule, IRF_MEAN)(ROWS)
    assert threading.active_count() == before
    assert len(calls) < 12  # no thread took a batch after the interrupt


def test_an_interrupt_during_the_join_joins_again_and_is_reraised(monkeypatch):
    release = threading.Event()
    joins = []
    join = threading.Thread.join

    def interrupted_join(self, timeout=None):
        joins.append(self.name)
        if len(joins) == 1:
            raise KeyboardInterrupt  # the task still runs: the join must start again
        release.set()
        join(self, timeout)

    monkeypatch.setattr(threading.Thread, "join", interrupted_join)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        with pipeline._threads(1, "irfad-test") as pool:
            running = pool.submit(release.wait, 10.0)
            queued = pool.submit(release.wait, 10.0)
    assert joins == ["irfad-test_0", "irfad-test_0"]
    assert running.result() is True and queued.cancelled()
    assert threading.active_count() == before
    assert not [t.name for t in threading.enumerate() if t.name.startswith("irfad-")]


# -- the recon noise draw under failure ---------------------------------------------


class DrawFailed(Exception):
    pass


def _paced_draw(monkeypatch, pace):
    """Route each slot's draw on the noise thread through `pace(k)`, called
    once slot k is drawn and before its task ends; returns the slots drawn."""
    slots = []
    make_rng = pipeline.make_rng

    class Paced:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, *, out):
            assert threading.current_thread().name == "irfad-noise_0", \
                "the inline draw ran where the producer should"
            assert out.ndim == 2  # one (rows, d) slot per task
            self.rng.standard_normal(out=out)
            slots.append(len(slots))
            pace(slots[-1])
            return out

    monkeypatch.setattr(pipeline, "make_rng", lambda seed, label: Paced(make_rng(seed, label)))
    return slots


def _block_left(monkeypatch):
    """An event set once a call leaves an executor's block, after the tasks
    that have not started are cancelled and before its threads are joined."""
    left = threading.Event()

    class Watched(ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            left.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Watched)
    return left


def _hold_slot_1(monkeypatch):
    """Hold the draw of slot 1 until the chain has left the block; returns
    the slots drawn and an event set once slot 1 is drawn."""
    left = _block_left(monkeypatch)
    mid_draw = threading.Event()

    def pace(k):
        if k == 1:
            mid_draw.set()
            left.wait(10.0)

    return _paced_draw(monkeypatch, pace), mid_draw


def _recon(net, schedule, steps=8):
    return Scorer(RECON, net, schedule, t_infer=10, batch_size=2, noise_seed=4,
                  recon_t_start=50, recon_steps=steps)


def test_producer_draw_failure_is_reraised_with_its_own_type(setup, monkeypatch, started):
    schedule, net, _ = setup

    def pace(k):
        if k == 1:  # the chain has its jump noise and waits for slot 1
            raise DrawFailed("no more noise")

    _paced_draw(monkeypatch, pace)
    predict = baselines.predict_noise
    steps = []

    def counted(*args):
        steps.append(args[2])
        return predict(*args)

    monkeypatch.setattr(baselines, "predict_noise", counted)
    monkeypatch.setattr(pipeline, "_workers", lambda: MORE_THAN_CORES)
    before = threading.active_count()
    with pytest.raises(DrawFailed, match="no more noise"):
        _recon(net, schedule)(ROWS[:2], EvalCounter())
    assert threading.active_count() == before
    assert started == ["irfad-noise_0"]
    assert len(steps) == 1  # of 8: the chain stopped at slot 1, after its first step


def test_nan_sample_in_a_batch_stops_the_producer(setup, monkeypatch):
    schedule, net, _ = setup
    samples = ROWS[:2].copy()
    samples[1, 0, 0, 0] = np.nan  # the chain fails at its first evaluation
    slots, mid_draw = _hold_slot_1(monkeypatch)
    predict = baselines.predict_noise

    def after_slot_1_started(*args):
        assert mid_draw.wait(10.0)
        return predict(*args)

    monkeypatch.setattr(baselines, "predict_noise", after_slot_1_started)
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    before = threading.active_count()
    with pytest.raises(NumericError, match="non-finite network input"):
        _recon(net, schedule)(samples, EvalCounter())
    assert threading.active_count() == before
    assert slots == [0, 1]  # of 8: no draw started after the block was left


def test_interrupt_on_the_calling_thread_mid_draw_stops_the_producer(setup, monkeypatch):
    schedule, net, _ = setup
    slots, mid_draw = _hold_slot_1(monkeypatch)

    def interrupted(*args):
        assert threading.current_thread() is threading.main_thread()
        assert mid_draw.wait(10.0)
        raise KeyboardInterrupt

    monkeypatch.setattr(baselines, "reconstruct_batch", interrupted)
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        _recon(net, schedule)(ROWS[:2], EvalCounter())
    assert threading.active_count() == before
    assert slots == [0, 1]


# -- the recon noise look-ahead ------------------------------------------------------


def test_one_batch_recon_draws_its_noise_a_bounded_number_of_slots_ahead(
    setup, monkeypatch, started
):
    """With each evaluation slowed, the noise thread runs as far ahead of the
    chain as it may: never more than `_NOISE_AHEAD` slots drawn and not yet
    taken by the chain, and the first evaluation starts after `_NOISE_AHEAD`
    submits, not one per step."""
    schedule, net, _ = setup
    scorer = _recon(net, schedule, steps=8)
    want = _serial(scorer, ROWS[:2], EvalCounter())
    submits, taken, ahead, at_evaluation = [0], [0], [], []
    drawn = _paced_draw(monkeypatch, lambda k: ahead.append(k + 1 - taken[0]))

    class Counted(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submits[0] += 1
            return super().submit(*args, **kwargs)

    reconstruct = baselines.reconstruct_batch

    def counting(net, schedule, x0, t_start, steps, noise, counter):
        def taking():
            for slot in noise:
                taken[0] += 1
                yield slot

        return reconstruct(net, schedule, x0, t_start, steps, taking(), counter)

    predict = baselines.predict_noise

    def slowed(*args):
        at_evaluation.append(submits[0])
        time.sleep(0.02)  # the noise thread draws what it may meanwhile
        ahead.append(len(drawn) - taken[0])
        return predict(*args)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(baselines, "reconstruct_batch", counting)
    monkeypatch.setattr(baselines, "predict_noise", slowed)
    monkeypatch.setattr(pipeline, "_workers", lambda: 2)
    _assert_same_bits(scorer(ROWS[:2]), want)
    assert started == ["irfad-noise_0"]
    assert len(drawn) == taken[0] == submits[0] == 8
    assert len(at_evaluation) == 8
    assert at_evaluation[0] <= pipeline._NOISE_AHEAD, at_evaluation
    assert max(ahead) <= pipeline._NOISE_AHEAD, ahead
