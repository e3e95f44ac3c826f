"""Shared fixtures: the reference toy and blob runs, trained once per session."""

import contextlib
import faulthandler
import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from irfad import (
    BlobParams,
    EvalCounter,
    NoisePredictor,
    TrainConfig,
    evaluate_scorer,
    gen_blobs,
    gen_toy,
    linear_schedule,
    train,
)
from irfad.pipeline import IRF_MEAN, Scorer

# Acceptance criteria log: (criterion, passed, detail), printed after the run.
ACCEPTANCE_LOG = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, ok, detail in ACCEPTANCE_LOG:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{status}] {name}: {detail}")


# The slowest item is C1's: its set-up trains the reference toy run in a
# session fixture and took 22-33 s on a shared 2-core box (pytest
# --durations=0), and no other set-up plus call reached 13 s. A lost wake-up between scoring
# threads, in a test or in a fixture's Scorer call, would hang the whole
# suite, so an item whose set-up, call and teardown together run this long
# ends the process with every thread's traceback on stderr.
HANG_LIMIT_S = 300.0
_TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    """Keep a descriptor of the stderr the suite started with: the
    tracebacks are written when the timer fires, while fd 2 is captured."""
    capture = config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        config.stash[_TERMINAL_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL_STDERR])


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Arm the hang timer around each item's whole protocol, so the session
    and module fixtures it sets up or tears down are covered too."""
    stderr = item.config.stash[_TERMINAL_STDERR]
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True, file=stderr)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def no_irfad_thread_left():
    """Fail any test that leaves a scoring or noise thread (irfad-*) alive."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("irfad-")]
    assert not left, f"threads still alive after the test: {left}"


@pytest.fixture(scope="session")
def toy_run():
    """Reference 1-D run: default schedule/net/training, seed 0."""
    schedule = linear_schedule()
    train_ds, test_ds = gen_toy(0)
    net = NoisePredictor.create(1, (128, 128, 128), 64, schedule, seed=0)
    tic = time.perf_counter()
    net, log = train(net, train_ds, schedule, TrainConfig(seed=0))
    counter = EvalCounter()
    mean_scorer = Scorer(IRF_MEAN, net, schedule, t_infer=250, batch_size=256)
    mean_table = mean_scorer(test_ds.samples, counter)
    seconds = time.perf_counter() - tic
    return SimpleNamespace(
        schedule=schedule,
        train=train_ds,
        test=test_ds,
        net=net,
        log=log,
        t_infer=250,
        mean_scorer=mean_scorer,
        mean_table=mean_table,
        mean_counter=counter,
        seconds=seconds,
    )


@pytest.fixture(scope="session")
def blob_run():
    """Reference feature-map run: default blob generator, wider net, seed 0."""
    schedule = linear_schedule()
    train_ds, test_ds = gen_blobs(512, 128, seed=0)
    d = int(np.prod(train_ds.sample_shape))
    net = NoisePredictor.create(d, (256, 256, 256), 64, schedule, seed=0)
    net, log = train(
        net, train_ds, schedule, TrainConfig(epochs=200, batch_size=64, seed=0)
    )
    scorer = Scorer(IRF_MEAN, net, schedule, t_infer=500, batch_size=256)
    report, table = evaluate_scorer(scorer, test_ds)
    return SimpleNamespace(
        schedule=schedule,
        train=train_ds,
        test=test_ds,
        net=net,
        log=log,
        t_infer=500,
        scorer=scorer,
        report=report,
        table=table,
    )
