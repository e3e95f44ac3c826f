"""The benchmark's tracer finds every binding it wraps.

perfbench/spans.py wraps each public function at the module attribute its
caller looks up, read through ``module.__dict__``. A refactor that moves or
renames one of those bindings would make a traced benchmark run fail; this
test catches that in the ordinary suite, and a traced masked evaluation
checks that the eval spans still fire. It only reads perfbench/.
"""

import os
import sys

import numpy as np
import pytest

from irfad import metrics, pipeline
from irfad.data import gen_blobs
from irfad.net import NoisePredictor
from irfad.schedule import linear_schedule

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
import spans  # noqa: E402

ALL_BINDINGS = sorted(
    {binding for bindings in spans.BINDINGS.values() for binding in bindings}
    | {spans.NFE_BINDING}
)


@pytest.mark.parametrize("module_name, attr", ALL_BINDINGS)
def test_binding_resolves_like_the_tracer(module_name, attr):
    owner, name = spans._resolve(module_name, attr)
    assert callable(owner.__dict__[name]), f"{module_name}.{attr}"


EVAL_SPANS = (
    "metrics.auroc",
    "metrics.average_precision",
    "metrics.f1_max",
    "metrics.aupro",
    "pipeline.pixel_maps",
    "scoring.bilinear_upsample",
)


def test_traced_masked_evaluation_fires_every_eval_span():
    # evaluate_scorer must keep calling the metrics, pixel_maps and the
    # upsampler through the bindings the tracer wraps
    schedule = linear_schedule(100)
    _, test_ds = gen_blobs(4, 8, dims=(2, 4, 4), seed=0, upsample_to=(8, 8))
    net = NoisePredictor.create(32, (16,), 8, schedule, seed=2)
    rng = np.random.default_rng(1)
    net.params = [rng.standard_normal(p.shape) * 0.1 for p in net.params]
    scorer = pipeline.Scorer(pipeline.IRF_MEAN, net, schedule, t_infer=10)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.stage("eval"):
            report, _ = pipeline.evaluate_scorer(scorer, test_ds)
    finally:
        tracer.uninstall()
    assert pipeline.auroc is metrics.auroc  # the originals are back
    assert report.pixel_aupro is not None
    missing = set(EVAL_SPANS) - tracer.fired()
    assert not missing, f"spans that never fired: {sorted(missing)}"
    assert tracer.counts[("eval", "distinct_scores")] > 0
