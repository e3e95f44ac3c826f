"""One-step diffusion anomaly detection via inverse residual fields.

Train a denoising diffusion model on normal data, then score test samples
from the residual field produced by a single network evaluation. Includes
multi-step reconstruction and inversion baselines, exact evaluation
metrics, synthetic datasets, and a batch CLI.
"""

from .data import BlobParams, Dataset, gen_blobs, gen_toy, load_dataset, save_dataset
from .irf import IrfResult, irf_mean, irf_noisy
from .metrics import EvalReport, aupro, auroc, average_precision, f1_max, throughput
from .net import (
    EvalCounter,
    NoisePredictor,
    load_checkpoint,
    predict_noise,
    save_checkpoint,
    time_embedding,
)
from .pipeline import Scorer, evaluate_scorer
from .schedule import NoiseSchedule, linear_schedule, mean_path, q_sample
from .scoring import ImageScore, ScoreMap, bilinear_upsample, image_score, score_map
from .trainer import TrainConfig, TrainLog, optimizer_step, train

__all__ = [
    "BlobParams",
    "Dataset",
    "EvalCounter",
    "EvalReport",
    "ImageScore",
    "IrfResult",
    "NoisePredictor",
    "NoiseSchedule",
    "ScoreMap",
    "Scorer",
    "TrainConfig",
    "TrainLog",
    "aupro",
    "auroc",
    "average_precision",
    "bilinear_upsample",
    "evaluate_scorer",
    "f1_max",
    "gen_blobs",
    "gen_toy",
    "image_score",
    "irf_mean",
    "irf_noisy",
    "linear_schedule",
    "load_checkpoint",
    "load_dataset",
    "mean_path",
    "optimizer_step",
    "predict_noise",
    "q_sample",
    "save_checkpoint",
    "save_dataset",
    "score_map",
    "throughput",
    "time_embedding",
    "train",
]

__version__ = "0.1.0"
