"""Run configuration: flat key=value files plus CLI overrides.

A config file holds one `key = value` pair per line, read by
`data.read_key_values`: blank lines and `#` comments are ignored, any
other line without `=` is refused with its line number, and a repeated
key keeps its last value. Unknown keys are a hard error. CLI flags take
precedence over file values, which take precedence over the defaults
below. The fully resolved configuration (including the seed) is written
into every run's output manifest so any artifact can be reproduced from
its manifest alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .data import parse_ints, quote, read_key_values
from .errors import ConfigError, DataError
from .rng import SEED_LIMIT


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {quote(value)}")


def _parse_widths(value: str) -> tuple[int, ...]:
    try:
        widths = parse_ints(value)
    except ValueError:
        widths = ()
    if not widths:  # parse_ints reads "" as no entry
        raise ConfigError(f"expected comma-separated integers with no empty entry, got {quote(value)}")
    return widths


@dataclass
class RunConfig:
    """Every tunable of the pipeline; see README for the schema."""

    seed: int = 0
    out: str = "out"
    data: str = ""
    checkpoint: str = ""
    scores_csv: str = ""

    # noise schedule
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    # network
    hidden: tuple[int, ...] = (128, 128, 128)
    embed_dim: int = 64

    # training
    epochs: int = 200
    batch_size: int = 256
    lr: float = 1e-3
    weight_decay: float = 1e-4

    # inference / scoring
    t_infer: int = 0  # 0 = per-command default (toy 250, feature maps 500)
    scorer: str = "irf-mean"
    infer_batch: int = 256
    save_maps: bool = False
    fpr_limit: float = 0.3

    # baselines
    recon_t_start: int = 500
    recon_steps: int = 50
    ddim_steps: int = 3
    bench_repeats: int = 5

    # blob generator
    n_train: int = 512
    n_test: int = 128
    channels: int = 4
    height: int = 8
    width: int = 8
    up_height: int = 32
    up_width: int = 32
    blob_amplitude: float = 3.0
    blob_rows: int = 3
    blob_cols: int = 3

    def set_key(self, key: str, raw: str) -> None:
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {quote(key)}")
        if "\n" in raw or "\r" in raw:  # it could not be written back as one manifest line
            raise ConfigError(f"value for {key!r} holds a line break: {quote(raw)}")
        try:
            value = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {quote(raw)}") from exc
        setattr(self, key, value)

    def items(self) -> list[tuple[str, object]]:
        """(key, value) of every key in declaration order, typed; a manifest
        writes them through `data.format_key_values`."""
        return [(key, getattr(self, key)) for key in _PARSERS]


# every key, in declaration order, and the parser of its default's type
_PARSERS = {
    f.name: {bool: _parse_bool, int: int, float: float, tuple: _parse_widths, str: str}[type(f.default)]
    for f in fields(RunConfig)
}


def load_config_file(path: str | os.PathLike, config: RunConfig) -> RunConfig:
    """Set each `key = value` pair of `path` on `config`; a bad file is a ConfigError."""
    try:
        items = read_key_values(path)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc
    for key, value in items.items():
        config.set_key(key, value)
    return config


def resolve_config(
    config_path: str | None, overrides: dict[str, str]
) -> RunConfig:
    """Defaults <- config file <- CLI overrides, in increasing precedence."""
    config = RunConfig()
    if config_path:
        load_config_file(config_path, config)
    for key, raw in overrides.items():
        if raw is not None:
            config.set_key(key, raw)
    if not 0 <= config.seed < SEED_LIMIT:
        raise ConfigError(f"seed must be in [0, 2^64), got {config.seed}")
    if config.t_infer < 0:
        raise ConfigError(f"t_infer must be >= 0 (0 = default), got {config.t_infer}")
    if not 0.0 < config.fpr_limit <= 1.0:  # also refuses nan
        raise ConfigError(f"fpr_limit must lie in (0, 1], got {config.fpr_limit}")
    return config
