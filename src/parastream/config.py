"""INI-style experiment configuration with line-anchored errors.

The grammar (sections, keys, types, defaults) is documented in
docs/config.md. Unknown keys, unparsable values and bad point lists are
rejected at their line; ExperimentConfig's own checks name no line.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass

from . import metrics
from .channel import ChannelConfig
from .pipeline import DEFAULT_TABLE, ModelConfig, PipelineConfig
from .rng import _is_int

MAX_RANGE_POINTS = 10_000


class ConfigError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_size: int = 16
    corpus_seed: int = 1000
    ppm_dir: str | None = None
    channel_kind: str = "awgn"
    block_len: int = 1
    channel_seed: int = 0
    code: str = DEFAULT_TABLE
    semantic: bool = True
    checkpoint: str | None = None
    init_seed: int = 0
    snr_points: tuple = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
    q_points: tuple = (50,)
    trials: int = 5
    images: int = 8
    out: str = "sweep"

    def __post_init__(self):
        for field, low in (
            ("corpus_seed", 0), ("corpus_size", metrics.WINDOW), ("trials", 1), ("images", 1)
        ):
            value = getattr(self, field)
            if not _is_int(value, low):
                raise ConfigError(f"{field} must be an integer >= {low}, got {value!r}")
        if not (self.snr_points and self.q_points):
            raise ConfigError("need at least one SNR point and one quality")
        try:  # every point's config checks its own fields, so each point runs
            ModelConfig(init_seed=self.init_seed)
            for snr_db in self.snr_points:
                self.point(self.q_points[0], snr_db)
            for q in self.q_points:
                self.point(q, self.snr_points[0])
        except ValueError as exc:
            raise ConfigError(f"bad sweep value: {exc}") from None

    def point(self, q, snr_db) -> PipelineConfig:
        """The PipelineConfig that the sweep point (q, snr_db) runs."""
        return PipelineConfig(
            q=q,
            code=self.code,
            channel=ChannelConfig(
                kind=self.channel_kind,
                snr_db=snr_db,
                block_len=self.block_len,
                seed=self.channel_seed,
            ),
            semantic=self.semantic,
        )


def _parse_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_points(text, cast):
    """Comma list ("2,4,6") or inclusive range ("2:12:2") of at most
    MAX_RANGE_POINTS points, none NaN. A range's start, stop and step are
    finite, and an integer point is finite and whole; a listed SNR may be
    inf."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range needs start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"range start, stop and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("range step must be positive")
        if stop < start:
            raise ValueError(f"empty range: {text!r}")
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_RANGE_POINTS:  # also an overflow to inf
            raise ValueError(f"range {text!r} has more than {MAX_RANGE_POINTS} points")
        points = [start + i * step for i in range(int(steps) + 1)]
    else:
        points = [float(p) for p in text.split(",")]
    if any(math.isnan(v) or (cast is int and math.isinf(v)) for v in points):
        raise ValueError(f"a point is NaN, or infinite where an integer is needed: {text!r}")
    if cast is int and not all(v.is_integer() for v in points):
        raise ValueError(f"a point is not whole where an integer is needed: {text!r}")
    return tuple(cast(v) for v in points)


# (section, key) -> (ExperimentConfig field, value parser)
_SCHEMA = {
    ("corpus", "size"): ("corpus_size", int),
    ("corpus", "seed"): ("corpus_seed", int),
    ("corpus", "ppm_dir"): ("ppm_dir", str),
    ("channel", "kind"): ("channel_kind", str),
    ("channel", "block_len"): ("block_len", int),
    ("channel", "seed"): ("channel_seed", int),
    ("pipeline", "code"): ("code", str),
    ("pipeline", "semantic"): ("semantic", _parse_bool),
    ("model", "checkpoint"): ("checkpoint", str),
    ("model", "init_seed"): ("init_seed", int),
    ("sweep", "snr_db"): ("snr_points", lambda t: _parse_points(t, float)),
    ("sweep", "q"): ("q_points", lambda t: _parse_points(t, int)),
    ("sweep", "trials"): ("trials", int),
    ("sweep", "images"): ("images", int),
    ("sweep", "out"): ("out", str),
}


def _line_of(text, section, key=None):
    """Best-effort line number of a section header or of a key inside it."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        header = re.match(r"\s*\[(.+)\]", raw)
        if header:
            current = header.group(1).strip()
            if key is None and current == section:
                return lineno
            continue
        if key is not None and current == section:
            if re.match(rf"\s*{re.escape(key)}\s*[=:]", raw):
                return lineno
    return None


def parse_config(text) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        errors = getattr(exc, "errors", None)
        if line is None and errors:
            line = errors[0][0]
        raise ConfigError(f"syntax error: {str(exc).splitlines()[0]}", line)

    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            try:
                field, cast = _SCHEMA[(section, key)]
            except KeyError:
                known = section in {s for s, _ in _SCHEMA}
                what = f"unknown key {key!r}" if known else f"unknown section {section!r}"
                raise ConfigError(what, _line_of(text, section, key if known else None))
            try:
                values[field] = cast(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {section}.{key}: {exc}",
                    _line_of(text, section, key),
                )
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def default_config_text() -> str:
    """A commented template covering every key at its default."""
    cfg = ExperimentConfig()
    lines = ["# experiment sweep configuration; see docs/config.md"]
    section = None
    for (sec, key), (field, _) in _SCHEMA.items():
        if sec != section:
            lines.append(f"\n[{sec}]")
            section = sec
        value = getattr(cfg, field)
        if isinstance(value, bool):
            value = "true" if value else "false"
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        if value is None:
            lines.append(f"# {key} =")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
