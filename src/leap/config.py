"""Configuration file loading and validation.

One JSON file with six sections: backend, decoding, learning, correction,
tools, and paths. Each section, and the search provider inside ``tools``, is
a ``core.Record`` and decodes through the record codec: the fields name the
accepted keys and their defaults, the annotations give the value types, and
each record checks its own ranges. Unknown keys are rejected, and every error
names the offending ``section.key``. A missing section takes its defaults, so
``Config()`` is the default configuration. The effective config
(``effective_dict``, defaults filled in) round-trips: loading it back gives
the same config.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .core import WIRE_KEYS, Record, _wire, canonical_json
from .errors import ConfigError, SchemaError

__all__ = [
    "BackendConfig",
    "DecodingConfig",
    "LearningConfig",
    "CorrectionConfig",
    "SearchProviderConfig",
    "ToolsConfig",
    "PathsConfig",
    "Config",
    "load_config",
    "config_from_dict",
    "effective_dict",
    "config_hash",
]


def _at_least_one(record: Any, *names: str) -> None:
    for name in names:
        if getattr(record, name) < 1:
            raise SchemaError(f"{name} must be at least 1", field=name)


@dataclass(frozen=True)
class BackendConfig(Record):
    base_url: str = "http://localhost:8000/v1"
    model: str = "local-chat"
    api_key_env: str = "LEAP_API_KEY"
    embed_model: str = "local-embed"
    embed_dim: int = 64

    def __post_init__(self) -> None:
        _at_least_one(self, "embed_dim")


@dataclass(frozen=True)
class DecodingConfig(Record):
    # Teacher-side generation samples at full temperature for diversity;
    # evaluation decodes greedily for reproducibility.
    temperature_learn: float = 1.0
    top_p_learn: float = 1.0
    temperature_eval: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        for name in ("temperature_learn", "temperature_eval"):
            if not 0.0 <= getattr(self, name) <= 2.0:
                raise SchemaError(f"{name} must be in [0, 2]", field=name)
        if not 0.0 < self.top_p_learn <= 1.0:
            raise SchemaError("top_p_learn must be in (0, 1]", field="top_p_learn")
        _at_least_one(self, "max_tokens")


@dataclass(frozen=True)
class LearningConfig(Record):
    """Knobs of the learning loop; the seed fixes all stochastic choices.
    ``concurrency`` claims run at once, in waves (see ``loops``), so output never
    depends on thread scheduling."""

    gamma: float = 1.0
    lam: float = 0.1
    k_reflections: int = 3
    k_precedents_pos: int = 2
    k_precedents_neg: int = 2
    max_steps: int = 10
    memory_cap: int | None = 1400
    seed: int = 0
    concurrency: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise SchemaError(f"gamma {self.gamma} outside [0, 1]", field="gamma")
        if not 0.0 <= self.lam < math.inf:
            raise SchemaError("lambda must be non-negative and finite", field="lambda")
        _at_least_one(self, "k_reflections", "k_precedents_pos", "k_precedents_neg", "max_steps")
        if self.memory_cap is not None and self.memory_cap < 1:
            raise SchemaError("memory_cap must be positive or None", field="memory_cap")
        _at_least_one(self, "concurrency")


@dataclass(frozen=True)
class CorrectionConfig(Record):
    theta_corr: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta_corr):
            raise SchemaError("theta_corr must be finite", field="theta_corr")


@dataclass(frozen=True)
class SearchProviderConfig(Record):
    """A fixture file (``path``) or a generic JSON endpoint (``url`` and field names)."""

    kind: str
    path: str | None = None
    url: str | None = None
    query_param: str = "q"
    results_field: str = "results"
    title_field: str = "title"
    snippet_field: str = "snippet"

    def __post_init__(self) -> None:
        if self.kind not in ("fixture", "http"):
            raise SchemaError('kind must be "fixture" or "http"', field="kind")
        location = "path" if self.kind == "fixture" else "url"
        if getattr(self, location) is None:
            raise SchemaError(f"{self.kind} provider needs a {location}", field=location)


@dataclass(frozen=True)
class ToolsConfig(Record):
    search_provider: SearchProviderConfig | None = None
    search_k: int = 3
    match_threshold: float = 0.80
    match_mode: str = "embedding"
    code_executor: tuple[str, ...] = ("python3", "-c")
    code_timeout_ms: int = 5000
    code_parallelism: int = 1

    def __post_init__(self) -> None:
        if not -1.0 <= self.match_threshold <= 1.0:
            raise SchemaError("match_threshold must be in [-1, 1]", field="match_threshold")
        if self.match_mode not in ("embedding", "llm"):
            raise SchemaError('match_mode must be "embedding" or "llm"', field="match_mode")
        _at_least_one(self, "search_k", "code_timeout_ms", "code_parallelism")


@dataclass(frozen=True)
class PathsConfig(Record):
    prompts_dir: str | None = None
    memory_dir: str = "memory"
    out_dir: str = "out"  # accepted but not read: every command takes --out


@dataclass(frozen=True)
class Config(Record):
    backend: BackendConfig = BackendConfig()
    decoding: DecodingConfig = DecodingConfig()
    learning: LearningConfig = LearningConfig()
    correction: CorrectionConfig = CorrectionConfig()
    tools: ToolsConfig = ToolsConfig()
    paths: PathsConfig = PathsConfig()


def load_config(path: str | Path) -> Config:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: Any) -> Config:
    try:
        return Config.from_dict(raw)
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc


def _wire_dict(items: list[tuple[str, Any]]) -> dict[str, Any]:
    return {WIRE_KEYS.get(k, k): _wire(v) for k, v in items}


def effective_dict(config: Config) -> dict[str, Any]:
    """The full configuration with every default filled in."""
    return asdict(config, dict_factory=_wire_dict)


def config_hash(config: Config) -> str:
    return hashlib.sha256(canonical_json(effective_dict(config)).encode("utf-8")).hexdigest()[:16]
