"""Configuration file loading and validation.

One JSON file with six sections: backend, decoding, learning, correction,
tools, and paths. Each section is a frozen dataclass, and loading is derived
from it: the fields name the accepted keys and their defaults, the field
annotations give the value types, and each dataclass checks its own ranges.
Unknown keys are rejected. The effective config (``effective_dict``, defaults
filled in) round-trips: loading it back gives the same config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, get_type_hints

from .core import WIRE_KEYS, _wire, canonical_json, wire_value
from .errors import ConfigError, SchemaError
from .loops import LearningConfig

__all__ = [
    "BackendConfig",
    "DecodingConfig",
    "CorrectionConfig",
    "ToolsConfig",
    "PathsConfig",
    "Config",
    "default_config",
    "load_config",
    "effective_dict",
    "config_hash",
]


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = "http://localhost:8000/v1"
    model: str = "local-chat"
    api_key_env: str = "LEAP_API_KEY"
    embed_model: str = "local-embed"
    embed_dim: int = 64

    def __post_init__(self) -> None:
        if self.embed_dim < 1:
            raise SchemaError("embed_dim must be at least 1")


@dataclass(frozen=True)
class DecodingConfig:
    # Teacher-side generation samples at full temperature for diversity;
    # evaluation decodes greedily for reproducibility.
    temperature_learn: float = 1.0
    top_p_learn: float = 1.0
    temperature_eval: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        for name in ("temperature_learn", "temperature_eval"):
            if not 0.0 <= getattr(self, name) <= 2.0:
                raise SchemaError(f"{name} must be in [0, 2]")
        if not 0.0 < self.top_p_learn <= 1.0:
            raise SchemaError("top_p_learn must be in (0, 1]")
        if self.max_tokens < 1:
            raise SchemaError("max_tokens must be at least 1")


@dataclass(frozen=True)
class CorrectionConfig:
    theta_corr: float = 0.0


@dataclass(frozen=True)
class ToolsConfig:
    search_provider: dict | None = None
    search_k: int = 3
    match_threshold: float = 0.80
    match_mode: str = "embedding"
    code_executor: tuple[str, ...] = ("python3", "-c")
    code_timeout_ms: int = 5000
    code_parallelism: int = 1

    def __post_init__(self) -> None:
        provider = self.search_provider
        if provider is not None:
            kind = provider.get("kind")
            if kind not in ("fixture", "http"):
                raise SchemaError('search_provider needs "kind": "fixture" or "http"')
            location = "path" if kind == "fixture" else "url"
            if not isinstance(provider.get(location), str):
                raise SchemaError(f"search_provider ({kind}) needs a string {location}")
        if not -1.0 <= self.match_threshold <= 1.0:
            raise SchemaError("match_threshold must be in [-1, 1]")
        if self.match_mode not in ("embedding", "llm"):
            raise SchemaError('match_mode must be "embedding" or "llm"')
        for name in ("search_k", "code_timeout_ms", "code_parallelism"):
            if getattr(self, name) < 1:
                raise SchemaError(f"{name} must be at least 1")


@dataclass(frozen=True)
class PathsConfig:
    prompts_dir: str | None = None
    memory_dir: str = "memory"
    out_dir: str = "out"  # accepted but not read: every command takes --out


@dataclass(frozen=True)
class Config:
    backend: BackendConfig
    decoding: DecodingConfig
    learning: LearningConfig
    correction: CorrectionConfig
    tools: ToolsConfig
    paths: PathsConfig


def default_config() -> Config:
    return Config(
        backend=BackendConfig(),
        decoding=DecodingConfig(),
        learning=LearningConfig(),
        correction=CorrectionConfig(),
        tools=ToolsConfig(),
        paths=PathsConfig(),
    )


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
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    sections = get_type_hints(Config)
    unknown = set(raw) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    try:
        return Config(
            **{name: _load_section(cls, name, raw.get(name, {})) for name, cls in sections.items()}
        )
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc


def _load_section(cls: type, name: str, obj: Any) -> Any:
    """Build one section from its dataclass: known keys only, typed by annotation."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    hints = get_type_hints(cls)
    field_of_key = {WIRE_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    unknown = set(obj) - set(field_of_key)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return cls(
        **{
            field_of_key[key]: wire_value(hints[field_of_key[key]], value, f"{name}.{key}", None)
            for key, value in obj.items()
        }
    )


def _wire_dict(items: list[tuple[str, Any]]) -> dict[str, Any]:
    return {WIRE_KEYS.get(k, k): _wire(v) for k, v in items}


def effective_dict(config: Config) -> dict[str, Any]:
    """The full configuration with every default filled in."""
    return asdict(config, dict_factory=_wire_dict)


def config_hash(config: Config) -> str:
    return hashlib.sha256(canonical_json(effective_dict(config)).encode("utf-8")).hexdigest()[:16]
