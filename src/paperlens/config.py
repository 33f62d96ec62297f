"""Global configuration: one JSON file, every field overridable by flag."""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

from .atomic import PaperlensError, from_json, read_json
from .provider import ProviderConfig
from .runner import RunnerConfig


class ConfigError(PaperlensError):
    """Raised for unreadable or malformed config files."""


@dataclass(frozen=True)
class GlobalConfig:
    """Everything the CLI needs to wire the pipeline together."""

    provider: ProviderConfig = ProviderConfig()
    runner: RunnerConfig = RunnerConfig()
    prompts_dir: str | None = None
    threshold: float = 0.85

    def __post_init__(self) -> None:
        t = self.threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 < t <= 1:
            raise ConfigError(f"threshold must be a number in (0, 1], got {t!r}")
        object.__setattr__(self, "threshold", float(t))


# The GlobalConfig fields that hold a nested config object, by name.
_SECTIONS = {f.name: type(f.default) for f in fields(GlobalConfig) if is_dataclass(f.default)}

#: Every name ``apply_overrides`` accepts, mapped to the section holding it
#: (None for a top-level field).
OVERRIDABLE: dict[str, str | None] = {
    **{f.name: None for f in fields(GlobalConfig) if f.name not in _SECTIONS},
    **{f.name: section for section, cls in _SECTIONS.items() for f in fields(cls)},
}


#: RunnerConfig fields that only an ``annotate`` flag sets, with that flag.
_FLAG_ONLY = {"output_dir": "--out", "resume": "--resume", "skip_oversize": "--skip-oversize"}


def _build(cls, raw: dict, where: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown option(s) {sorted(unknown)}")
    try:
        return from_json(cls, raw)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | Path | None = None) -> GlobalConfig:
    """Load configuration from a JSON file, or the defaults when no file is named.

    Missing sections take their defaults.
    """
    if path is None:
        return GlobalConfig()
    raw = read_json(path, ConfigError)
    unknown = set(raw) - {f.name for f in fields(GlobalConfig)}
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")

    sections = {name: _build(cls, raw.get(name, {}), f"{path}: {name}") for name, cls in _SECTIONS.items()}
    for name, flag in _FLAG_ONLY.items():
        if name in raw.get("runner", {}):
            raise ConfigError(f"{path}: runner: {name} is not read from a file; use `annotate {flag}`")
    return _build(GlobalConfig, {**raw, **sections}, str(path))


def apply_overrides(config: GlobalConfig, **overrides) -> GlobalConfig:
    """Apply non-None flag overrides onto a loaded config.

    Provider and runner fields are addressed by their own names (see
    ``OVERRIDABLE``); unknown names raise to catch wiring mistakes early.
    """
    top: dict[str, object] = {}
    nested: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    for name, value in overrides.items():
        if value is None:
            continue
        if name not in OVERRIDABLE:
            raise ConfigError(f"unknown config override {name!r}")
        section = OVERRIDABLE[name]
        if section is None:
            top[name] = value
        else:
            nested[section][name] = value
    try:
        for section, kwargs in nested.items():
            top[section] = replace(getattr(config, section), **kwargs)
        return replace(config, **top)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
