"""Experiment configuration: a frozen dataclass, a strict flat key-value
file format, and a canonical serialisation used for run snapshots.

File syntax: one ``key = value`` pair per line, ``#`` comments, nested
synthetic-data fields spelled ``synthetic.<field>``. Unknown keys are
errors; so is any invariant violation, reported with the field name.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import SyntheticSpec

METHODS = ("apromfl", "local", "fediot")


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "apromfl"
    seed: int = 0
    rounds: int = 30
    local_epochs: int = 5
    lr: float = 0.05
    batch_size: int = 32
    clients_multimodal: int = 3
    clients_image: int = 3
    clients_text: int = 3
    num_global_prototypes: int = 10  # K, also the local clustering size
    completion_top_o: int = 10
    tau: float = 0.5
    lmr_weight: float = 0.01
    beta1: float = 1.0
    beta2: float = 1.0
    nu_max: float = 10.0
    distill_tau: float = 1.0
    alpha: float = 0.1
    mapping_layers: int = 3
    hidden_dim: int = 64
    embed_dim: int = 16
    encoder_kind: str = "projection"
    encoder_dim: int = 32
    eval_fraction: float = 0.2
    disjoint_role_classes: bool = False
    workers: int = 1
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    @property
    def num_clients(self) -> int:
        return self.clients_multimodal + self.clients_image + self.clients_text

    @property
    def client_counts(self) -> tuple[int, int, int]:
        return (self.clients_multimodal, self.clients_image, self.clients_text)


def validate_config(config: ExperimentConfig) -> None:
    def fail(name, msg):
        raise ValueError(f"{name}: {msg}")

    if config.method not in METHODS:
        fail("method", f"must be one of {METHODS}")
    if config.rounds < 0:
        fail("rounds", "must be >= 0")
    if config.local_epochs < 0:
        fail("local_epochs", "must be >= 0")
    if config.lr <= 0:
        fail("lr", "must be > 0")
    if config.batch_size < 1:
        fail("batch_size", "must be >= 1")
    for name in ("clients_multimodal", "clients_image", "clients_text"):
        if getattr(config, name) < 0:
            fail(name, "must be >= 0")
    if config.num_clients < 1:
        fail("clients_multimodal", "need at least one client in total")
    if config.clients_multimodal > 0 and config.batch_size < 2:
        fail("batch_size", "must be >= 2 with multimodal clients (retrieval needs 2 pairs)")
    if config.num_global_prototypes < 1:
        fail("num_global_prototypes", "must be >= 1")
    if config.completion_top_o < 1:
        fail("completion_top_o", "must be >= 1")
    if config.tau <= 0:
        fail("tau", "must be > 0")
    if config.lmr_weight < 0:
        fail("lmr_weight", "must be >= 0")
    for name in ("beta1", "beta2"):
        if getattr(config, name) < 0:
            fail(name, "must be >= 0")
    if config.nu_max < 1:
        fail("nu_max", "must be >= 1")
    if config.distill_tau <= 0:
        fail("distill_tau", "must be > 0")
    if config.alpha <= 0:
        fail("alpha", "must be > 0")
    if config.mapping_layers not in (1, 3):
        fail("mapping_layers", "must be 1 or 3")
    if config.hidden_dim < 1:
        fail("hidden_dim", "must be >= 1")
    if config.embed_dim < 1:
        fail("embed_dim", "must be >= 1")
    if config.encoder_kind not in ("projection", "identity"):
        fail("encoder_kind", "must be 'projection' or 'identity'")
    if config.encoder_dim < 1:
        fail("encoder_dim", "must be >= 1")
    if not 0 < config.eval_fraction < 1:
        fail("eval_fraction", "must be in (0, 1): every run evaluates on a shared holdout")
    if config.workers < 1:
        fail("workers", "must be >= 1")
    try:
        config.synthetic.validate()
    except ValueError as err:
        raise ValueError(str(err)) from None


def finalize_config(config: ExperimentConfig) -> ExperimentConfig:
    """Resolve derived defaults (the data seed follows the run seed unless
    pinned explicitly) and validate."""
    if config.synthetic.seed is None:
        config = replace(config, synthetic=replace(config.synthetic, seed=config.seed))
    validate_config(config)
    return config


# parsing ---------------------------------------------------------------


_TOP_FIELDS = {f.name: f for f in fields(ExperimentConfig) if f.name != "synthetic"}
_SYN_FIELDS = {f.name: f for f in fields(SyntheticSpec)}


def _parse_value(field_obj: dataclasses.Field, raw: str, key: str):
    kind = field_obj.type
    raw = raw.strip()
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "int | None":
        return None if raw.lower() == "none" else int(raw)
    return raw  # str fields


def parse_config_text(text: str) -> dict:
    """Parse flat key-value lines into a {key: typed value} mapping."""
    mapping: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key.startswith("synthetic."):
            sub = key[len("synthetic.") :]
            if sub not in _SYN_FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            mapping[key] = _parse_value(_SYN_FIELDS[sub], raw, key)
        elif key in _TOP_FIELDS:
            mapping[key] = _parse_value(_TOP_FIELDS[key], raw, key)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    top = {k: v for k, v in mapping.items() if not k.startswith("synthetic.")}
    syn = {k[len("synthetic.") :]: v for k, v in mapping.items() if k.startswith("synthetic.")}
    config = ExperimentConfig(**top, synthetic=SyntheticSpec(**syn))
    return finalize_config(config)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load, apply optional overrides, resolve defaults, and validate."""
    mapping = parse_config_text(Path(path).read_text())
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical snapshot: every field, declaration order, one per line."""
    lines = []
    for f in fields(ExperimentConfig):
        if f.name == "synthetic":
            continue
        lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
    for f in fields(SyntheticSpec):
        lines.append(f"synthetic.{f.name} = {_format_value(getattr(config.synthetic, f.name))}")
    return "\n".join(lines) + "\n"
