"""Experiment configuration: a frozen dataclass, a strict flat key-value
file format, and a canonical serialisation used for run snapshots.

File syntax: one ``key = value`` pair per line, ``#`` comments, nested
synthetic-data fields spelled ``synthetic.<field>``. Unknown keys are
errors; so is any invariant violation, reported with the field name.

A field's range is declared on the field, as ``metadata`` (``min``,
``above``, ``below``, ``choices``). Validation checks every key's declared
type and range in one loop, then the rules that span fields. An ``int`` is
accepted in a ``float`` field; a ``bool`` only in a ``bool`` field.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import SyntheticSpec, eval_cut, role_pools

METHODS = ("apromfl", "local", "fediot")


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = field(default="apromfl", metadata={"choices": METHODS})
    seed: int = 0
    rounds: int = field(default=30, metadata={"min": 0})
    local_epochs: int = field(default=5, metadata={"min": 0})
    lr: float = field(default=0.05, metadata={"above": 0})
    batch_size: int = field(default=32, metadata={"min": 1})
    clients_multimodal: int = field(default=3, metadata={"min": 0})
    clients_image: int = field(default=3, metadata={"min": 0})
    clients_text: int = field(default=3, metadata={"min": 0})
    # K, also the local clustering size
    num_global_prototypes: int = field(default=10, metadata={"min": 1})
    completion_top_o: int = field(default=10, metadata={"min": 1})
    tau: float = field(default=0.5, metadata={"above": 0})
    lmr_weight: float = field(default=0.01, metadata={"min": 0})
    beta1: float = field(default=1.0, metadata={"min": 0})
    beta2: float = field(default=1.0, metadata={"min": 0})
    nu_max: float = field(default=10.0, metadata={"min": 1})
    distill_tau: float = field(default=1.0, metadata={"above": 0})
    alpha: float = field(default=0.1, metadata={"above": 0})
    mapping_layers: int = field(default=3, metadata={"choices": (1, 3)})
    hidden_dim: int = field(default=64, metadata={"min": 1})
    embed_dim: int = field(default=16, metadata={"min": 1})
    encoder_kind: str = field(
        default="projection", metadata={"choices": ("projection", "identity")}
    )
    encoder_dim: int = field(default=32, metadata={"min": 1})
    # below 1: every run evaluates on a shared holdout
    eval_fraction: float = field(default=0.2, metadata={"above": 0, "below": 1})
    disjoint_role_classes: bool = False
    workers: int = field(default=1, metadata={"min": 1})
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    @property
    def num_clients(self) -> int:
        return self.clients_multimodal + self.clients_image + self.clients_text

    @property
    def client_counts(self) -> tuple[int, int, int]:
        return (self.clients_multimodal, self.clients_image, self.clients_text)


#: Every config-file key -> its dataclass field, in snapshot order. The
#: synthetic-data fields are spelled ``synthetic.<field>``.
CONFIG_KEYS = {
    prefix + f.name: f
    for prefix, part in (("", ExperimentConfig), ("synthetic.", SyntheticSpec))
    for f in fields(part)
    if f.name != "synthetic"
}

#: Declared field type -> the value types it accepts.
_TYPES = {"str": str, "bool": bool, "int": int, "float": (int, float)}
_TYPES["int | None"] = (int, type(None))

#: Range rule in a field's metadata -> (the test a value fails it by, its wording).
_RULES = {
    "choices": (lambda value, allowed: value not in allowed, "one of"),
    "min": (operator.lt, ">="),
    "above": (operator.le, ">"),
    "below": (operator.ge, "<"),
}


def _items(config: ExperimentConfig):
    """(key, field, value) for every key of :data:`CONFIG_KEYS`."""
    for key, f in CONFIG_KEYS.items():
        part = config.synthetic if key.startswith("synthetic.") else config
        yield key, f, getattr(part, f.name)


def validate_config(config: ExperimentConfig) -> None:
    def fail(name, msg):
        raise ValueError(f"{name}: {msg}")

    for key, f, value in _items(config):
        # a bool is an int to isinstance
        if not isinstance(value, _TYPES[f.type]) or isinstance(value, bool) != (f.type == "bool"):
            fail(key, f"must be of type {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            fail(key, "must be finite")
        for rule, bound in f.metadata.items():
            broken, wording = _RULES[rule]
            if broken(value, bound):
                fail(key, f"must be {wording} {bound}")
    if config.num_clients < 1:
        fail("clients_multimodal", "need at least one client in total")
    if config.clients_multimodal > 0 and config.batch_size < 2:
        fail("batch_size", "must be >= 2 with multimodal clients (retrieval needs 2 pairs)")
    _validate_split(config, fail)


def _validate_split(config: ExperimentConfig, fail) -> None:
    """The checks set-up would otherwise fail without naming a field: the
    evaluation holdout (``data.train_eval_split``) must hold a sample of
    each class, and the training samples must cover every client of each
    partition pool (``data.role_partition``)."""
    spec = config.synthetic
    held_out = eval_cut(spec.samples_per_class, config.eval_fraction)
    if held_out == 0:
        fail(
            "eval_fraction",
            f"holds out int({config.eval_fraction} * {spec.samples_per_class}) = 0 samples "
            "per class, so the evaluation split is empty; raise eval_fraction or "
            "synthetic.samples_per_class",
        )
    train_per_class = spec.samples_per_class - held_out
    pools = role_pools(range(spec.num_classes), config.client_counts, config.disjoint_role_classes)
    for who, classes, clients in pools:
        samples = len(classes) * train_per_class
        if samples < clients:
            fail(
                "synthetic.samples_per_class",
                f"{samples} training samples cannot cover {clients} {who}; raise "
                "samples_per_class or lower the client counts",
            )


def finalize_config(config: ExperimentConfig) -> ExperimentConfig:
    """Resolve derived defaults (the data seed follows the run seed unless
    pinned explicitly) and validate."""
    if config.synthetic.seed is None:
        config = replace(config, synthetic=replace(config.synthetic, seed=config.seed))
    validate_config(config)
    return config


# parsing ---------------------------------------------------------------


def _parse_value(field_obj: dataclasses.Field, raw: str, key: str):
    kind = field_obj.type
    if kind == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "int | None":
            return None if raw.lower() == "none" else int(raw)
    except ValueError:
        raise ValueError(f"{key}: expected {kind}, got {raw!r}") from None
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
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        mapping[key] = _parse_value(CONFIG_KEYS[key], raw, key)
    return mapping


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    top, syn = {}, {}
    for key, value in mapping.items():
        (syn if key.startswith("synthetic.") else top)[CONFIG_KEYS[key].name] = value
    return finalize_config(ExperimentConfig(**top, synthetic=SyntheticSpec(**syn)))


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
    """Canonical snapshot: every key, in table order, one per line."""
    return "".join(f"{key} = {_format_value(value)}\n" for key, _, value in _items(config))
