"""Run configuration: defaults, file loading, overrides, fingerprints.

A config is one JSON document; every field has a default.  The `synth`,
`pretrain` and `training` sections (with `model.d_id`, `eval.seed`,
`eval.n_candidates` and the `tfm` spec fields) take theirs from the
dataclasses they configure, and the `backbone` section (with
`model.d_model`, `mlp_seed` and `activation`) from the signatures of
`init_backbone` and `init_fusion_mlp`.  A value from a file or an
override must have the type of its default.  The effective (fully
merged) document is what gets serialized into JSON artifacts, so a run
is always reproducible from its own outputs.  The fingerprint is a short
hash of the effective document (which holds no file locations):
artifacts stamped with the same fingerprint were produced under the same
semantics, which is what `evaluate` checks before mixing inputs.
Enumerated values are checked against the sets their consuming modules
define, the numeric `pretrain` and `training` fields (and `model.d_id`)
against the RANGES of their dataclasses, `model.d_model`,
`backbone.layers`, `eval.k`, `eval.n_candidates`, `analysis.n_bands` and
`analysis.theorem_trials` must be at least 1,
explicit G-LPF coefficients must be finite numbers, and the `tfm`, `glpf`
and `backbone` sections must pass their consumers' checks, so no command
stamps artifacts with a config that a later stage would reject, that
trains nothing or that ranks nothing.
"""

import copy
import hashlib
import inspect
import json
import math
from dataclasses import asdict

from freqrec.dataset import FORMATS, SynthConfig
from freqrec.errors import InputError
from freqrec.glpf import APPLY_TO, PolyFilterSpec
from freqrec.model.embeddings import PretrainConfig
from freqrec.model.network import ACTIVATIONS, check_heads, init_backbone, init_fusion_mlp
from freqrec.model.training import TrainConfig
from freqrec.tfm import ButterworthSpec


def _section(cls, *outside):
    """A dataclass's defaults as a config section, minus the fields that
    other sections supply."""
    return {k: v for k, v in asdict(cls()).items() if k not in outside}


def _kwargs(fn):
    """A function's keyword defaults."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


_BACKBONE, _MLP = _kwargs(init_backbone), _kwargs(init_fusion_mlp)

DEFAULTS = {
    "dataset": {
        "format": "tsv",
        "min_interactions": 5,
        "max_seq_len": 50,
    },
    "synth": _section(SynthConfig),
    "pretrain": _section(PretrainConfig, "dim"),     # dim is model.d_id
    "model": {
        "d_id": PretrainConfig.dim,
        "d_text": 50,
        "d_model": _BACKBONE["d_model"],
        "mlp_seed": _MLP["seed"],
        "activation": _MLP["activation"],
    },
    "backbone": {
        "layers": _BACKBONE["n_layers"],
        "heads": _BACKBONE["n_heads"],
        "seed": _BACKBONE["seed"],
        "ffn_mult": _BACKBONE["ffn_mult"],
    },
    "glpf": {
        "enabled": True,
        "alpha": 0.3,
        "coefficients": None,   # explicit theta_0..theta_K overrides first-order mode
        "apply_to": "id",       # "id" (offline) or "fused" (filter tokens at use)
    },
    "tfm": {
        "enabled": True,
        **asdict(ButterworthSpec()),    # cutoff, order
        "residual": False,
        "causal_safe": False,
    },
    # eval_seed and eval_candidates are eval.seed and eval.n_candidates
    "training": _section(TrainConfig, "eval_seed", "eval_candidates"),
    "eval": {
        "k": 10,
        "n_candidates": TrainConfig.eval_candidates,
        "seed": TrainConfig.eval_seed,
    },
    "analysis": {
        "n_bands": 4,
        "theorem_trials": 1000,
        "theorem_t_min": 8,
        "theorem_t_max": 64,
        "theorem_rho": 0.5,
        "theorem_seed": 0,
    },
}

# enumerated fields and the values their consumers accept
_CHOICES = {("model", "activation"): ACTIVATIONS, ("dataset", "format"): FORMATS,
            ("glpf", "apply_to"): APPLY_TO}

# bounds on numeric fields, the pretrain and training ones from their
# dataclasses' RANGES: (field -> (op, bound), section, the config key of each
# field that another section supplies)
_RANGED = ((PretrainConfig.RANGES, "pretrain", {"dim": "model.d_id"}),
           (TrainConfig.RANGES, "training", {}),
           ({"d_model": (">=", 1)}, "model", {}),
           ({"layers": (">=", 1)}, "backbone", {}),
           ({"k": (">=", 1), "n_candidates": (">=", 1)}, "eval", {}),
           ({"n_bands": (">=", 1), "theorem_trials": (">=", 1)}, "analysis", {}))


def _merge(base, override, path=""):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise InputError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise InputError(f"config key {path + key!r} must be a section")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = _typed(value, base[key], path + key)
    return out


def load_config(path=None, overrides=None):
    """Effective config: defaults <- file <- dotted-key overrides."""
    effective = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise InputError(f"config {path} must be a JSON object")
        effective = _merge(effective, document)
    for dotted, raw in (overrides or {}).items():
        effective = _apply_override(effective, dotted, raw)
    _check_values(effective)
    return effective


def _check_values(config):
    for (section, key), allowed in _CHOICES.items():
        if config[section][key] not in allowed:
            raise InputError(f"config key '{section}.{key}' must be one of "
                             f"{', '.join(allowed)}, got {config[section][key]!r}")
    for ranges, section, outside in _RANGED:
        for name, (op, bound) in ranges.items():
            key = outside.get(name, f"{section}.{name}")
            where, leaf = key.split(".")
            value = config[where][leaf]
            if not (math.isfinite(value) and (value > bound if op == ">" else value >= bound)):
                raise InputError(f"config key {key!r} must be a finite number {op} {bound}, "
                                 f"got {value!r}")
    coeffs = config["glpf"]["coefficients"]
    if coeffs is not None and not (
            isinstance(coeffs, list) and coeffs
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    and math.isfinite(c) for c in coeffs)):
        raise InputError("config key 'glpf.coefficients' must be null or a non-empty "
                         f"list of finite numbers, got {coeffs!r}")
    for section, check, *args in (
            ("tfm", ButterworthSpec.from_config, config["tfm"]),
            ("glpf", PolyFilterSpec.from_config, config["glpf"]),
            ("backbone", check_heads, config["model"]["d_model"], config["backbone"]["heads"])):
        try:
            check(*args)
        except InputError as exc:
            raise InputError(f"config section {section!r}: {exc}") from None


def _apply_override(config, dotted, raw):
    keys = dotted.split(".")
    node = config
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise InputError(f"unknown config section {dotted!r}")
        node = node[key]
    leaf = keys[-1]
    if leaf not in node:
        raise InputError(f"unknown config key {dotted!r}")
    current = node[leaf]
    node[leaf] = _coerce(raw, current, dotted)
    return config


def _typed(value, current, dotted):
    """value, if it has the type of the key's default: ints pass for floats,
    bools never pass for numbers, and a null default takes any value."""
    if current is None:
        return value
    if isinstance(current, bool) or isinstance(value, bool):
        ok = isinstance(current, bool) and isinstance(value, bool)
    elif isinstance(current, float):
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, type(current))
    if not ok:
        raise InputError(f"config key {dotted!r} must be a {type(current).__name__}, "
                         f"got {value!r}")
    return value


def _coerce(raw, current, dotted):
    if isinstance(raw, str):
        if isinstance(current, bool):
            if raw.lower() in ("1", "true", "on", "yes"):
                return True
            if raw.lower() in ("0", "false", "off", "no"):
                return False
            raise InputError(f"cannot parse boolean for {dotted!r}: {raw!r}")
        if isinstance(current, int) and not isinstance(current, bool):
            try:
                return int(raw)
            except ValueError as exc:
                raise InputError(f"cannot parse integer for {dotted!r}: {raw!r}") from exc
        if isinstance(current, float):
            try:
                return float(raw)
            except ValueError as exc:
                raise InputError(f"cannot parse number for {dotted!r}: {raw!r}") from exc
        if current is None:
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise InputError(f"cannot parse JSON for {dotted!r}: {raw!r}") from exc
    return _typed(raw, current, dotted)


def canonical_json(config):
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def fingerprint(config):
    """12-hex-digit hash of the effective config."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]
