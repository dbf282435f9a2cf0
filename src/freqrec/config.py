"""Run configuration: defaults, file loading, overrides, fingerprints.

A config is one JSON document; every field has a default.  The `synth`,
`pretrain` and `training` sections (with `model.d_id` and the `tfm`
filter fields) take theirs from the dataclasses they configure, and every
other field from the signature of the function it configures (`init_backbone`,
`init_fusion_mlp`, `ingest`, `build_split`, `text_surrogate_embeddings`,
`evaluate` and `draw_candidates` for the `eval` section,
`trace_spectral_profile`, `theorem1_probe`).  A value from a file must
have the type of its default; an override (`--set section.key=value`) is
text parsed to that type, whatever a file set before it.  Both merge
through one walker.  The effective (fully merged) document is serialized
into JSON artifacts and is a checkpoint's one model description, checked
on load as a file is (`checked_config`), so a run is always reproducible
from its own outputs.
The fingerprint is a short hash of the effective document (which holds
no file locations): artifacts stamped with the same fingerprint were
produced under the same semantics, which is what `evaluate` checks
before mixing inputs.
Every bound on a single value is one row of `BOUNDS`; explicit G-LPF
coefficients must be finite numbers, and the `synth`, `analysis` (its
theorem-probe range and rho), `tfm`, `glpf` and `backbone` sections must
pass their consumers' checks, so no command stamps artifacts with a
config that a later stage would reject, that trains nothing or that ranks
nothing.
"""

import copy
import hashlib
import inspect
import json
import math
from dataclasses import asdict

from freqrec.analysis import check_probe_settings, theorem1_probe, trace_spectral_profile
from freqrec.dataset import FORMATS, SPLIT_FLOOR, SynthConfig, build_split, ingest
from freqrec.errors import InputError
from freqrec.evalharness import draw_candidates, evaluate
from freqrec.glpf import APPLY_TO, PolyFilterSpec
from freqrec.model.embeddings import D_TEXT_FLOOR, PretrainConfig, text_surrogate_embeddings
from freqrec.model.network import ACTIVATIONS, check_heads, init_backbone, init_fusion_mlp
from freqrec.model.training import TrainConfig
from freqrec.tfm import TemporalFilter


def _section(cls, *outside):
    """A dataclass's defaults as a config section, minus the fields that
    other sections supply."""
    return {k: v for k, v in asdict(cls()).items() if k not in outside}


def _kwargs(fn):
    """A function's keyword defaults."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


_BACKBONE, _MLP = _kwargs(init_backbone), _kwargs(init_fusion_mlp)
_SPLIT, _PROBE = _kwargs(build_split), _kwargs(theorem1_probe)

DEFAULTS = {
    "dataset": {
        "format": _kwargs(ingest)["format"],
        "min_interactions": _SPLIT["min_interactions"],
        "max_seq_len": _SPLIT["max_seq_len"],
    },
    "synth": _section(SynthConfig),
    "pretrain": _section(PretrainConfig, "dim"),     # dim is model.d_id
    "model": {
        "d_id": PretrainConfig.dim,
        "d_text": _kwargs(text_surrogate_embeddings)["d_text"],
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
        **asdict(TemporalFilter.spec),    # cutoff, order
        "residual": TemporalFilter.residual,
        "causal_safe": TemporalFilter.causal_safe,
    },
    "training": _section(TrainConfig),
    "eval": {**_kwargs(evaluate), **_kwargs(draw_candidates)},     # k, n_candidates, seed
    "analysis": {
        "n_bands": _kwargs(trace_spectral_profile)["n_bands"],
        "theorem_trials": _PROBE["trials"],
        "theorem_t_min": _PROBE["t_range"][0],
        "theorem_t_max": _PROBE["t_range"][1],
        "theorem_rho": _PROBE["rho"],
        "theorem_seed": _PROBE["seed"],
    },
}

# the values config load accepts, by dotted key: "in" the set the key's
# consumer defines, or a finite number ">" or ">=" the bound (the dataset
# and d_text floors are those build_split and text_surrogate_embeddings
# enforce)
BOUNDS = {
    "dataset.format": ("in", FORMATS), "dataset.min_interactions": (">=", SPLIT_FLOOR),
    "dataset.max_seq_len": (">=", SPLIT_FLOOR), "synth.seed": (">=", 0),
    "pretrain.window": (">=", 1), "pretrain.negatives": (">=", 0), "pretrain.epochs": (">=", 1),
    "pretrain.lr": (">", 0.0), "pretrain.seed": (">=", 0), "pretrain.chunk": (">=", 1),
    "model.d_id": (">=", 1), "model.d_text": (">=", D_TEXT_FLOOR), "model.d_model": (">=", 1),
    "model.mlp_seed": (">=", 0), "model.activation": ("in", ACTIVATIONS),
    "backbone.layers": (">=", 1), "backbone.seed": (">=", 0), "backbone.ffn_mult": (">=", 1),
    "glpf.apply_to": ("in", APPLY_TO),
    "training.lr": (">", 0.0), "training.batch_size": (">=", 1), "training.epochs": (">=", 1),
    "training.patience": (">=", 0), "training.n_negatives": (">=", 1),
    "training.seed": (">=", 0), "training.weight_decay": (">=", 0.0),
    "eval.k": (">=", 1), "eval.n_candidates": (">=", 1), "eval.seed": (">=", 0),
    "analysis.n_bands": (">=", 1), "analysis.theorem_trials": (">=", 1),
    "analysis.theorem_t_min": (">=", 3), "analysis.theorem_seed": (">=", 0),
}


class _Setting(str):
    """A --set value: text that takes the type of its key's default."""


def _merge(base, override, defaults=DEFAULTS, path=""):
    """base with override merged over it, each leaf checked against (or, a
    --set text, parsed to) the type of its default, whatever base holds."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise InputError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise InputError(f"config key {path + key!r} must be a section")
            out[key] = _merge(base[key], value, defaults[key], path + key + ".")
        else:
            out[key] = _coerce(value, defaults[key], path + key)
    return out


def checked_config(document):
    """The effective config of a JSON document: the defaults with the
    document merged over them, refused unless every value passes its
    checks."""
    if not isinstance(document, dict):
        raise InputError(f"a config must be a JSON object, got {document!r}")
    effective = _merge(DEFAULTS, document)
    _check_values(effective)
    return effective


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
        document = _Setting(raw) if isinstance(raw, str) else raw
        for key in reversed(dotted.split(".")):
            document = {key: document}
        effective = _merge(effective, document)
    return checked_config(effective)


def _check_values(config):
    for key, (op, bound) in BOUNDS.items():
        section, leaf = key.split(".")
        value = config[section][leaf]
        if op == "in":
            if value not in bound:
                raise InputError(f"config key {key!r} must be one of {', '.join(bound)}, "
                                 f"got {value!r}")
        elif not (math.isfinite(value) and (value > bound if op == ">" else value >= bound)):
            raise InputError(f"config key {key!r} must be a finite number {op} {bound}, "
                             f"got {value!r}")
    coeffs = config["glpf"]["coefficients"]
    if coeffs is not None and not (
            isinstance(coeffs, list) and coeffs
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    and math.isfinite(c) for c in coeffs)):
        raise InputError("config key 'glpf.coefficients' must be null or a non-empty "
                         f"list of finite numbers, got {coeffs!r}")
    a = config["analysis"]
    for section, check, *args in (
            ("synth", lambda: SynthConfig(**config["synth"])),
            ("analysis", check_probe_settings, a["theorem_rho"],
             (a["theorem_t_min"], a["theorem_t_max"])),
            ("tfm", TemporalFilter.from_config, config["tfm"]),
            ("glpf", PolyFilterSpec.from_config, config["glpf"]),
            ("backbone", check_heads, config["model"]["d_model"], config["backbone"]["heads"])):
        try:
            check(*args)
        except InputError as exc:
            raise InputError(f"config section {section!r}: {exc}") from None


def _typed(value, default, dotted):
    """value, if it has the type of the key's default: ints pass for floats,
    bools never pass for numbers, and a null default takes any value."""
    if default is None:
        return value
    if isinstance(default, bool) or isinstance(value, bool):
        ok = isinstance(default, bool) and isinstance(value, bool)
    elif isinstance(default, float):
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise InputError(f"config key {dotted!r} must be a {type(default).__name__}, "
                         f"got {value!r}")
    return value


def _coerce(raw, default, dotted):
    """raw as the type of the key's default: a --set value is parsed to it,
    and any other value must have it already."""
    if isinstance(raw, _Setting):
        raw = str(raw)
        if isinstance(default, bool):
            if raw.lower() in ("1", "true", "on", "yes"):
                return True
            if raw.lower() in ("0", "false", "off", "no"):
                return False
            raise InputError(f"cannot parse boolean for {dotted!r}: {raw!r}")
        if isinstance(default, int) and not isinstance(default, bool):
            try:
                return int(raw)
            except ValueError as exc:
                raise InputError(f"cannot parse integer for {dotted!r}: {raw!r}") from exc
        if isinstance(default, float):
            try:
                return float(raw)
            except ValueError as exc:
                raise InputError(f"cannot parse number for {dotted!r}: {raw!r}") from exc
        if default is None:
            try:
                return json.loads(raw)
            except json.JSONDecodeError as exc:
                raise InputError(f"cannot parse JSON for {dotted!r}: {raw!r}") from exc
    return _typed(raw, default, dotted)


def canonical_json(config):
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def fingerprint(config):
    """12-hex-digit hash of the effective config."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]
