"""Experiment configs: plain `key = value` files with [section] headers.

Sections are [experiment], [loss], [distribution], [schedule] and [domain].
Each section but [experiment] names a kind, and ``BUILDERS`` maps the kinds
of a section to the objects they build.
`#` starts a comment anywhere on a line, so no value can contain one.
Unknown sections or keys are hard errors so a typo'd experiment never runs
silently with defaults.  serialize_config/parse_config round-trip exactly
(floats are written with repr, which Python reads back bit-for-bit).
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..losses import AucSquare, LeastSquares, QNormHinge, QPowerAbsolute
from ..data import GaussLinReg, ImbalancedGauss, MarginClassif, RealizableLinReg
from ..optim import (Ball, FixedConstant, HorizonConstant, HorizonPoly, PolyDecay,
                     StronglyConvexDecay)

EXPERIMENTS = ("properties", "oracle", "stability-sweep", "rate-fit", "bound-check")
T_RULES = ("equal_n", "n_squared", "n_pow")
TARGETS = ("thm2", "thmD1", "thm6", "thm8", "propD2", "propG2", "propG1")


class ExperimentConfig(NamedTuple):
    experiment: str
    # [experiment]
    n_grid: Tuple[int, ...] = (2, 3)
    T_rule: str = "equal_n"
    T_pow: Optional[float] = None
    replicates: int = 100
    master_seed: int = 0
    out_path: str = "out"
    threads: int = 1
    target: Optional[str] = None        # bound-check only
    slope_gate: Optional[float] = None  # rate-fit only
    delta: float = 0.1                  # propG1 tail level
    epochs: int = 4                     # propG2 passes over the data
    draws: int = 10_000                 # properties draws per checker
    # [loss]
    loss_kind: str = "least_squares"
    loss_q: Optional[float] = None
    # [distribution]
    dist_kind: str = "gauss_lin_reg"
    w_star: Optional[Tuple[float, ...]] = None
    cov: Optional[Tuple[float, ...]] = None
    noise_sd: Optional[float] = None
    flip_prob: Optional[float] = None
    p_plus: Optional[float] = None
    mu_plus: Optional[Tuple[float, ...]] = None
    mu_minus: Optional[Tuple[float, ...]] = None
    cov_plus: Optional[Tuple[float, ...]] = None
    cov_minus: Optional[Tuple[float, ...]] = None
    x_bound: Optional[float] = None
    # [schedule]
    sched_kind: Optional[str] = None
    c: Optional[float] = None
    theta: Optional[float] = None
    eta1: Optional[float] = None
    sigma: Optional[float] = None
    t0: Optional[int] = None
    # [domain]
    domain_kind: str = "none"
    radius: Optional[float] = None


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"expected an integer, got {s!r}") from None


def _parse_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None
    # no key takes an infinite or undefined value; 1e400 overflows to inf
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {s!r}")
    return v


def _parse_list(parse, s: str) -> tuple:
    # every list key needs at least one value: an empty one is no value at all
    values = tuple(parse(tok.strip()) for tok in s.split(",") if tok.strip())
    if not values:
        raise ConfigError("expected a comma-separated list of values, got none")
    return values


def _parse_int_tuple(s: str) -> Tuple[int, ...]:
    return _parse_list(_parse_int, s)


def _parse_float_tuple(s: str) -> Tuple[float, ...]:
    return _parse_list(_parse_float, s)


def _parse_str(s: str) -> str:
    return s


def _show(v) -> str:
    if isinstance(v, tuple):
        return ", ".join(repr(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# section -> config key -> (ExperimentConfig field, parser)
_SCHEMA = {
    "experiment": {
        "kind": ("experiment", _parse_str),
        "n_grid": ("n_grid", _parse_int_tuple),
        "T_rule": ("T_rule", _parse_str),
        "T_pow": ("T_pow", _parse_float),
        "replicates": ("replicates", _parse_int),
        "master_seed": ("master_seed", _parse_int),
        "out_path": ("out_path", _parse_str),
        "threads": ("threads", _parse_int),
        "target": ("target", _parse_str),
        "slope_gate": ("slope_gate", _parse_float),
        "delta": ("delta", _parse_float),
        "epochs": ("epochs", _parse_int),
        "draws": ("draws", _parse_int),
    },
    "loss": {
        "kind": ("loss_kind", _parse_str),
        "q": ("loss_q", _parse_float),
    },
    "distribution": {
        "kind": ("dist_kind", _parse_str),
        "w_star": ("w_star", _parse_float_tuple),
        "cov": ("cov", _parse_float_tuple),
        "noise_sd": ("noise_sd", _parse_float),
        "flip_prob": ("flip_prob", _parse_float),
        "p_plus": ("p_plus", _parse_float),
        "mu_plus": ("mu_plus", _parse_float_tuple),
        "mu_minus": ("mu_minus", _parse_float_tuple),
        "cov_plus": ("cov_plus", _parse_float_tuple),
        "cov_minus": ("cov_minus", _parse_float_tuple),
        "x_bound": ("x_bound", _parse_float),
    },
    "schedule": {
        "kind": ("sched_kind", _parse_str),
        "c": ("c", _parse_float),
        "theta": ("theta", _parse_float),
        "eta1": ("eta1", _parse_float),
        "sigma": ("sigma", _parse_float),
        "t0": ("t0", _parse_int),
    },
    "domain": {
        "kind": ("domain_kind", _parse_str),
        "radius": ("radius", _parse_float),
    },
}

_FIELD_TO_KEY = {field: (section, key)
                 for section, keys in _SCHEMA.items()
                 for key, (field, _) in keys.items()}

def parse_config(text: str) -> ExperimentConfig:
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        field, parser = _SCHEMA[section][key]
        if field in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[field] = parser(value)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {key}: {e}") from None
    if "experiment" not in values:
        raise ConfigError("missing required key `kind` in [experiment]")
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    return parse_config(text)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; keys follow the schema order, defaults included."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (field, _) in keys.items():
            v = getattr(cfg, field)
            if v is None:
                continue
            lines.append(f"{key} = {_show(v)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    # threads and out_path say how/where to run, not what is computed, and
    # results are thread-count invariant — keep them out of the identity
    canon = cfg._replace(threads=1, out_path="out")
    return hashlib.sha256(serialize_config(canon).encode()).hexdigest()[:12]


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; "
                          f"expected one of {EXPERIMENTS}")
    if len(cfg.n_grid) == 0:
        raise ConfigError("n_grid must be nonempty")
    if any(n < 1 for n in cfg.n_grid) or any(
            b <= a for a, b in zip(cfg.n_grid, cfg.n_grid[1:])):
        raise ConfigError(f"n_grid must be ascending positive integers, got {cfg.n_grid}")
    if cfg.T_rule not in T_RULES:
        raise ConfigError(f"unknown T_rule {cfg.T_rule!r}; expected one of {T_RULES}")
    if cfg.T_rule == "n_pow":
        if cfg.T_pow is None or cfg.T_pow <= 0.0:
            raise ConfigError("T_rule = n_pow needs a positive T_pow")
        for n in cfg.n_grid:
            try:
                steps_for(cfg, n)
            except OverflowError:
                raise ConfigError(f"T = ceil(n^T_pow) overflows at n = {n}, "
                                  f"T_pow = {cfg.T_pow}") from None
    if cfg.master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {cfg.master_seed}")
    if cfg.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {cfg.replicates}")
    if cfg.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {cfg.threads}")
    if cfg.draws < 1:
        raise ConfigError(f"draws must be >= 1, got {cfg.draws}")
    if cfg.experiment == "bound-check":
        if cfg.target not in TARGETS:
            raise ConfigError(f"bound-check needs target in {TARGETS}, got {cfg.target!r}")
    for section, table in BUILDERS.items():
        kind = getattr(cfg, _KIND_FIELD[section])
        # [schedule] may be left out by the runs that read none
        if kind is not None and kind not in table:
            raise ConfigError(f"unknown {section} kind {kind!r}; "
                              f"expected one of {tuple(table)}")
    if cfg.domain_kind == "ball" and (cfg.radius is None or cfg.radius <= 0.0):
        raise ConfigError("a ball domain needs a positive radius")
    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {cfg.delta}")
    if cfg.epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {cfg.epochs}")


def steps_for(cfg: ExperimentConfig, n: int) -> int:
    if cfg.T_rule == "equal_n":
        return n
    if cfg.T_rule == "n_squared":
        return n * n
    return int(math.ceil(n ** cfg.T_pow))


def _need(cfg: ExperimentConfig, field: str):
    v = getattr(cfg, field)
    if v is None:
        section, key = _FIELD_TO_KEY[field]
        raise ConfigError(f"missing key {key!r} in [{section}]")
    return v


def _cov_of(value: Optional[Tuple[float, ...]]):
    if value is None:
        return 1.0
    if len(value) == 1:
        return value[0]
    return np.asarray(value, dtype=np.float64)


# section -> kind -> builder of the section's object from the config
BUILDERS = {
    "loss": {
        "least_squares": lambda cfg: LeastSquares(),
        "q_hinge": lambda cfg: QNormHinge(1.0 if cfg.loss_q is None else cfg.loss_q),
        "q_power_abs": lambda cfg: QPowerAbsolute(2.0 if cfg.loss_q is None else cfg.loss_q),
        # the surrogate's moment parameters are the distribution's
        "auc_square": lambda cfg: AucSquare(p=_need(cfg, "p_plus"),
                                            mu_plus=_need(cfg, "mu_plus"),
                                            mu_minus=_need(cfg, "mu_minus")),
    },
    "distribution": {
        "gauss_lin_reg": lambda cfg: GaussLinReg(
            w_star=_need(cfg, "w_star"), cov=_cov_of(cfg.cov),
            noise_sd=_need(cfg, "noise_sd"), x_bound=cfg.x_bound),
        "realizable_lin_reg": lambda cfg: RealizableLinReg(
            w_star=_need(cfg, "w_star"), cov=_cov_of(cfg.cov), x_bound=cfg.x_bound),
        "margin_classif": lambda cfg: MarginClassif(
            w_star=_need(cfg, "w_star"), cov=_cov_of(cfg.cov),
            flip_prob=_need(cfg, "flip_prob"), x_bound=cfg.x_bound),
        "imbalanced_gauss": lambda cfg: ImbalancedGauss(
            p=_need(cfg, "p_plus"), mu_plus=_need(cfg, "mu_plus"),
            mu_minus=_need(cfg, "mu_minus"), cov_plus=_cov_of(cfg.cov_plus),
            cov_minus=_cov_of(cfg.cov_minus), x_bound=cfg.x_bound),
    },
    "schedule": {
        "fixed_constant": lambda cfg: FixedConstant(eta1=_need(cfg, "eta1")),
        "horizon_constant": lambda cfg: HorizonConstant(c=_need(cfg, "c")),
        "horizon_poly": lambda cfg: HorizonPoly(c=_need(cfg, "c"), theta=_need(cfg, "theta")),
        "poly_decay": lambda cfg: PolyDecay(eta1=_need(cfg, "eta1"), theta=_need(cfg, "theta")),
        "strongly_convex": lambda cfg: StronglyConvexDecay(
            sigma=_need(cfg, "sigma"), t0=0 if cfg.t0 is None else cfg.t0),
    },
    "domain": {
        "none": lambda cfg: None,
        "ball": lambda cfg: Ball(radius=_need(cfg, "radius")),
    },
}

_KIND_FIELD = {section: _SCHEMA[section]["kind"][0] for section in BUILDERS}


def build(section: str, cfg: ExperimentConfig):
    """The object that [section] of ``cfg`` configures, from its ``BUILDERS``
    entry.

    A missing key raises ``ConfigError("missing key ... in [section]")``, and
    any error of the constructor becomes ``ConfigError("bad <section>
    parameters: ...")``.
    """
    kind = _need(cfg, _KIND_FIELD[section])
    try:
        return BUILDERS[section][kind](cfg)
    except ConfigError:
        raise
    except Exception as e:
        raise ConfigError(f"bad {section} parameters: {e}") from None
