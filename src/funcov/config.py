"""Run configuration shared by the command-line entry points."""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields

from .errors import DataFormatError, FuncovError
from .pipeline import FitSettings


def _integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _list_of(ok):
    return lambda x: isinstance(x, (list, tuple)) and all(map(ok, x))


# The kind of value each field holds (or None, where that is its default).
_FIELD_KINDS = {
    "an integer": (_integer, "order n_interior_mean n_interior_cov npc grid_size workers seed "
                   "n m_min m_max replicates n_test"),
    "a number": (_real, "pve level rho snr"),
    "true or false": (lambda x: isinstance(x, bool), "compare_zero_cross"),
    "a list of numbers": (_list_of(_real), "tau_grid rho_grid w_grid"),
    "two numbers [a, b]": (lambda x: _list_of(_real)(x) and len(x) == 2, "domain"),
    "a list of integers": (_list_of(_integer), "n_values"),
    "a list of strings": (_list_of(lambda x: isinstance(x, str)), "responses"),
}


@dataclass
class RunConfig(FitSettings):
    """All tunable settings of the command-line workflows.

    A :class:`FitSettings` (the fit's fields and defaults are declared
    there) plus the prediction, evaluation and simulation settings, so a
    run config is passed to :func:`fit_covariance_model` as it is. Values
    can come from command-line flags or from a JSON config file; when
    both are given, the config file wins.
    """

    # prediction and data handling
    level: float = 0.95
    responses: list | None = None
    grid_size: int = 101
    # simulation design
    seed: int = 0
    n: int = 100
    n_values: list | None = None
    rho: float = 0.5
    snr: float = 2.0
    m_min: int = 3
    m_max: int = 7
    replicates: int = 1
    n_test: int = 200
    compare_zero_cross: bool = False

    def validate(self) -> "RunConfig":
        none_by_default = {f.name for f in fields(self) if f.default is None}
        for kind, (ok, names) in _FIELD_KINDS.items():
            for name in names.split():
                value = getattr(self, name)
                if not ok(value) and not (value is None and name in none_by_default):
                    raise FuncovError(f"{name} must be {kind}, got {value!r}")
        if self.order < 1:
            raise FuncovError("order must be >= 1")
        if self.n_interior_mean < 1 or self.n_interior_cov < 1:
            raise FuncovError("interior knot counts must be >= 1")
        if not 0.0 < self.pve <= 1.0:
            raise FuncovError("pve must lie in (0, 1]")
        if self.npc is not None and self.npc < 1:
            raise FuncovError("npc must be >= 1 when given")
        if not 0.0 < self.level < 1.0:
            raise FuncovError("level must lie in (0, 1)")
        if self.grid_size < 2:
            raise FuncovError("grid_size must be >= 2")
        if self.workers < 1:
            raise FuncovError("workers must be >= 1")
        if self.replicates < 1:
            raise FuncovError("replicates must be >= 1")
        if self.n_values is not None and len(set(self.n_values)) < len(self.n_values):
            raise FuncovError(f"n_values must not repeat a training size, got {self.n_values}")
        if self.domain is not None:
            a, b = self.domain
            if not b > a:
                raise FuncovError("domain must satisfy a < b")
        for name in ("tau_grid", "rho_grid", "w_grid"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise FuncovError(f"{name} must be nonempty when given")
        return self


def load_config_file(path) -> dict:
    """Read a JSON config file into a plain dict of known fields."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DataFormatError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise DataFormatError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return raw


def merge_config(flag_values: dict, config_path=None) -> RunConfig:
    """Combine flag values with an optional config file.

    ``flag_values`` holds only the flags the user actually set. Config
    file entries override flags.
    """
    merged = dict(flag_values)
    if config_path is not None:
        overrides = load_config_file(config_path)
        if "n" in overrides and "n_values" not in overrides:
            # a config n replaces the whole flag-derived training-size list
            merged.pop("n_values", None)
        merged.update(overrides)
    cfg = RunConfig(**merged).validate()
    if cfg.domain is not None:
        cfg.domain = (float(cfg.domain[0]), float(cfg.domain[1]))
    return cfg
