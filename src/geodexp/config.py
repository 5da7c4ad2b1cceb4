"""Run configuration: a single YAML file, schema-validated.

Unknown keys are rejected with the path to the offending key; any randomized
field spec must carry an explicit seed (reproducibility contract).
"""

from __future__ import annotations

from importlib import resources

import numpy as np
import yaml

from .errors import ConfigError

__all__ = ["RunConfig", "load_config", "default_config"]

_FIELD_SCHEMA = {
    "kind": str,          # fourier | random
    "max_mode": int,
    "amplitude": float,
    "seed": int,
    "cos": list,
    "sin": list,
}

_SCHEMA = {
    "seed": int,
    "manifold": {
        "builtin": str,
        "dim": int,
        "radius": float,
        "collar": float,
        "y_min": float,
        "period": float,
        "expression": {
            "dim": int,
            "entries": list,
            "fd_step": float,
            "lower": list,
            "upper": list,
            "periodic": list,
            "name": str,
        },
    },
    "immersion": {
        "builtin": str,
        "radius": float,
        "a": float,
        "b": float,
        "eps": float,
        "mode": int,
        "major": float,
        "minor": float,
        "theta0": float,
        "points": int,
        "shape": list,
        "resolution": int,
        "collar": float,
        "pole_smoothing": float,
        "fd_order": int,
        "normalization": float,
        "ambient_dim": int,
    },
    "fields": {
        "deviation": _FIELD_SCHEMA,
        "generator": _FIELD_SCHEMA,
        "xi_normal": _FIELD_SCHEMA,
    },
    "sweep": {"scales": list},
    "grid": {"points": int, "halfwidth": float},
    "tolerances": {"shoot_tol": float, "slope_floor": float},
}


def _validate(node, schema, path):
    if not isinstance(node, dict):
        raise ConfigError(path or "<root>", f"expected a mapping, got {type(node).__name__}")
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(where, "unknown key")
        expected = schema[key]
        if isinstance(expected, dict):
            _validate(value, expected, where)
        elif expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(where, f"expected a number, got {value!r}")
        elif expected is int:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(where, f"expected an integer, got {value!r}")
        elif not isinstance(value, expected):
            raise ConfigError(where, f"expected {expected.__name__}, got {value!r}")


def _require_seeds(cfg):
    fields = cfg.get("fields", {})
    for name, spec in fields.items():
        if spec.get("kind", "random") == "random" and "seed" not in spec:
            raise ConfigError(f"fields.{name}.seed",
                              "randomized fields require an explicit seed")


class RunConfig:
    """Validated run configuration with typed accessors."""

    def __init__(self, data):
        _validate(data, _SCHEMA, "")
        _require_seeds(data)
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def seed(self):
        return int(self.data.get("seed", 0))

    def manifold(self):
        from .manifolds import builtin_manifold, sphere

        spec = self.data.get("manifold")
        return builtin_manifold(spec) if spec else sphere(1.0)

    def immersion(self):
        from .immersions import builtin_immersion, circle_immersion

        spec = self.data.get("immersion")
        return builtin_immersion(spec) if spec else circle_immersion(1.0, 192, fd_order=6)

    def field_spec(self, name, periods, components):
        """FourierSpec for a named config field, or a seeded default.

        The component count and periods are fixed by the geometric context
        (caller); the config contributes mode content, amplitude and seed.
        """
        from .deviations import FourierSpec, random_fourier_spec

        spec = self.data.get("fields", {}).get(name)
        if spec is None:
            return random_fourier_spec(periods, components, max_mode=2,
                                       amplitude=0.12,
                                       seed=self.seed + sum(map(ord, name)))
        if spec.get("kind", "random") == "random":
            return random_fourier_spec(
                periods, components,
                max_mode=int(spec.get("max_mode", 2)),
                amplitude=float(spec.get("amplitude", 0.12)),
                seed=int(spec["seed"]))
        return FourierSpec(periods, np.asarray(spec["cos"], dtype=float),
                           np.asarray(spec["sin"], dtype=float))

    def scales(self, default=(0.2, 0.1, 0.05, 0.025)):
        sweep = self.data.get("sweep", {})
        return tuple(float(s) for s in sweep.get("scales", default))

    def shoot_tol(self):
        return float(self.data.get("tolerances", {}).get("shoot_tol", 1e-12))


def load_config(path=None):
    """Load and validate a YAML config; None loads the shipped default."""
    if path is None:
        return default_config()
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    return RunConfig(data)


def default_config():
    text = resources.files("geodexp").joinpath("data/default.yaml").read_text()
    return RunConfig(yaml.safe_load(text))
