import numpy as np
import pytest

from geodexp.config import RunConfig, default_config, load_config
from geodexp.errors import ConfigError


def test_default_config_loads():
    cfg = default_config()
    assert cfg.seed == 1234
    M = cfg.manifold()
    assert M.dim == 2
    imm = cfg.immersion()
    assert imm.grid.shape == (192,)
    assert cfg.scales() == (0.2, 0.1, 0.05, 0.025)


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError) as err:
        RunConfig({"manifold": {"builtin": "sphere", "radiu": 1.0}})
    assert err.value.path == "manifold.radiu"


def test_type_errors_carry_path():
    with pytest.raises(ConfigError) as err:
        RunConfig({"seed": "notanint"})
    assert err.value.path == "seed"
    with pytest.raises(ConfigError) as err:
        RunConfig({"sweep": {"scales": 0.5}})
    assert err.value.path == "sweep.scales"


@pytest.mark.parametrize("data, path", [
    ({"manifold": {"builtin": "sphere", "fd_step": 1e-3}}, "manifold.fd_step"),
    ({"fields": {"deviation": {"kind": "random", "seed": 1, "components": 2}}},
     "fields.deviation.components"),
    ({"output": {"csv": "out.csv"}}, "output"),
])
def test_ignored_keys_rejected(data, path):
    with pytest.raises(ConfigError) as err:
        RunConfig(data)
    assert err.value.path == path


def test_random_field_requires_seed():
    with pytest.raises(ConfigError) as err:
        RunConfig({"fields": {"deviation": {"kind": "random", "amplitude": 0.1}}})
    assert err.value.path == "fields.deviation.seed"


def test_field_spec_shapes():
    cfg = RunConfig({"fields": {"deviation": {
        "kind": "random", "seed": 5, "max_mode": 1, "amplitude": 0.2}}})
    spec = cfg.field_spec("deviation", (2 * np.pi,), 3)
    assert spec.ncomp == 3
    samples = spec.evaluate(np.zeros((4, 1)))
    assert samples.shape == (4, 3)


def test_fourier_field_spec_passthrough():
    cfg = RunConfig({"fields": {"generator": {
        "kind": "fourier", "cos": [[0.0, 0.1]], "sin": [[0.0, 0.2]]}}})
    spec = cfg.field_spec("generator", (2 * np.pi,), 1)
    val = spec.evaluate(np.array([[0.0]]))
    assert val[0, 0] == pytest.approx(0.1)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("seed: 7\nsweep: {scales: [0.4, 0.2, 0.1]}\n")
    cfg = load_config(str(p))
    assert cfg.seed == 7
    assert cfg.scales() == (0.4, 0.2, 0.1)
