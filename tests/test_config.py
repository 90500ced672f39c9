import argparse
import dataclasses

import pytest

from nbvplan import cli
from nbvplan.config import FIELD_PARSERS, RunConfig, load_config_file

# A valid, non-default value of the field's own type for every RunConfig field.
NON_DEFAULT = dict(
    mesh="part.obj", mode="hemisphere", resolution=0.02, t_max=2, beta=3, alpha=5,
    candidates=50, d_c=0.3, iterations=4, seed=11, evaluator="oracle",
    out="elsewhere", width=320, height=240, fx=300.0, fy=310.0, max_range=3.0,
    noise_sigma=0.001, workspace_half=0.5, stride=8, coverage_threshold=0.004,
    coverage_samples=500, initial_polar_deg=45.0,
    initial_azimuth_deg=30.0,
)


def _assert_non_default(config: RunConfig) -> None:
    for name, value in NON_DEFAULT.items():
        got = getattr(config, name)
        assert got == value and type(got) is type(value), (name, got)


def test_non_default_values_cover_every_field():
    assert set(NON_DEFAULT) == {f.name for f in dataclasses.fields(RunConfig)}
    defaults = RunConfig()
    assert all(getattr(defaults, name) != value for name, value in NON_DEFAULT.items())


def test_config_file_values_keep_field_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}  # note\n" for k, v in NON_DEFAULT.items()))
    _assert_non_default(RunConfig(**load_config_file(str(path))))


def test_cli_flags_keep_field_types():
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    argv = [arg for k, v in NON_DEFAULT.items() for arg in ("--" + k.replace("_", "-"), str(v))]
    _assert_non_default(cli._config_from_args(parser.parse_args(argv)))


def test_flag_overrides_a_config_file_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_max = 2\nseed = 3\n")
    parser = argparse.ArgumentParser()
    cli._add_config_flags(parser)
    args = parser.parse_args(["--config", str(path), "--mesh", "m.obj", "--t-max", "5"])
    config = cli._config_from_args(args)
    assert (config.t_max, config.seed) == (5, 3)


FLOAT_FIELDS = [name for name, parse in FIELD_PARSERS.items() if parse is float]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_non_finite_float_setting_is_rejected(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        RunConfig(**{name: value})


def test_bad_config_value_names_file_line_and_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\nseed = 3\nt_max = 2.5\n")
    with pytest.raises(ValueError) as info:
        load_config_file(str(path))
    assert str(info.value) == f"{path}:3: t_max: invalid literal for int() with base 10: '2.5'"


def test_repeated_config_key_names_both_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("t_max=1\n# later\nseed = 3\nt_max=10\n")
    with pytest.raises(ValueError) as info:
        load_config_file(str(path))
    assert str(info.value) == f"{path}:4: duplicate key 't_max' (first on line 1)"


def test_negative_seed_is_rejected(capsys):
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        RunConfig(seed=-3)
    assert cli.main(["run", "--mesh", "m.obj", "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_fewer_candidates_than_parallels_is_rejected():
    with pytest.raises(ValueError, match="4 candidates < alpha 8"):
        RunConfig(candidates=4, alpha=8)
    with pytest.raises(ValueError, match="mode must be one of"):
        RunConfig(mode="orbit")
