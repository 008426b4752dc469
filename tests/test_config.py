import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radarpose.config import ConfigError, RadarConfig, config_text, load_config, parse_config_text

GOOD = """
# test rig
num_adc_samples = 64
num_chirps = 16
num_tx = 2
num_rx = 4
sample_rate = 1e7
chirp_slope = 3e13
carrier_freq = 7.7e10
frame_rate = 10
"""


def test_parse_good():
    cfg = parse_config_text(GOOD)
    assert cfg.num_adc_samples == 64
    assert cfg.num_virtual == 8
    assert cfg.array_shape == (8, 1)
    assert cfg.antenna_spacing == 0.5


def test_round_trip(tmp_path):
    cfg = parse_config_text(GOOD)
    path = tmp_path / "radar.cfg"
    path.write_text(config_text(cfg))
    assert load_config(path) == cfg


@pytest.mark.parametrize("line", [
    "bogus_key = 3",
    "num_tx = 0",
    "sample_rate = -1",
    "num_chirps = oops",
    "no equals sign here",
    "antenna_spacing = nan",
    "antenna_spacing = inf",
    "chirp_period = nan",
    "chirp_period = -1e-4",
    "azimuth_antennas = -8\nelevation_antennas = -1",
])
def test_bad_lines(line):
    with pytest.raises(ConfigError):
        parse_config_text(GOOD + line + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rates_must_be_finite(value):
    with pytest.raises(ConfigError, match="finite"):
        parse_config_text(GOOD.replace("sample_rate = 1e7", f"sample_rate = {value}"))


def test_missing_required():
    with pytest.raises(ConfigError, match="missing"):
        parse_config_text("num_adc_samples = 4\n")


def test_frame_rate_is_optional():
    cfg = parse_config_text(GOOD.replace("frame_rate = 10\n", ""))
    assert cfg.frame_rate == 10.0
    # 10 fps * 16 chirps * 2 tx firings
    assert cfg.chirp_interval == pytest.approx(1.0 / 320.0)


def test_geometry_must_cover_virtual_array():
    with pytest.raises(ConfigError, match="geometry"):
        parse_config_text(GOOD + "azimuth_antennas = 3\nelevation_antennas = 2\n")


def test_cube_past_numpy_size_limit_is_rejected():
    # 16 chirps x 8 antennas x 16-byte complex128 values: 2048 bytes per ADC sample
    largest = sys.maxsize // 2048
    parse_config_text(GOOD.replace("num_adc_samples = 64", f"num_adc_samples = {largest}"))
    for n in (largest + 1, 2 ** 62):
        with pytest.raises(ConfigError, match="complex128"):
            parse_config_text(GOOD.replace("num_adc_samples = 64", f"num_adc_samples = {n}"))


def test_chirp_interval_default():
    cfg = parse_config_text(GOOD)
    # 10 fps * 16 chirps * 2 tx firings
    assert cfg.chirp_interval == pytest.approx(1.0 / 320.0)
    explicit = parse_config_text(GOOD + "chirp_period = 1e-4\n")
    assert explicit.chirp_interval == 1e-4


KEYS = sorted(f.name for f in dataclasses.fields(RadarConfig))
VALUES = st.one_of(
    st.text(max_size=12), st.integers(-10, 10**6).map(str), st.floats().map(repr)
)
LINES = st.one_of(st.text(max_size=40), st.builds("{} = {}".format, st.sampled_from(KEYS), VALUES))


@settings(max_examples=150, deadline=None)
@given(prefix=st.sampled_from(["", GOOD]), lines=st.lists(LINES, max_size=8))
def test_parse_config_text_raises_only_config_error(prefix, lines):
    try:
        cfg = parse_config_text(prefix + "\n".join(lines))
    except ConfigError:
        return
    assert cfg.num_virtual >= 1 and min(cfg.array_shape) >= 1
    assert 0 < cfg.chirp_interval < float("inf")
