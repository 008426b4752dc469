"""Radar configuration, and the typed readers of key=value and JSON files."""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import sys
import typing
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Raised for invalid or missing configuration values."""


@dataclass(frozen=True)
class RadarConfig:
    """Static acquisition parameters for one radar sensor.

    ``azimuth_antennas`` x ``elevation_antennas`` describes how the virtual
    channels are arranged geometrically; the default is a uniform linear
    array in azimuth (all virtual channels on the horizontal axis).
    """

    num_adc_samples: int
    num_chirps: int
    num_tx: int
    num_rx: int
    sample_rate: float        # Hz
    chirp_slope: float        # Hz/s
    carrier_freq: float       # Hz
    frame_rate: float = 10.0  # frames/s
    antenna_spacing: float = 0.5  # in wavelengths
    azimuth_antennas: int = 0     # 0 -> num_virtual
    elevation_antennas: int = 1
    chirp_period: float = 0.0     # s; 0 -> derived from frame timing

    def __post_init__(self):
        for name in ("num_adc_samples", "num_chirps", "num_tx", "num_rx"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        for name in ("sample_rate", "chirp_slope", "carrier_freq", "frame_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")
        if not 0 < self.antenna_spacing < math.inf:
            raise ConfigError("antenna_spacing must be finite and > 0")
        if not 0 <= self.chirp_period < math.inf:
            raise ConfigError("chirp_period must be finite and >= 0")
        if self.azimuth_antennas < 0 or self.elevation_antennas < 1:
            raise ConfigError(
                f"antenna geometry {self.azimuth_antennas}x{self.elevation_antennas} "
                "needs azimuth_antennas >= 0 and elevation_antennas >= 1"
            )
        az, el = self.array_shape
        if az * el != self.num_virtual:
            raise ConfigError(
                f"antenna geometry {az}x{el} does not match {self.num_virtual} virtual channels"
            )
        if self.num_adc_samples * self.num_chirps * self.num_virtual * 16 > sys.maxsize:
            raise ConfigError(
                f"a {self.num_adc_samples}x{self.num_chirps}x{self.num_virtual} cube of "
                "complex128 samples exceeds numpy's array size"
            )

    @property
    def num_virtual(self) -> int:
        return self.num_tx * self.num_rx

    @property
    def array_shape(self) -> tuple[int, int]:
        """(horizontal count P, vertical count Q) of the virtual array."""
        az = self.azimuth_antennas or self.num_virtual
        return az, self.elevation_antennas

    @property
    def chirp_interval(self) -> float:
        """Chirp repetition interval in seconds (slow-time step)."""
        if self.chirp_period > 0:
            return self.chirp_period
        return 1.0 / (self.frame_rate * self.num_chirps * self.num_tx)


def read_key_values(text: str, types: dict, error: type[Exception]) -> dict:
    """Parse a ``key = value`` document into {key: types[key](value)}.

    Blank lines and lines starting with '#' are skipped. A line without
    '=', a key not in ``types``, a repeated key and a value its type rejects
    raise ``error`` with a ``line N:`` prefix.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise error(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise error(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = types[key](val)
        except ValueError as exc:
            raise error(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    return values


def load_json(text: str, name: str, error: type[Exception]):
    """Parse JSON for ``read_json_object``. Malformed JSON, a repeated key and
    an integer past Python's digit limit raise ``error`` with a ``name:`` prefix."""
    def unique(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        if repeated:
            raise ValueError(f"repeated keys {repeated}")
        return dict(pairs)
    try:
        return json.loads(text, object_pairs_hook=unique)
    except ValueError as exc:
        raise error(f"{name}: {exc}") from exc


_JSON_NAMES = {float: "a finite number", int: "an integer", str: "a string", list: "a list",
               type(None): "null"}


def read_json_object(doc, types: dict, where: str, error: type[Exception], required=()) -> dict:
    """Check that ``doc`` is a JSON object of {key: value of types[key]}; return it.

    As in ``read_key_values``, an unknown key is an error, and so is a missing
    ``required`` one. A float is a JSON number that converts to a finite
    float; int, str and list are exactly that JSON type, so a bool is no
    number and a float no int; ``X | None`` takes null too. Errors name
    ``<where> <key>``.
    """
    if not isinstance(doc, dict):
        raise error(f"{where}: expected a JSON object, got {reprlib.repr(doc)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise error(f"{where}: missing keys {missing}")
    for key, value in doc.items():
        if key not in types:
            raise error(f"{where}: unknown key {reprlib.repr(key)}")
        kinds = typing.get_args(types[key]) or (types[key],)
        number = float in kinds and type(value) in (int, float)
        # finite, and an int that converts to float without OverflowError
        if not (abs(value) <= sys.float_info.max if number else type(value) in kinds):
            wanted = " or ".join(_JSON_NAMES[kind] for kind in kinds)
            raise error(f"{where} {key}: expected {wanted}, got {reprlib.repr(value)}")
    return doc


def parse_config_text(text: str) -> RadarConfig:
    """Parse a ``key = value`` config document into a RadarConfig.

    The lines follow ``read_key_values``. Each key is read with the type its
    ``RadarConfig`` field is annotated with, and a field without a default
    is a required key.
    """
    fields = dataclasses.fields(RadarConfig)
    values = read_key_values(text, typing.get_type_hints(RadarConfig), ConfigError)
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - values.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    return RadarConfig(**values)


def read_text(path: str | Path, digest=None) -> str:
    """The file's bytes, read once and added to ``digest`` (if given), decoded as UTF-8."""
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    return data.decode()


def load_config(path: str | Path, digest=None) -> RadarConfig:
    return parse_config_text(read_text(path, digest))


def config_text(cfg: RadarConfig) -> str:
    """Serialize a RadarConfig back to the key=value format."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(cfg)]
    return "\n".join(lines) + "\n"
