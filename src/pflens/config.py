"""Project configuration: flat key = value files with units in the keys.

The format is line-oriented: `key = value`, `#` starts a comment, blank
lines are ignored. Every key carries its unit as a suffix
(focal_length_mm, raman_shift_ghz, ...), values are numbers except for
small enumerated choices, and unknown or repeated keys are hard errors
so a typo cannot silently fall back to a default.

ProjectConfig stores values exactly as written (in file units) and
exposes SI quantities through properties, so writing a config out and
reading it back is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import diffraction
from ._csv import read_text
from .beamfit import _MIN_SCAN_SAMPLES
from .design import FUSED_SILICA_INDEX, MIN_PHASE_LEVELS, LensDesign
from .dipole import M_CONVENTIONS
from .errors import ConfigError
from .filtering import (
    DEFAULT_RAMAN_SHIFT,
    DEFAULT_ZEEMAN_MHZ_PER_GAUSS,
    DEFAULT_ZEEMAN_SPLITTING,
    FrequencyLayout,
)
from .hankel import _MIN_FINE_POINTS


@dataclass(frozen=True)
class ProjectConfig:
    """All tunable numbers, in the units named by the field suffixes."""

    # lens
    focal_length_mm: float = 3.0
    aperture_diameter_mm: float = 5.0
    wavelength_nm: float = 369.5
    phase_levels: int = 2
    substrate_index: float = FUSED_SILICA_INDEX
    # ion frequencies
    # exact: 12.6e9 / 1e9 == 12.6 and 160e6 / 1e6 == 160.0
    raman_shift_ghz: float = DEFAULT_RAMAN_SHIFT / 1e9
    zeeman_splitting_mhz: float = DEFAULT_ZEEMAN_SPLITTING / 1e6
    zeeman_coefficient_mhz_per_gauss: float = DEFAULT_ZEEMAN_MHZ_PER_GAUSS
    # coupling defaults
    eta_diff: float = 0.30
    beam_m2: float = 1.08
    m_convention: str = "sqrt"
    # simulation and measurement defaults
    input_waist_mm: float = 1.1
    grid_points: int = 14400
    grid_padding_factor: float = 1.2
    truncation_waists: float = 2.0
    scan_half_width_um: float = 2.0
    scan_steps: int = 21
    capture_radius_multiplier: float = diffraction.DEFAULT_CAPTURE_RADIUS_MULTIPLIER
    blade_positions: int = diffraction.DEFAULT_BLADE_POSITIONS
    fine_points: int = diffraction.DEFAULT_FINE_POINTS

    def __post_init__(self):
        def need(condition: bool, key: str, message: str):
            if not condition:
                raise ConfigError(message, key=key)

        def at_least(key: str, floor) -> None:
            need(getattr(self, key) >= floor, key, f"must be >= {floor}")

        for spec in fields(self):
            if spec.type in ("float", float):
                need(math.isfinite(getattr(self, spec.name)), spec.name, "must be finite")

        need(self.focal_length_mm > 0, "focal_length_mm", "must be > 0")
        need(self.aperture_diameter_mm > 0, "aperture_diameter_mm", "must be > 0")
        need(self.wavelength_nm > 0, "wavelength_nm", "must be > 0")
        at_least("phase_levels", MIN_PHASE_LEVELS)
        need(self.substrate_index > 1, "substrate_index", "must be > 1")
        at_least("raman_shift_ghz", 0)
        at_least("zeeman_splitting_mhz", 0)
        at_least("zeeman_coefficient_mhz_per_gauss", 0)
        need(0 < self.eta_diff <= 1, "eta_diff", "must be in (0, 1]")
        at_least("beam_m2", 1)
        need(self.m_convention in M_CONVENTIONS, "m_convention", f"must be one of {M_CONVENTIONS}")
        need(self.input_waist_mm > 0, "input_waist_mm", "must be > 0")
        at_least("grid_points", 64)
        at_least("grid_padding_factor", 1)
        need(self.truncation_waists > 0, "truncation_waists", "must be > 0")
        need(self.scan_half_width_um > 0, "scan_half_width_um", "must be > 0")
        at_least("scan_steps", 3)
        need(self.capture_radius_multiplier > 0, "capture_radius_multiplier", "must be > 0")
        at_least("blade_positions", _MIN_SCAN_SAMPLES)
        at_least("fine_points", _MIN_FINE_POINTS)

    # SI properties

    @property
    def focal_length(self) -> float:
        return self.focal_length_mm * 1e-3

    @property
    def aperture_diameter(self) -> float:
        return self.aperture_diameter_mm * 1e-3

    @property
    def wavelength(self) -> float:
        return self.wavelength_nm * 1e-9

    @property
    def raman_shift(self) -> float:
        return self.raman_shift_ghz * 1e9

    @property
    def zeeman_splitting(self) -> float:
        return self.zeeman_splitting_mhz * 1e6

    @property
    def zeeman_coefficient(self) -> float:
        # 1 MHz/G = 1e10 Hz/T
        return self.zeeman_coefficient_mhz_per_gauss * 1e10

    @property
    def input_waist(self) -> float:
        return self.input_waist_mm * 1e-3

    @property
    def scan_half_width(self) -> float:
        return self.scan_half_width_um * 1e-6

    # derived domain objects

    def lens_design(self) -> LensDesign:
        return LensDesign(
            focal_length=self.focal_length,
            clear_aperture_diameter=self.aperture_diameter,
            design_wavelength=self.wavelength,
            phase_levels=self.phase_levels,
            substrate_index=self.substrate_index,
        )

    def frequency_layout(self) -> FrequencyLayout:
        return FrequencyLayout(
            raman_shift=self.raman_shift,
            zeeman_splitting=self.zeeman_splitting,
            zeeman_coefficient=self.zeeman_coefficient,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(ProjectConfig)}
_INT_KEYS = {
    name for name, kind in _FIELD_TYPES.items() if kind in ("int", int)
}
_STR_KEYS = {
    name for name, kind in _FIELD_TYPES.items() if kind in ("str", str)
}


def default_config() -> ProjectConfig:
    return ProjectConfig()


def _convert(key: str, raw: str, line: int):
    if key in _STR_KEYS:
        return raw
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"expected an integer, got {raw!r}", key=key, line=line
            ) from None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", key=key, line=line) from None


def parse_config_text(text: str) -> ProjectConfig:
    """Parse a flat key = value document into a validated config."""
    values: dict = {}
    key_lines: dict = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"expected 'key = value', got {raw_line.strip()!r}", line=line_number
            )
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError("unknown key", key=key, line=line_number)
        if key in values:
            raise ConfigError(
                f"duplicate key (first set on line {key_lines[key]})",
                key=key,
                line=line_number,
            )
        if not raw_value:
            raise ConfigError("missing value", key=key, line=line_number)
        values[key] = _convert(key, raw_value, line_number)
        key_lines[key] = line_number
    return ProjectConfig(**values)


def read_config(path) -> ProjectConfig:
    return parse_config_text(read_text(path, ConfigError))


def config_text(config: ProjectConfig) -> str:
    """Canonical serialization; parses back to an identical config."""
    lines = ["# flat key = value configuration; units are in the key names"]
    for spec in fields(ProjectConfig):
        value = getattr(config, spec.name)
        if spec.name in _STR_KEYS:
            lines.append(f"{spec.name} = {value}")
        elif spec.name in _INT_KEYS:
            lines.append(f"{spec.name} = {value:d}")
        else:
            lines.append(f"{spec.name} = {value:.17g}")
    return "\n".join(lines) + "\n"


def write_config(path, config: ProjectConfig) -> None:
    Path(path).write_text(config_text(config))
