"""Design and analysis toolkit for photon-collection phase Fresnel lenses.

The package covers the full chain from lens design to system budgets:

- geometry: aperture / NA / solid-angle conversions;
- design: zone layouts, etch depth, diffraction efficiency, chromatic
  focal shifts and depth-of-focus limits;
- hankel: quasi-discrete Hankel transform for radially symmetric fields;
- diffraction: scalar beam propagation through lens phase profiles,
  virtual knife-edge waist measurement, focal scans;
- beamfit: knife-edge scan reduction and Gaussian caustic fitting;
- dipole: dipole-emission collection fractions, single-mode coupling,
  polarization fidelity;
- filtering: etalon suppression and readout error budgets;
- budget: trap-array spacing, achievable NA, and rate-gain estimates;
- config / cli: flat-file configuration and the pflens command.
"""

from .errors import (
    ConfigError,
    DomainError,
    FitError,
    NumericalError,
    PflensError,
    ResolutionError,
    SchemaError,
)
from .geometry import (
    LensGeometry,
    cone_from_na,
    na_from_cone,
    na_from_geometry,
    na_small_angle,
    solid_angle_fraction,
)
from .design import (
    FUSED_SILICA_INDEX,
    ChromaticSpec,
    LensDesign,
    ZoneLayout,
    chromatic_focal_shift,
    depth_of_focus,
    etch_depth,
    fractional_detuning_from_frequency,
    fresnel_plate_transmission,
    max_focal_length_for_dof,
    multilevel_efficiency,
    rayleigh_range_gaussian,
    read_zone_csv,
    write_zone_csv,
    zone_csv_text,
    zone_layout,
)
from .hankel import HankelTransform, clear_transform_cache, get_transform
from .diffraction import (
    FocalScanResult,
    RadialField,
    apply_binary_pfl,
    apply_ideal_lens,
    efficiency_into_focus,
    focal_scan,
    focal_scan_csv_text,
    gaussian_beam,
    knife_edge_power_curve,
    measure_waist_knife_edge,
    plane_wave,
    propagate,
    scan_field,
)
from .beamfit import (
    CausticFit,
    KnifeEdgeScan,
    WaistPoint,
    bundled_caustic_dataset_path,
    caustic_curve_csv_text,
    caustic_fit_report,
    caustic_radius,
    derived_beam_parameters,
    fit_caustic,
    fit_scan,
    fit_scans,
    knife_edge_model,
    read_scans_csv,
    scans_csv_text,
    synthetic_caustic_points,
    synthetic_caustic_scans,
    synthetic_knife_edge_scan,
)
from .dipole import (
    EQUATORIAL_PI,
    EQUATORIAL_SIGMA,
    POLAR_PI,
    POLAR_SIGMA,
    BeamQuality,
    CouplingBudget,
    EmissionChannel,
    coherent_coupling,
    collection_curve_csv_text,
    collection_fraction,
    collection_fraction_series,
    collection_probability,
    coupling_budget,
    effective_divergence,
    fidelity_curve_csv_text,
    fidelity_series,
    polarization_fidelity_collected,
    polarization_fidelity_single,
    radiation_pattern,
)
from .filtering import (
    DEFAULT_RAMAN_SHIFT,
    DEFAULT_ZEEMAN_COEFFICIENT,
    DEFAULT_ZEEMAN_SPLITTING,
    EtalonSpec,
    FrequencyLayout,
    etalon_transmission,
    scheme_error_budget,
    suppression_factor,
    zeeman_splitting,
)
from .budget import (
    DetectorSpec,
    TrapArraySpec,
    achievable_array_na,
    detection_site_spacing,
    entanglement_rate_gain,
    fault_tolerance_check,
)
from .config import (
    ProjectConfig,
    config_text,
    default_config,
    parse_config_text,
    read_config,
    write_config,
)

__version__ = "0.1.0"
