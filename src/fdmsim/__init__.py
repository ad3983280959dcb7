"""fdmsim: frequency-division-multiplexed dispersive readout, end to end.

A desk-scale simulator of multiplexed readout of flux qubits through
notch resonators on a shared feedline: multi-tone synthesis, ideal SSB
conversion, the qubit-state-dependent feedline response, digitization,
DFT channelization, Bloch-equation dynamics, and channel-capacity
bookkeeping.  Frequencies are plain Hz; linewidths, rates, and shifts
are angular (rad/s); applied flux is in units of the flux quantum.
"""

from .chipfile import builtin_chip_path, config_hash, load_chip
from .device import (
    Chip,
    DeviceRecord,
    QubitParams,
    QubitStateLabel,
    ResonatorParams,
    dressed_resonance,
    qubit_frequency,
    s21_feedline,
    s21_single,
    state_dependent_shift,
)
from .dynamics import (
    GROUND,
    BlochState,
    DriveSpec,
    TelegraphSpectrum,
    evolve,
    evolve_for,
    rabi_frequency,
    relaxation_telegraph_spectrum,
    steady_state_excited,
)
from .errors import (
    ConfigError,
    FdmSimError,
    InfeasiblePlanError,
    TraceFormatError,
    UnknownDeviceError,
)
from .experiments import (
    DampedSinusoidFit,
    acquire,
    detect_flux_features,
    fit_damped_sinusoid,
    make_readout_setup,
    run_flux_sweep,
    run_rabi,
    run_spectroscopy,
)
from .planner import (
    CapacityQuery,
    CapacityResult,
    FrequencyPlan,
    adjacent_crosstalk,
    carson_bandwidth,
    crosstalk_limited_spacing,
    format_plan_report,
    generate_plan,
    max_channels,
    plan_for_chip,
)
from .rxchain import (
    AdcSpec,
    ReadoutSetup,
    ToneMeasurement,
    adc_quantize,
    add_awgn,
    apply_feedline,
    channelize,
    downconvert,
    measure_crosstalk,
)
from .seeding import child_seed, derive_rng
from .traceio import (
    SweepResult,
    read_sweep_csv,
    read_trace,
    write_sweep_csv,
    write_sweep_json,
    write_trace,
)
from .txchain import (
    IQTrace,
    ToneSpec,
    synthesize_multitone,
    trace_energy,
    upconvert_ssb,
)

__version__ = "0.1.0"

__all__ = [
    "AdcSpec",
    "BlochState",
    "CapacityQuery",
    "CapacityResult",
    "Chip",
    "ConfigError",
    "DampedSinusoidFit",
    "DeviceRecord",
    "DriveSpec",
    "FdmSimError",
    "FrequencyPlan",
    "GROUND",
    "IQTrace",
    "InfeasiblePlanError",
    "QubitParams",
    "QubitStateLabel",
    "ReadoutSetup",
    "ResonatorParams",
    "SweepResult",
    "TelegraphSpectrum",
    "ToneMeasurement",
    "ToneSpec",
    "TraceFormatError",
    "UnknownDeviceError",
    "acquire",
    "adc_quantize",
    "add_awgn",
    "adjacent_crosstalk",
    "apply_feedline",
    "builtin_chip_path",
    "carson_bandwidth",
    "channelize",
    "child_seed",
    "config_hash",
    "crosstalk_limited_spacing",
    "derive_rng",
    "detect_flux_features",
    "downconvert",
    "dressed_resonance",
    "evolve",
    "evolve_for",
    "fit_damped_sinusoid",
    "format_plan_report",
    "generate_plan",
    "load_chip",
    "make_readout_setup",
    "max_channels",
    "measure_crosstalk",
    "plan_for_chip",
    "qubit_frequency",
    "rabi_frequency",
    "read_sweep_csv",
    "read_trace",
    "relaxation_telegraph_spectrum",
    "run_flux_sweep",
    "run_rabi",
    "run_spectroscopy",
    "s21_feedline",
    "s21_single",
    "state_dependent_shift",
    "steady_state_excited",
    "synthesize_multitone",
    "trace_energy",
    "upconvert_ssb",
    "write_sweep_csv",
    "write_sweep_json",
    "write_trace",
]
