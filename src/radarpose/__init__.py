"""Radar signal-processing pipeline and pose keypoint metrics.

Raw ADC captures -> radar cubes -> frequency-domain maps -> CFAR-gated
probability maps with positional encoding, plus OKS/AP evaluation math,
all verified against a synthetic FMCW point-scatterer simulator.
"""

__version__ = "0.1.0"

from .adc import AdcLayout, RadarCube, parse_cubes, serialize_cubes  # noqa: F401
from .cfar import CfarParams, DetectionMask, RangeBinSet, cfar_alpha, detect_2d, select_range_bins  # noqa: F401
from .config import RadarConfig, load_config  # noqa: F401
from .fusion import FeatureTensor, MultiFrameTensor, fuse_add, stack_frames  # noqa: F401
from .pose import KeypointSet, OksParams, ap_summary, bce_loss, gaussian_heatmap, oks  # noqa: F401
from .probmap import (  # noqa: F401
    EncodedFeature,
    PositionalEncoding,
    ProbabilityMap,
    RangeAngleVector,
    angle_spectrum,
    average_doppler,
    encode_map,
    normalize,
    positional_encoding,
    probability_map,
)
from .sim import SceneSpec, Target, expected_bins, synth_frame  # noqa: F401
from .spectral import (  # noqa: F401
    RangeDopplerMap,
    Spectrum4D,
    average_elevation,
    fft4d,
    magnitude_map,
    range_doppler_map,
    sample_doppler,
)
from .tensorio import read_tensor, write_tensor  # noqa: F401
