"""Radar signal-processing pipeline and pose keypoint metrics.

Raw ADC captures -> radar cubes -> frequency-domain maps -> CFAR-gated
probability maps with positional encoding, plus OKS/AP evaluation math,
all verified against a synthetic FMCW point-scatterer simulator.
"""

__version__ = "0.1.0"
