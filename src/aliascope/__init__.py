"""aliascope: sampling-theory auditing of CNN translation invariance.

Library modules:
  tensor      array conventions: padding modes, argmax, spatial sums
  sampling    basis kernels, shiftability and Nyquist checks
  nn          minimal trainable CNN engine: one class per layer kind, a
              line-oriented spec grammar, SHNN model files, readouts
  transforms  embedding, inpainting, 1-pixel translation/rescaling, crops
  audit       top-1 flip-rate protocols, depth profiles, feature traces
  biasstat    chi-squared bounding-box bias statistics
  data        synthetic datasets and PGM/PPM I/O; pixels in [0, 1]
  theory      numeric verification of the invariance results
  cli         one subcommand per experiment, each output with a run manifest
"""

__version__ = "0.1.0"
