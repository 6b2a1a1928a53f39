"""aliascope: sampling-theory auditing of CNN translation invariance.

Library modules:
  sampling    basis kernels, shiftability, Nyquist and pooling-gap checks
  nn          minimal trainable float64 CNN engine in (n, c, h, w) order:
              one class per layer kind, a line-oriented spec grammar, SHNN
              model files
  transforms  embedding, inpainting, 1-pixel translation/rescaling, crops
  audit       top-1 flip-rate protocols, depth profiles, feature traces
  biasstat    chi-squared bounding-box bias statistics, on columns
  data        synthetic datasets and PGM/PPM I/O; pixels in [0, 1]
  theory      numeric verification of the invariance results, including
              the 1/s^2 exact-invariance fraction and Nyquist on nets
  cli         one subcommand per experiment, each output with a run manifest
"""

__version__ = "0.1.0"
