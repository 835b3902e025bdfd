"""Parent-owned state: a module-level generator."""

import numpy as np

SHARED_RNG = np.random.default_rng(11)
