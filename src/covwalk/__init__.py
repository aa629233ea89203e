"""covwalk: random walks and geodesic flow on Z^d-covers of finite-area
hyperbolic surfaces."""

from . import hyp2, fuchsian, cover, walk, stats, config  # noqa: F401

__version__ = "0.1.0"
