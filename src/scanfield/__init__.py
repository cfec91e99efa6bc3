"""Self-supervised signed distance fields from range scans.

A numpy/scipy implementation of the full pipeline: analytic scene oracles and
a virtual scanner, ray sampling with curvature-corrected distance targets, a
sinusoidal field network with closed-form derivatives, from-scratch AdamW
training, isosurface extraction, and 2D Monte Carlo localization.
"""

__version__ = "0.1.0"
