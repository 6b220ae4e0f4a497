"""Photon-counting CT toolkit.

Simulates multi-energy-bin count sinograms, calibrates a polynomial detector
response, decomposes sinograms into basis-material pathlengths (maximum
likelihood or consensus equilibrium between a detector agent and a sinogram
denoiser), and reconstructs material and virtual mono-energetic images.

Importing the package loads no submodule, so the CLI can configure threading
before any numeric backend loads; import submodules by name (`pcmd.solver`).
"""

__version__ = "0.1.0"
