"""Pseudo-spectral 3D Hall-MHD on the periodic torus: spectral fields, each
stored as the box of Fourier coefficients it is read on, and their
transforms (fields), integrating-factor RK4 stepping (solver), run
configuration (config), checkpoints (checkpoint), dyadic Littlewood-Paley
shells with per-shell L^2 and L^inf norms (littlewood_paley), and
brute-force references for the tests (oracles), which work on the half
cube of the real FFT.

The paper's regularity-criterion quantities (dissipation wavenumbers, the
criterion integrand, the shell energy flux) are not computed yet; ROADMAP
item 2 plans them on top of the shell norms."""

__version__ = "0.1.0"
