"""Pseudo-spectral 3D Hall-MHD on the periodic torus: spectral fields, each
stored as the box of Fourier coefficients it is read on, and their
transforms (fields), integrating-factor RK4 stepping (solver), run
configuration (config), checkpoints (checkpoint), the run driver that
takes a config to t_end with records, checkpoints and resume (run; the
`hallmhd` command, or python -m hallmhd.run), dyadic Littlewood-Paley
shells with per-shell L^2 and L^inf norms (littlewood_paley), and
brute-force references for the tests (oracles), which work on the half
cube of the real FFT.  Importing the package imports none of them.

The paper's regularity-criterion quantities (dissipation wavenumbers, the
criterion integrand, the shell energy flux) are not computed yet; ROADMAP
item 2 plans them on top of the shell norms."""

__version__ = "0.1.0"
