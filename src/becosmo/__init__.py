"""becosmo: acoustic cosmology in freely expanding Bose-Einstein condensates.

Phonons riding a released, self-similarly expanding condensate behave like
a quantum field in an expanding spacetime: an acoustic horizon forms, modes
are stretched past it, stop oscillating, and their vacuum fluctuations
freeze into a measurable density contrast. This package computes the whole
chain at laboratory scale: trapped-cloud parameters, scale-factor dynamics,
effective geometry and horizons, and the frozen quasi-2D and 3D spectra.
"""

from .condensate import (AtomSpecies, CondensateSpec, DerivedParams,
                         TrapGeometry, reduce_coupling,
                         sound_frequency_at_healing_scale, swave_coupling,
                         thomas_fermi, validate_dimensional_reduction)
from .geometry import (apparent_horizon, conformal_factor, horizon_crossing_time,
                       particle_horizon, settled_apparent_horizon)
from .q2d import (Spectrum, bogoliubov_frequency, density_spectrum_2d,
                  windowed_contrast)
from .scaling import (LinearExpansion, ScaleTrajectory, analytic_scale_2d,
                      analytic_scale_3d, integrate_scale_factor)
from .scenarios import (PRESETS, ConfigError, RunReport, ScenarioConfig,
                        StageError, load_scenario, run)
from .threed import (FrozenSpectrum3D, ModeEvolution, density_spectrum_3d,
                     frozen_phase_variance, integrate_mode, kappa_band_edge,
                     max_contrast_estimate)

__version__ = "0.1.0"
