"""Physical constants (SI) and the built-in atomic species table.

Interaction formulas in the physics modules are written in natural units
with hbar = 1; conversion happens at the boundary where SI inputs enter
(see condensate.natural_coupling).
"""

HBAR = 1.054571817e-34       # J s
ATOMIC_MASS = 1.66053906660e-27  # kg

# Species table: mass and default s-wave scattering length. Entries can be
# overridden or replaced by inline definitions in a scenario config.
# rubidium-87: a_s = 5.3 nm reproduces the 12.2 um Thomas-Fermi radius
# benchmark for 1e7 atoms at omega0/2pi = 200 Hz.
SPECIES = {
    "sodium": {
        "mass_kg": 22.98976928 * ATOMIC_MASS,
        "scattering_length_m": 2.8e-9,
    },
    "rubidium-87": {
        "mass_kg": 86.909180527 * ATOMIC_MASS,
        "scattering_length_m": 5.3e-9,
    },
}
