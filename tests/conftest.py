import math

import pytest

from becosmo.condensate import (AtomSpecies, CondensateSpec, TrapGeometry,
                                thomas_fermi)
from becosmo.scaling import ExpansionProtocol, integrate_scale_factor

W0_2D = 2.0 * math.pi * 10.0
WZ_2D = 2.0 * math.pi * 790.0
W0_3D = 2.0 * math.pi * 200.0


@pytest.fixture(scope="session")
def sodium_spec():
    return CondensateSpec(
        species=AtomSpecies.from_table("sodium"),
        trap=TrapGeometry(dimension=2, longitudinal_frequency=W0_2D,
                          transverse_frequency=WZ_2D),
        atom_number=1e5,
    )


@pytest.fixture(scope="session")
def sodium_derived(sodium_spec):
    return thomas_fermi(sodium_spec)


@pytest.fixture(scope="session")
def rubidium_spec():
    return CondensateSpec(
        species=AtomSpecies.from_table("rubidium-87"),
        trap=TrapGeometry(dimension=3, longitudinal_frequency=W0_3D),
        atom_number=1e7,
    )


@pytest.fixture(scope="session")
def rubidium_derived(rubidium_spec):
    return thomas_fermi(rubidium_spec)


@pytest.fixture(scope="session")
def traj2d():
    protocol = ExpansionProtocol.free_expansion(W0_2D)
    return integrate_scale_factor(protocol, 2, 2.0, t_max=1100.0 / W0_2D,
                                  tolerance=1e-10, n_samples=600)


@pytest.fixture(scope="session")
def traj3d():
    protocol = ExpansionProtocol.free_expansion(W0_3D)
    return integrate_scale_factor(protocol, 3, 2.0, t_max=5000.0 / W0_3D,
                                  tolerance=1e-10, n_samples=500)
