"""Dominance and dissipativity certification for linear and Lur'e systems."""

from .cones import QuadraticCone, positivity_probe
from .differential import (
    Channel,
    LureSystem,
    Nonlinearity,
    check_diff_dissipativity,
    check_diff_dominance,
    vertex_family,
)
from .dissipativity import (
    DissipativityCertificate,
    SupplyRate,
    find_passivity_storage,
    min_gain,
    small_gain_pair,
    supply_gain,
    supply_passivity,
    verify_dissipativity,
)
from .errors import (
    CouplingError,
    DimensionError,
    LmiInfeasibleError,
    NonHyperbolicError,
    NumericalError,
    PdomError,
    SplitMismatchError,
    UnsupportedConfigurationError,
)
from .interconnect import (
    closed_loop_certificate,
    coupling_condition,
    network,
    network_supply,
)
from .lti import (
    DominanceCertificate,
    LtiSystem,
    check_dominance,
    construct_certificate,
    eigen_split_test,
    residual,
)
from .matrixcore import Inertia, inertia_of, sym_eigen
from .sim import (
    Trajectory,
    classify_asymptotics,
    integrate,
    integrate_batch,
)

__version__ = "0.1.0"
