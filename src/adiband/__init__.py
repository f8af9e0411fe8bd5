"""adiband: a numerical laboratory for adiabatic band decoupling and
effective Born-Oppenheimer dynamics of 1-D model molecular systems.

The package discretizes a fibered Hamiltonian
H = (eps^2/2)(-i d/dX)^2 + H_e(X) on a periodic grid with a small matrix
fiber, evolves it exactly, and measures how fast band-preserving and
effective single-band dynamics converge to the full dynamics as eps
decreases.  Which evolutions are solved dense and which go matrix-free
is one rule, stated with its reasons in `propagation`.  A
vector potential enters only the effective Born-Oppenheimer Hamiltonian
of a band,
(eps^2/2)(-i d/dX + A_geo(X))^2 + E(X), as its geometric (Berry)
connection A_geo.

numpy is the only runtime dependency; SciPy serves the tests as an oracle.
"""

from .electronic import (
    BandData,
    GapReport,
    band_decompose,
    berry_connection,
    gap_check,
    grad_projection,
    riesz_projection,
)
from .grids import Grid1D, MolecularWave, NuclearWave, make_grid, norm, sobolev_norm
from .hamiltonians import (
    DenseHamiltonian,
    assemble_bo,
    assemble_diag,
    assemble_full,
    molecular_operator,
    u_map,
    u_star_map,
)
from .harness import ExperimentConfig, ScanResult, eps_scan, run_suite
from .identities import commutator_inverse, commutator_inverse_residual, offdiag_scaling
from .indicators import PhaseSpaceRegion, SmoothIndicator, smooth_indicator
from .models import ElectronicModel, get_model, list_models
from .propagation import (
    ChebyshevPropagator,
    DecouplingPair,
    SpectralPropagator,
    decoupling_error,
    diagonalize,
    diagonalize_pair,
    effective_dynamics_error,
    evolve,
)
from .semiclassics import (
    ClassicalDensity,
    Symbol,
    apply_phase_space_projection,
    boundary_leakage,
    classical_flow,
    egorov_residual,
    hitting_times,
    reduced_observable_residual,
    weyl_quantize,
    wigner_marginal,
)
from .states import (
    coherent_state,
    lift_to_band,
    sharp_momentum_state,
    wkb_state,
)

__version__ = "0.1.0"
