"""Closed-form Stern-Gerlach beam-splitter simulator with brute-force
numerical cross-checks."""

from .config import BOHR_MAGNETON_SI, HBAR_SI, ExperimentConfig, GradientSegment, Grid
from .harness import (Report, Scenario, bch_check, default_silver_config,
                      entropy_timeline, interferometer_check, interferometer_segments,
                      load_scenario, oracle_density_error, run, scaled_config,
                      scenario_from_dict)
from .observables import (DensityProfile, SpinRDM, entanglement_entropy,
                          peak_separation, position_density_z, semiclassical,
                          spatial_reduction_entropy, spin_rdm)
from .oracle import (SampledSpinor, dense_hamiltonian, matrix_exponential,
                     quadrature_overlap, spinor_l2_distance, split_step_evolve)
from .propagator import (HybridState, apply_u1, apply_u2a, apply_u2b, apply_u2c,
                         dense_factored_matrix, evolve, evolve_segments,
                         gaussian_hybrid, sample_state)
from .spin_algebra import (SpinMatrices, SpinQN, build_spin_matrices, commutator,
                           conjugate_series, heisenberg_u2c_transform, u2c_phase)
from .wavepacket import (CentredPacket, QuadExpPacket, boost, canonical, centred,
                         free_evolve, from_gaussian, global_phase, moments, norm, normalized,
                         overlap, sample, stack_packets, translate)

__version__ = "0.1.0"
