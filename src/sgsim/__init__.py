"""Closed-form Stern-Gerlach beam-splitter simulator with brute-force
numerical cross-checks."""

from .config import (BOHR_MAGNETON_SI, HBAR_SI, ExperimentConfig, GradientSegment, Grid,
                     SpinQN)
from .harness import (OracleErrors, Report, Scenario, bch_check, default_silver_config,
                      entropy_timeline, interferometer_check, interferometer_segments,
                      load_scenario, oracle_density_error, run, scaled_config,
                      scenario_from_dict)
from .observables import (DensityProfile, SpinRDM, entanglement_entropy, peak_separation,
                          position_density_z, spin_rdm)
from .oracle import (SampledSpinor, dense_hamiltonian, matrix_exponential,
                     spinor_l2_distance, split_step_evolve, strang_phase)
from .propagator import (HybridState, dense_factored_matrix, evolve, evolve_segments,
                         gaussian_hybrid, sample_state, u2c_phase)
from .wavepacket import (CentredPacket, boost, free_evolve, from_gaussian, moments, overlap,
                         sample, translate)

__version__ = "0.1.0"
