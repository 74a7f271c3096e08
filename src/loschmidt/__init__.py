"""Phase reconstruction of generalized Loschmidt amplitudes.

The complex overlap G(t) = <psi'| exp(-iHt) |psi> is recovered without
ancilla qubits or controlled evolution: magnitudes measured at complex
times t -+ ih (realized by a shallow rescaled imaginary-time circuit plus
real-time evolution) give the phase derivative through the Cauchy-Riemann
relation, and the phase follows by numerical integration.  The package
bundles the dense statevector simulator, Trotter and imaginary-time
circuit builders, the reconstruction pipeline with zero-crossing repair,
a depolarizing-noise model with rescaling mitigation, LDOS post-processing,
and the Hadamard-test / sequential-interferometry baselines it competes
against.
"""

from .baselines import (
    CostEstimate,
    CostInput,
    InterferometryResult,
    hadamard_test,
    resource_cost,
    sequential_interferometry,
)
from .config import ExperimentConfig, RunDocument, load_config, parse_document
from .exceptions import ConfigError, LoschmidtError, NumericsError
from .ite import ItePair, apply_ite, build_ite_plan_general, build_ite_plan_tfim
from .ite import ite_angle
from .model import (
    HamiltonianSpec,
    LocalTerm,
    dense_matrix,
    exact_amplitude,
    amplitude_series,
    expectation,
    oracle_evolve,
    oracle_phase_series,
    tfim,
)
from .noise import (
    NoiseConfig,
    apply_noise_layer,
    mitigate_rescale,
    sample_shots,
    statistical_error_model,
    trajectory_survivals,
)
from .reconstruct import (
    PhaseTrace,
    correct_phase_jumps,
    detect_zeros,
    integrate_phase,
    reconstruct_trace,
    run_phase_experiment,
)
from .spectral import LdosSpectrum, exact_ldos, ldos_dft
from .statevector import StateVector, apply_layer, apply_matrix, inner_product, product_state
from .trotter import TrotterPlan, build_plan, evolve

__version__ = "0.1.0"
