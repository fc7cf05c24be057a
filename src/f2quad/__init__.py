"""Quadratic Fourier analysis over F_2^n.

Self-correction of order-2 Reed-Muller codewords beyond the
list-decoding radius, and decomposition of bounded functions into few
quadratic phases (or quadratic averages) plus a U^3-uniform part plus
a small l1 error, with brute-force oracles for verifying every
randomized component at desk scale.
"""

from .gf2 import (MAX_ENUM_N, MAX_N, MatF2, SubspaceF2, dot, parity,
                  row_reduce, solve_linear_system, symmetric_split)
from .functions import (FunctionOracle, QuadraticAverage, QuadraticPhase,
                        TruthTable, coherent_quadratic_average,
                        correlation_exact, estimate_correlation,
                        eval_quadratic_phase, hoeffding_samples,
                        make_noisy_codeword, make_noisy_codeword_exact,
                        random_boolean_table, random_quadratic_average,
                        random_quadratic_phase)
from .fourier import (FourierSpectrum, exact_u2, exact_u3, exact_u_norm, fwht,
                      goldreich_levin, goldreich_levin_subspace,
                      spectrum_to_table, wht)
from .u3 import estimate_u3
from .bsg import (BsgParams, PhiSampler, bsg_test, choose_bsg_params,
                  edge_test)
from .recovery import (FindQuadraticResult, LinearChoiceMap, find_linear_map,
                       find_quadratic, integrate, symmetrize)
from .model import (FindAverageResult, LocalChoiceResult, ModelParams,
                    bogolyubov, choose_model_params, find_linear_parts,
                    find_quadratic_average, local_linear_choice,
                    local_symmetrize, model_test)
from .decompose import (Decomposition, RoundedBooleanOracle, decompose,
                        decompose_full)
from . import bruteforce, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
