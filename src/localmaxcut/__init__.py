"""One-round QAOA versus one-round classical local algorithms on LocalMaxCut.

The package has three legs that the test suite plays against each other:
an analytic expectation engine for diagonal Hamiltonians (qaoa_engine),
dense statevector simulation as ground truth (statevector), and exact plus
Monte-Carlo evaluation of the classical threshold-flip algorithm
(classical).  `optimize` recovers the headline constants from both sides
and `cli` packages everything behind one command.
"""

from .classical import (ClassicalParams, RunStats, exact_prob, monte_carlo,
                        optimal_preset)
from .graph import (NAMED_CUBIC, Graph, girth, load_edge_list, make_cycle,
                    make_named, make_random_regular, save_edge_list)
from .hamiltonian import (Clause, DiagonalHamiltonian,
                          build_localmaxcut_hamiltonian, evaluate_classical,
                          fourier_encode_clause, hamiltonian_to_json,
                          local_satisfaction_clause, make_hamiltonian,
                          mask_of, vertices_of)
from .optimize import (GridSweep, OptimizationReport, grid_sweep,
                       optimize_classical, optimize_qaoa)
from .qaoa_engine import expectation_full, explain_zk
from .statevector import MAX_QUBITS, apply_mixer, apply_phase

__version__ = "0.1.0"

__all__ = [
    "ClassicalParams", "Clause", "DiagonalHamiltonian", "Graph",
    "GridSweep", "MAX_QUBITS", "NAMED_CUBIC", "OptimizationReport",
    "RunStats", "apply_mixer", "apply_phase",
    "build_localmaxcut_hamiltonian", "evaluate_classical",
    "exact_prob", "expectation_full", "explain_zk",
    "fourier_encode_clause", "girth", "grid_sweep", "hamiltonian_to_json",
    "load_edge_list", "local_satisfaction_clause", "make_cycle",
    "make_hamiltonian", "make_named", "make_random_regular", "mask_of",
    "monte_carlo", "optimal_preset", "optimize_classical", "optimize_qaoa",
    "save_edge_list", "vertices_of",
]
