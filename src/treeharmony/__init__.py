"""Free-tree enumeration and harmonious-labelling search.

A tree on n nodes is harmonious when its nodes can be labelled onto
Z_{n-1} so that the n-1 edge sums mod (n-1) are pairwise distinct.  This
package enumerates every free tree of a given size, finds such a
labelling for each with a hybrid of two-stage constraint solving,
probabilistic backtracking and tabu search, and persists each result as
an independently re-verifiable certificate.
"""

from .backtracking import solve_backtracking
from .config import DEFAULT_SEED, SOLVER_VERSION, SolveOutcome, SolverConfig
from .generate import (FreeTreeStream, GENERATOR_VERSION,
                       count_free_trees_enumerated, count_rooted_trees,
                       free_trees, oracle_count_otter, oracle_enumerate_prufer,
                       prufer_decode)
from .hybrid import (CheckpointError, SweepReport, benchmark_solvers,
                     derive_seed, make_certificate, solve_hybrid, sweep)
from .labelling import (Certificate, CertificateError, check_labelling,
                        eval_labelling, exhaustive_search,
                        induced_edge_labels, is_harmonious,
                        iter_harmonious_bijective, normalize_labelling,
                        random_onto_labelling, shift_labelling,
                        verify_certificate)
from .tabu import TabuState, solve_tabu
from .trees import (LevelSequenceError, Tree, canonical_from_edges,
                    canonicalize, centers, edges, format_level_sequence,
                    internal_nodes, is_caterpillar, leaves,
                    parse_level_sequence, rooted_level_sequence,
                    validate_level_sequence)
from .twostage import (LeafCSP, build_leaf_csp, solve_leaf_csp,
                       solve_twostage, stage1_internal)

__version__ = "0.1.0"
