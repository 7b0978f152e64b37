"""Exact integer computations with lattices of thimbles.

The package works with the finite data a distinguished basis of thimbles
induces: integer pairing matrices, reflection and monodromy operators,
braid-group moves, the triangular lattice-to-dual operator, conjugation
actions built from critical-point descriptors, exact signatures, and the
signature formulas for the index of a gradient vector field at an
isolated complete intersection point.
"""

from .basis import (BasisChange, BraidMove, BraidWord, apply_braid_word,
                    monodromy, parse_braid_word, picard_lefschetz)
from .conjugation import (ConjugatePair, ConjugationData, LevelAnalysis,
                          MorseSpec, RealPoint, build_sigma, signature_by_blocks)
from .index import (CycleData, EvenParityError, IcisInstance, LevelData,
                    sign_independence_check, gradient_index, morse_recursion_step,
                    smoothable_index, telescoped_index, level_index_sum,
                    cycle_index_sum)
from .intmat import IntMatrix
from .lattice import (SignVector, ThimbleLattice, self_intersection,
                      validate_lattice)
from .oracle import float_signature, index_1d, index_2d, poly2
from .signature import Signature, exact_signature
from .variation import (check_monodromy_relation, check_s_relation, var,
                        var_inverse, var_inverse_as_operator_after_braid)

__version__ = "0.1.0"

__all__ = [
    "BasisChange", "BraidMove", "BraidWord", "ConjugatePair",
    "ConjugationData", "CycleData", "EvenParityError", "IcisInstance",
    "IntMatrix", "LevelAnalysis", "LevelData", "MorseSpec", "RealPoint",
    "Signature", "SignVector", "ThimbleLattice", "apply_braid_word",
    "build_sigma", "check_monodromy_relation", "check_s_relation",
    "sign_independence_check", "exact_signature", "float_signature",
    "index_1d", "index_2d", "gradient_index", "monodromy",
    "morse_recursion_step", "parse_braid_word", "picard_lefschetz", "poly2",
    "self_intersection", "signature_by_blocks", "smoothable_index",
    "telescoped_index", "level_index_sum", "cycle_index_sum",
    "validate_lattice", "var", "var_inverse",
    "var_inverse_as_operator_after_braid",
]
