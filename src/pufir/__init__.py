"""Analysis, verification, synthesis and transformation of rectangular
para-unitary FIR systems represented as matrix Laurent polynomials."""

from .laurent import LaurentPoly, constant, delay, zero
from .hankel import (BlockHankel, DefectReport, HankelPair, block_hankel,
                     ParaunitaryResult, defect_structure, hankel_anticausal,
                     hankel_causal, hankel_pair, is_paraunitary_hankel,
                     mcmillan_degree, numerical_rank, stack_B)
from .realization import (GramianPair, Realization,
                          check_unitary_realization, gramian_normalize,
                          gramians, minimal_realization, naive_realization,
                          transfer)
from .blaschke import (AngleParams, BPProduct, chart_size, decode_angles,
                       design_optimize, param_count, random_member,
                       random_params, synth)
from .families import (compose_diag, compose_mix_cols, compose_mix_rows,
                       dilate, exponent_map, hankel_abr, interleave_coeffs,
                       product_via_hankel, reblock, rect_stack, rect_widen,
                       reverse_poly, u_coiso, u_iso)
from .examples import reblock_instance, square_example, wide_example
from .verify import verify_examples

__version__ = "0.1.0"
