"""Exact-arithmetic invariants and p-local classification for gauge groups
of principal Sp(n)-bundles over the 4-sphere.

The package computes the image of the comparison map from symplectic
K-theory to top cohomology on suspended quasi-projective spaces, reads off
Samelson product orders (4n(2n+1)), and answers p-local homotopy
classification queries for the associated gauge groups, all over exact
integers and rationals.
"""

from .arith import frac_gcd, is_prime, p_exponent, p_part
from .errors import (
    AllZero,
    BadDimension,
    DimensionMismatch,
    EvenPrime,
    GuardFailed,
    NonIntegralGenerator,
    NotPrime,
    OddRank,
    OracleMismatch,
    OutOfRange,
    SpgaugeError,
    ZeroArgument,
)
from .gauge import (
    Bundle,
    GuardCheck,
    LieFamily,
    Outcome,
    Verdict,
    decide_local,
    decide_spin,
    im_delta_gen,
    im_partial_order,
    mapping_group_order,
    pi_4n1_order,
    q2_mapping_invariant,
    refined_invariant,
    retractible,
    sutherland_invariant,
)
from .lattice import (
    FinAbGroup,
    IntMatrix,
    SmithForm,
    cokernel,
    element_order_in_coker,
    smith_normal_form,
)
from .phi import (
    PhiResult,
    checked_order,
    closed_form_order,
    identity_samelson_p_part,
    phi_image,
    phi_images,
    samelson_order,
)
from .report import Report
from .series import exp_minus_one_powers, printed_top_coeffs, truncated_powers
from .verify import verify_sweep

__version__ = "0.1.0"
