"""Exact-arithmetic prediction and verification of Eisenstein congruences
for newforms of square-free level with character."""

from .characters import DirichletChar, enumerate_pairs, gauss_sum, parity_matches
from .congruence import (BKReport, ConditionsReport, bk_report, check_conditions,
                         check_conditions_above, diamond_hypothesis,
                         search_congruence_primes, value_conductor)
from .cyclotomic import CycNum
from .eisenstein import (CuspMatrix, DeltaChoice, EisensteinParams, QExpansion,
                         alpha_m, c_gamma, constant_term_alpha_m,
                         constant_term_e_delta, cusp_matrix_for,
                         cusp_representatives, e_delta, e_delta_via_hecke,
                         eisenstein_qexp, hecke_tp, sigma_power_div)
from .lvalues import (bernoulli, bk_quotient_order_factor, euler_factor,
                      generalized_bernoulli, l_value_at_negative, partial_l_order_data)
from .newforms import (CongruenceCertificate, NewformData, load_fixture,
                       replay_certificate, residue_maps_of_kf, save_fixture,
                       sturm_bound, verify_at_ell, verify_congruence)
from .residue import (FFElem, PrimeAbove, canonical_modulus, ff_embed,
                      matching_prefix, ord_exact, ord_positive, primes_above,
                      reduce_cyc)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
