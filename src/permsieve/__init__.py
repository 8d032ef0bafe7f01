"""Exact toolkit for permutation statistics, bijective maps, and cyclic sieving.

The package computes statistic generating functions over S_n in exact integer
arithmetic, decomposes the orbit structure of bijective maps, and decides
root-of-unity sieving claims by folded-residue equality rather than floating
point.  See ``permsieve --help`` for the command line and
:mod:`permsieve.acceptance` for the verification gate.
"""

from .bijections import MAPS, MapDescriptor, get_map, map_keys
from .errors import PermsieveError
from .orbits import decompose, fixed_counts, orbit_signature
from .permutations import (
    Perm,
    compose,
    cycle_form,
    format_permutation,
    fundamental_inverse,
    fundamental_transform,
    identity,
    inverse,
    lehmer_code,
    lehmer_decode,
    parse_permutation,
)
from .polynomials import IntPolynomial
from .scan import ScanReport, scan
from .sieving import (
    CspVerdict,
    csp_check,
    equidistribution,
    generating_function,
    orbit_polynomial,
    parity_pairing_check,
    q_minus_one,
    transport_check,
)
from .statistics import REGISTRY, StatDescriptor, get_statistic, statistic_keys

__version__ = "0.1.0"

__all__ = [
    "CspVerdict",
    "IntPolynomial",
    "MAPS",
    "MapDescriptor",
    "Perm",
    "PermsieveError",
    "REGISTRY",
    "ScanReport",
    "StatDescriptor",
    "compose",
    "csp_check",
    "cycle_form",
    "decompose",
    "equidistribution",
    "fixed_counts",
    "format_permutation",
    "fundamental_inverse",
    "fundamental_transform",
    "generating_function",
    "get_map",
    "get_statistic",
    "identity",
    "inverse",
    "lehmer_code",
    "lehmer_decode",
    "map_keys",
    "orbit_polynomial",
    "orbit_signature",
    "parity_pairing_check",
    "parse_permutation",
    "q_minus_one",
    "scan",
    "statistic_keys",
    "transport_check",
    "__version__",
]
