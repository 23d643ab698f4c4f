"""negdim: exact verification of rank -> -rank dualities.

Checks, with exact rational arithmetic throughout:

* Casimir spectra of the classical group series and their behaviour under
  transposing the highest weight and negating the rank,
* Jack symmetric functions, the inverse-coupling duality and the stability
  of the defining operator,
* the coupling-triple map for classical symmetric spaces,
* dimension polynomials and their symplectic/orthogonal interchange,
  including the three-parameter universal dimension formula.
"""

__version__ = "0.1.0"

from negdim.exact_algebra import (  # noqa: F401
    MultiPoly,
    RatFunc,
    Rational,
    ratfunc_equal,
    series_expand,
)

from negdim import casimir, dims, jack, partitions, spaces  # noqa: E402,F401
