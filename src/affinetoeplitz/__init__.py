"""Exact symbolic and numerical computation in the Toeplitz algebra of N x| N^x.

The package is organised around the affine monoid of maps n -> m + a*n on the
natural numbers.  `semigroup` provides the quasi-lattice order and the
euclidean algorithm behind it, `algebra` rewrites words in the generating
isometries to canonical spanning monomials, `representation` realises the
generators as exact weighted permutations of basis vectors (the brute-force
oracles), `spectrum` parametrises the character space of the diagonal,
`states` evaluates the equilibrium states of the natural time evolution, and
`bostconnes` covers the related Hecke-algebra Euler-product machinery.  Only
`representation` uses numpy, and it is not imported here.  Import each name
from the module that defines it.
"""

from . import bostconnes, numtheory, semigroup, spectrum, states
