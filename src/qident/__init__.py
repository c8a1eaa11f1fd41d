"""qident: exact verification of q-series identities.

Truncated lattice sums (Nahm type), quantum dilogarithm products in
q-commuting variables, A-type quiver codimension identities, and jet-algebra
Hilbert series, all over exact integer/rational arithmetic.
"""

__version__ = "0.1.0"
