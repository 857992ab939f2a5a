"""Theta immersions of complex elliptic curves in P^(N-1).

Exact q-series arithmetic (Puiseux series over Q and cyclotomic
fields), rigorous numeric theta evaluation, the quadric systems cutting
out the degree-N curve, the finite projective representation attached
to even levels, and the explicit modular-curve models at levels 4-8.
"""

__version__ = "0.1.0"
