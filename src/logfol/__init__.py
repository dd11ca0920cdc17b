"""Exact symbolic toolkit for foliations on normal-crossing germs.

Truncated power series with rational coefficients on crossing germs,
logarithmic vector fields and their bracket, flat-unit semistability
checks, residue indices along strata, scalar gluing cocycles, lattice
monoid saturation, bundle cohomology on nodal rational curves, and the
cochain calculus of leafwise complexes spread over finite covers.

Each name is imported from the module that defines it, as in
``from logfol.jets import Jet``; the package itself binds only __version__.
"""

__version__ = "0.1.0"
