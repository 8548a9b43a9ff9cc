"""Discrete potentials, polarization, and extremal point configurations on
the unit circle.

The headline computation: for any nonincreasing convex kernel of the
geodesic distance, equally spaced points maximize the minimum of the
potential over the circle.  This package evaluates such potentials, finds
their minima, constructs the gap transport and homotopy underlying that
fact, and provides energy identities, asymptotics, and, for the even
inverse-power exponents, exact rational closed forms from even zeta values
and the Taylor coefficients of powers of sinc.  Every search for a minimum
refuses a kernel that fails a check of ``validate_kernel``: a NaN or -inf
value, an increase, a midpoint above its chord, or declared derivatives
that are not the kernel's.  Its step is the Newton point from f''
(declared, or a second difference of the kernel's ``fn``), else the secant
point of the true slopes at the bracket's ends, else the midpoint.
Evaluating a potential takes any kernel, and every function that sums
potentials raises on a NaN kernel value.

The public surface is each module's ``__all__``; the package's is their
union.
"""

from . import (asymptotics, circle_config, energy, exact_series, kernels,
               optimizer, potential, transport)

__version__ = "0.1.0"

__all__ = []
for _module in (asymptotics, circle_config, energy, exact_series, kernels,
                optimizer, potential, transport):
    __all__ += _module.__all__
    globals().update({name: getattr(_module, name) for name in _module.__all__})
del _module
