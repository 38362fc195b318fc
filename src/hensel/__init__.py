"""Exact-arithmetic number theory toolkit.

Subpackages:

* :mod:`hensel.padics`       p-adic scalars at finite precision
* :mod:`hensel.lattices`     rank-2 Z_p-lattices, canonical forms, enumeration
* :mod:`hensel.orbital`      orbital integrals as lattice counts, transfer identity
* :mod:`hensel.qseries`      q-expansions, Hecke operators, theta check
* :mod:`hensel.arith`        real characters, Frobenius classes, L-series checks
* :mod:`hensel.traceformula` finite-group trace formula
* :mod:`hensel.cli`          verification command line
"""

__version__ = "0.1.0"
