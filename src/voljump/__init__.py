"""Certified lattice computations behind a volume-jumping divisor class.

The package reconstructs, with exact arithmetic and certified enclosures,
the numerical data of a divisor class on the blow-up of the projective
plane at ten points whose volume jumps on a dense set of configurations:
the composite lattice isometry, its dominant eigenpair, the nef certificate
for the derived witness class by finite enumeration, and the distinctness
of the orbit of the line class.

Import the submodules (`voljump.spectral`, `voljump.nefcheck`, ...): the
package itself loads none of them, so each command loads only what it uses.
"""

__version__ = "0.1.0"
