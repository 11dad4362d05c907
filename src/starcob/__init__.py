"""Exact computer algebra for a dual pair of quiver algebras over GF(2).

The package implements two path algebras on a cyclic quiver with N > 2 nodes
together with their higher operations, the bar and cobar complexes with an
explicit quasi-isomorphism and homotopy certificate between them, a twisted
small model for bigraded cohomology, and exact GF(2) sparse linear algebra.
Every computation is exact; there are no floating-point tolerances.

Importing the package loads no submodule: each name is imported from the
module that defines it (`starcob.staralg` for words, elements and gradings,
`starcob.ainfty` for the higher operations and the relation checker, and so
on), and loading a module loads only the modules it builds on.  The command
line (`starcob.cli`) loads each command's modules when that command runs.
"""

__version__ = "0.1.0"
