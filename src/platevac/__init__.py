"""Vacuum-energy central charges for a scalar field between plates.

Four layers, each a module of its own; import the layer you need:
`from platevac import lattice`. The package itself re-exports nothing,
so importing one layer loads only what that layer needs.

- `algebra`: exact rational Lie-algebra structure constants, two-cocycles,
  coboundary certificates, and H^2 dimensions. Standard library only.
- `lattice`: quadratic observables on finite field lattices, their
  commutators, vacuum state, and symmetry-closure checks. Needs numpy.
- `casimir`: regularized plate energies (zeta, Abel-Plana, cutoff
  extrapolation) and forces.
- `adiabatic`: single-mode evolution under a slow plate motion and the
  Bogoliubov coefficients it produces.
"""

__version__ = "0.1.0"
