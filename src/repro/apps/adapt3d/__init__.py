"""The 3-D (tetrahedral) adaptive application.

The three programming-model programs are the *same code* as the 2-D
application (:mod:`repro.apps.adapt`), and so is the trajectory builder:
:func:`repro.apps.adapt.script.build_script` runs its one phase loop on a
tetrahedral mesh when given an :class:`Adapt3DConfig` (Bey red-green
refinement with the in-phase hanging-node closure, non-strict coarsening
over up to three passes).  This package holds only that configuration.
"""

from repro.apps.adapt3d.common import Adapt3DConfig

__all__ = ["Adapt3DConfig"]
