"""Host-time profiling harness: the public face of the wall-clock profiler.

:data:`PROFILER` and :func:`profile_section` are implemented in
:mod:`repro.sim.profile` so the machine layer can import them without a
package cycle.  The simulated results never depend on profiling — only
how many host seconds they take to produce.
"""

from __future__ import annotations

from repro.sim.profile import PROFILER, Profiler, profile_section

__all__ = ["PROFILER", "Profiler", "profile_section"]
