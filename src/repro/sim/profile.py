"""Host-time (wall-clock) profile of the simulator, by module layer.

The simulator charges *virtual* nanoseconds; this module measures how much
*host* time each part of the package burns producing them.  It wraps the
standard library's :mod:`cProfile`, so nothing in the simulator checks
whether profiling is on and a profiled run executes exactly the code of an
unprofiled one (at about 2.5-3x the host time while it is on).  cProfile
charges a cost to every Python call but none to work inside native code,
so call-heavy layers read somewhat larger than they run unprofiled.

:meth:`Profiler.layers` charges every function's own time to a *layer*
named from its module: the first two components under ``repro``
(``machine.directory``, ``models.mpi``, ``sim.engine``, ``mesh.refine``,
...).  Time spent outside the package (NumPy, builtins, the standard
library) is charged to the layers that called it, split by each caller's
share, following cProfile's caller edges.  Time no ``repro`` frame called
is the :data:`OUTSIDE` row, so the rows sum to :meth:`Profiler.total`.

Usage::

    from repro.sim.profile import PROFILER

    PROFILER.reset().enable()
    try:
        run_app(...)
    finally:
        PROFILER.disable()
    print(PROFILER.report())
"""

from __future__ import annotations

import cProfile
import functools
import os
from typing import Dict, Optional

import numpy as np
from scipy import sparse

__all__ = ["OUTSIDE", "PROFILER", "Profiler"]

#: Row for host time that no frame of the ``repro`` package called.
OUTSIDE = "(outside repro)"

_PACKAGE = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


#: Terms of the caller-share series; what is left after them is ``OUTSIDE``.
_SERIES_TERMS = 64


@functools.lru_cache(maxsize=None)
def _module_layer(filename: str) -> Optional[str]:
    """``machine.directory`` for ``.../repro/machine/directory.py``; ``None`` outside."""
    path = os.path.realpath(filename)
    if not path.startswith(_PACKAGE + os.sep):
        return None
    parts = os.path.splitext(path[len(_PACKAGE) + 1:])[0].split(os.sep)
    return ".".join(p for p in parts[:2] if p != "__init__")


def _layer_of(code) -> Optional[str]:
    """The layer of a cProfile entry's code (builtins are strings: outside)."""
    filename = getattr(code, "co_filename", None)
    return None if filename is None else _module_layer(filename)


class Profiler:
    """A restartable :class:`cProfile.Profile` with a per-layer report."""

    def __init__(self) -> None:
        self.enabled = False
        self._prof = cProfile.Profile()

    def enable(self) -> "Profiler":
        self._prof.enable()
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self._prof.disable()
        self.enabled = False
        return self

    def reset(self) -> "Profiler":
        """Stop profiling and drop everything recorded so far."""
        self.disable()
        self._prof = cProfile.Profile()
        return self

    def total(self) -> float:
        """Seconds profiled: the sum of every function's own time."""
        return sum(e.inlinetime for e in self._prof.getstats())

    def layers(self) -> Dict[str, float]:
        """``{layer: seconds}``, costliest first; the rows sum to :meth:`total`.

        A function outside the package splits its own time over its callers
        by the time each caller edge recorded; a caller that is itself
        outside splits further over *its* callers.  With ``B`` the shares
        that reach a layer (or no caller: ``OUTSIDE``) and ``A`` those that
        reach another outside function, the splits are the series
        ``B + AB + A^2 B + ...``, so cycles (the import machinery) need no
        special case.
        """
        stats = self._prof.getstats()
        layer = {e.code: _layer_of(e.code) for e in stats}
        outside = [e for e in stats if layer[e.code] is None]
        idx = {e.code: i for i, e in enumerate(outside)}
        names = sorted({name for name in layer.values() if name}) + [OUTSIDE]
        col = {name: j for j, name in enumerate(names)}
        b = np.zeros((len(outside), len(names)))
        ai, aj, av = [], [], []
        for e in stats:
            for sub in e.calls or ():
                i = idx.get(sub.code)
                if i is None:
                    continue  # a package function keeps its own time
                if layer[e.code] is None:
                    ai.append(i)
                    aj.append(idx[e.code])
                    av.append(sub.totaltime)
                else:
                    b[i, col[layer[e.code]]] += sub.totaltime
        a = sparse.csr_matrix((av, (ai, aj)), shape=(len(outside),) * 2)
        called = np.asarray(a.sum(axis=1)).ravel() + b.sum(axis=1)
        total = np.array([e.totaltime for e in outside])
        b[:, -1] = np.maximum(total - called, 0.0)  # calls no profiled frame made
        weight = called + b[:, -1]
        idle = weight == 0.0  # no recorded time to split by: no layer
        b[idle, -1] = weight[idle] = 1.0
        scale = sparse.diags(1.0 / weight)
        a, b = scale @ a, b / weight[:, None]
        split, term = b.copy(), b
        for _ in range(_SERIES_TERMS):
            term = a @ term
            split += term
        split[:, -1] += 1.0 - split.sum(axis=1)  # the truncated tail
        own = np.array([e.inlinetime for e in outside])
        rows = dict(zip(names, (own @ split).tolist()))
        for e in stats:
            if layer[e.code] is not None:
                rows[layer[e.code]] += e.inlinetime
        return dict(sorted(rows.items(), key=lambda kv: kv[1], reverse=True))

    def report(self) -> str:
        total = self.total()
        lines = [
            "host-time profile (cProfile, own time by module layer)",
            f"  {'layer':<24} {'seconds':>9} {'%':>6}",
        ]
        for name, secs in self.layers().items():
            lines.append(f"  {name:<24} {secs:>9.4f} {100 * secs / (total or 1.0):>5.1f}%")
        lines.append(f"  {'total':<24} {total:>9.4f}")
        return "\n".join(lines)


#: The process-global profiler behind ``run --profile``.
PROFILER = Profiler()
