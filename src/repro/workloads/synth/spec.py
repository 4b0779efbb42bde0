"""On-disk scenario specifications: the reproducible unit of a workload.

A :class:`ScenarioSpec` is everything needed to re-run a generated
adaptive scenario: the generator class and seed it came from, the base
mesh/solver knobs, the generator knobs (defaults materialised, so a spec
never depends on what a future default happens to be), and the fully
expanded per-phase *schedule* — where every feature sits at every phase,
how wide the refinement band is, how deep refinement may go.  The
schedule is data, not code: replaying it draws no random numbers, so a
spec pins its scenario bit-for-bit.

Specs round-trip through canonical JSON (sorted keys, no whitespace);
:meth:`ScenarioSpec.content_hash` is the sha256 of that canonical form
and is what the experiment cache folds into its run signature.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union

__all__ = [
    "SPEC_VERSION",
    "SPEC_SUFFIX",
    "Feature",
    "PhaseSpec",
    "ScenarioSpec",
    "load_spec",
]

SPEC_VERSION = 1

#: filename convention for generated scenarios (``<name>.scenario.json``)
SPEC_SUFFIX = ".scenario.json"

Knobs = Tuple[Tuple[str, float], ...]


@dataclass(frozen=True)
class Feature:
    """One refinement-driving feature at one phase.

    ``kind`` is ``"front"`` (a line with unit normal ``(nx, ny)`` through
    ``(cx, cy)``) or ``"blob"`` (a circle of ``radius`` around
    ``(cx, cy)``); the signed distance of a point to the feature is what
    the band indicator and the forcing field consume.
    """

    kind: str
    cx: float
    cy: float
    nx: float = 1.0
    ny: float = 0.0
    radius: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("front", "blob"):
            raise ValueError(f"unknown feature kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "cx": self.cx,
            "cy": self.cy,
            "nx": self.nx,
            "ny": self.ny,
            "radius": self.radius,
            "amplitude": self.amplitude,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Feature":
        return cls(
            kind=str(d["kind"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            nx=float(d["nx"]),
            ny=float(d["ny"]),
            radius=float(d["radius"]),
            amplitude=float(d["amplitude"]),
        )


@dataclass(frozen=True)
class PhaseSpec:
    """The scenario at one adaptation phase (all features + band knobs)."""

    features: Tuple[Feature, ...]
    band: float
    max_level: int
    coarsen_distance: float
    thickness: float

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("a phase needs at least one feature")
        if self.band <= 0:
            raise ValueError(f"band must be positive, got {self.band}")
        if self.thickness <= 0:
            raise ValueError(f"thickness must be positive, got {self.thickness}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "features": [f.to_dict() for f in self.features],
            "band": self.band,
            "max_level": self.max_level,
            "coarsen_distance": self.coarsen_distance,
            "thickness": self.thickness,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PhaseSpec":
        return cls(
            features=tuple(Feature.from_dict(f) for f in d["features"]),
            band=float(d["band"]),
            max_level=int(d["max_level"]),
            coarsen_distance=float(d["coarsen_distance"]),
            thickness=float(d["thickness"]),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible scenario (hashable, JSON round-trippable)."""

    name: str
    scenario_class: str
    seed: int
    mesh_n: int
    phases: int
    solver_iters: int
    knobs: Knobs
    schedule: Tuple[PhaseSpec, ...]
    version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {self.version} (this build reads {SPEC_VERSION})"
            )
        if len(self.schedule) != self.phases:
            raise ValueError(
                f"schedule has {len(self.schedule)} phases, spec says {self.phases}"
            )
        if self.mesh_n < 2 or self.phases < 1 or self.solver_iters < 1:
            raise ValueError("mesh_n >= 2, phases >= 1, solver_iters >= 1 required")

    # -- knob access ------------------------------------------------------------

    @property
    def knob_dict(self) -> Dict[str, float]:
        return dict(self.knobs)

    # -- canonical JSON ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "name": self.name,
            "scenario_class": self.scenario_class,
            "seed": self.seed,
            "mesh_n": self.mesh_n,
            "phases": self.phases,
            "solver_iters": self.solver_iters,
            "knobs": {k: v for k, v in sorted(self.knobs)},
            "schedule": [p.to_dict() for p in self.schedule],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators, trailing newline."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=str(d["name"]),
            scenario_class=str(d["scenario_class"]),
            seed=int(d["seed"]),
            mesh_n=int(d["mesh_n"]),
            phases=int(d["phases"]),
            solver_iters=int(d["solver_iters"]),
            knobs=tuple(sorted((str(k), float(v)) for k, v in d["knobs"].items())),
            schedule=tuple(PhaseSpec.from_dict(p) for p in d["schedule"]),
            version=int(d.get("version", SPEC_VERSION)),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """sha256 of the canonical JSON — the spec's identity everywhere.

        Computed on the first call.  The spec is frozen, so the digest
        cannot go stale; it lives in the instance ``__dict__``, not in a
        dataclass field, so equality and ``repr`` see only the spec.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            digest = hashlib.sha256(self.to_json().encode()).hexdigest()
            self.__dict__["_content_hash"] = digest
        return digest

    # -- files ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the canonical JSON to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def default_filename(self) -> str:
        return f"{self.name}{SPEC_SUFFIX}"


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` back from disk."""
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no scenario spec at {p}")
    return ScenarioSpec.from_json(p.read_text())
