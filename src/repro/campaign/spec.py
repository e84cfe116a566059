"""Declarative campaign specifications.

A :class:`CampaignSpec` names a grid — machine presets × TP configs ×
attacks × seeds (plus per-attack parameter overrides) — and expands it
into concrete :class:`TrialSpec` instances.  Everything is plain data:
specs round-trip through JSON, and trial payloads pickle cleanly into
worker processes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from . import registry


def _params_fingerprint(params: Mapping[str, Any]) -> str:
    """Short stable digest of a parameter dict (order-insensitive)."""
    canonical = json.dumps(params, sort_keys=True, default=str)
    return f"{zlib.crc32(canonical.encode('utf-8')):08x}"


@dataclass(frozen=True)
class TrialSpec:
    """One point of a campaign grid, identified by a stable string key."""

    machine: str
    tp: str
    attack: str
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)

    def key(self) -> str:
        """Stable identifier used for result storage and resume."""
        base = (
            f"machine={self.machine}/tp={self.tp}/"
            f"attack={self.attack}/seed={self.seed}"
        )
        if self.params:
            base += f"/params={_params_fingerprint(self.params)}"
        return base

    def derived_seed(self) -> int:
        """Deterministic per-trial RNG seed: grid seed mixed with the key.

        Distinct trials get distinct streams even for the same grid seed,
        and re-running a trial always reproduces its stream.
        """
        return (zlib.crc32(self.key().encode("utf-8")) << 8) ^ (self.seed & 0xFF)

    def to_payload(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TrialSpec":
        return cls(
            machine=payload["machine"],
            tp=payload["tp"],
            attack=payload["attack"],
            seed=int(payload.get("seed", 0)),
            params=dict(payload.get("params", {})),
        )

    def validate(self) -> None:
        if self.machine not in registry.MACHINES:
            raise KeyError(
                f"unknown machine {self.machine!r}; "
                f"choices: {sorted(registry.MACHINES)}"
            )
        if self.tp not in registry.TP_CONFIGS:
            raise KeyError(
                f"unknown tp config {self.tp!r}; "
                f"choices: {sorted(registry.TP_CONFIGS)}"
            )
        if self.attack not in registry.ATTACKS:
            raise KeyError(
                f"unknown attack {self.attack!r}; "
                f"choices: {sorted(registry.ATTACKS)}"
            )


@dataclass
class CampaignSpec:
    """A grid of trials plus the knobs shared by all of them.

    ``attack_params`` maps attack name -> parameter overrides merged over
    the registry defaults for that attack.  Attacks that need more cores
    than a machine preset provides are skipped for that machine (the
    cross product would otherwise be unsatisfiable for mixed grids).
    """

    machines: Sequence[str] = ("tiny",)
    tps: Sequence[str] = ("full", "none")
    attacks: Sequence[str] = ("e5",)
    seeds: Sequence[int] = (0,)
    attack_params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    name: str = "campaign"

    def trials(self) -> List[TrialSpec]:
        """Expand the grid, skipping core-starved (machine, attack) pairs.

        A machine's core count costs a machine build, so it is read only
        for an attack that needs more than one core.
        """
        cores: Dict[str, int] = {}
        out: List[TrialSpec] = []
        for machine in self.machines:
            if machine not in registry.MACHINES:
                raise KeyError(f"unknown machine preset {machine!r}")
            for attack in self.attacks:
                entry = registry.ATTACKS.get(attack)
                if entry is None:
                    raise KeyError(
                        f"unknown attack {attack!r}; "
                        f"choices: {sorted(registry.ATTACKS)}"
                    )
                if entry.needs_cores > 1:
                    if machine not in cores:
                        cores[machine] = registry.machine_core_count(machine)
                    if entry.needs_cores > cores[machine]:
                        continue
                params = dict(self.attack_params.get(attack, {}))
                for tp in self.tps:
                    for seed in self.seeds:
                        trial = TrialSpec(
                            machine=machine,
                            tp=tp,
                            attack=attack,
                            seed=int(seed),
                            params=params,
                        )
                        trial.validate()
                        out.append(trial)
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "machines": list(self.machines),
            "tps": list(self.tps),
            "attacks": list(self.attacks),
            "seeds": list(self.seeds),
            "attack_params": {
                attack: dict(params)
                for attack, params in self.attack_params.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        known = {
            "name", "machines", "tps", "attacks", "seeds", "attack_params",
        }
        unknown = set(data) - known
        if unknown:
            raise KeyError(f"unknown campaign spec fields: {sorted(unknown)}")
        return cls(
            machines=tuple(data.get("machines", ("tiny",))),
            tps=tuple(data.get("tps", ("full", "none"))),
            attacks=tuple(data.get("attacks", ("e5",))),
            seeds=tuple(int(s) for s in data.get("seeds", (0,))),
            attack_params=dict(data.get("attack_params", {})),
            name=str(data.get("name", "campaign")),
        )

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
