"""Query schema and wire protocol of the SER service.

One characterized model — yield LUTs, POF tables, array layout — can
answer many SER questions; this module defines the *question*: a
:class:`QuerySpec` naming everything that changes the answer (tech
card, particles, spectrum binning, Vdd range, array geometry, MC
budgets, seed, optional adaptive sampling and ECC/interleave
analysis) and nothing that doesn't (worker counts, sockets, cache
locations live on :class:`~repro.service.engine.ExecutionOptions`).

Canonicalization is the load-bearing part: :meth:`QuerySpec.canonical_key`
maps a spec onto the same sha256 configuration hash family the
:class:`~repro.io.ArtifactCache` keys artifacts by, so two clients
asking the same question — in any field order, over any front-end —
land on one key.  The engine coalesces in-flight requests and
memoizes completed results on that key, and the flow's own disk cache
keys (derived from the identical :class:`~repro.core.FlowConfig`)
line up underneath it.

The wire format is newline-delimited JSON, one object per line, over
a unix or TCP socket:

* requests: ``{"op": "query", "id": ..., "tenant": ..., "spec":
  {...}, "watch": bool}``, plus ``ping`` / ``stats`` / ``shutdown``.
* responses: ``{"id": ..., "ok": true, "result": {...}, "source":
  "campaign" | "coalesced" | "memo", "wall_s": ...}`` or ``{"ok":
  false, "error": ..., "code": "bad-request" | "rejected" |
  "failed"}``.
* progress (only with ``watch``): ``{"id": ..., "event": {...}}``
  lines interleaved while the campaign runs, fanned out from the live
  :class:`~repro.obs.events.EventRing`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from ..errors import ConfigError, ReproError
from ..io import config_hash

__all__ = [
    "QueryError",
    "QuerySpec",
    "decode_line",
    "encode_line",
    "ECC_SCHEMES",
]

#: ECC schemes a query may ask to fold over the MBU statistics (see
#: :mod:`repro.reliability.ecc`).
ECC_SCHEMES = ("none", "SEC-DED", "DEC-TED")


class QueryError(ConfigError):
    """A request that cannot be turned into a well-formed campaign."""


def _is_json_type(hint, value) -> bool:
    """Whether ``value`` is a JSON value of the field type ``hint``.

    An integer is not a bool, a float may be an integer, and a list
    field takes a list, not a string.
    """
    if get_origin(hint) is Union:
        return any(_is_json_type(arg, value) for arg in get_args(hint))
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(
            _is_json_type(item, entry) for entry in value
        )
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass(frozen=True)
class QuerySpec:
    """One SER question, canonicalized.

    Field defaults mirror the ``repro-ser`` CLI defaults, so an empty
    query asks exactly what a bare ``repro-ser sweep`` computes.
    """

    # what to sweep
    particles: Tuple[str, ...] = ("alpha", "proton")
    vdd_list: Tuple[float, ...] = (0.7, 0.8, 0.9, 1.0, 1.1)
    # array geometry / data
    array_rows: int = 9
    array_cols: int = 9
    data_pattern: str = "uniform"
    # spectrum folding
    n_energy_bins: int = 8
    # MC budgets
    mc_particles: int = 50000
    samples: int = 200
    yield_trials: int = 20000
    yield_points: int = 13
    seed: int = 2014
    variation: bool = True
    # adaptive sampling (changes results => part of the key)
    adaptive: bool = False
    target_se: float = 5e-4
    target_se_relative: bool = False
    max_trials: Optional[int] = None
    pilot_trials: int = 8192
    # optional ECC / interleaving analysis riding on the sweep
    ecc: Optional[str] = None
    interleave: int = 4
    ecc_pair_particles: int = 20000

    def __post_init__(self):
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if not _is_json_type(_FIELD_TYPES[spec_field.name], value):
                raise QueryError(
                    f"spec field {spec_field.name!r} must be "
                    f"{spec_field.type}, got {value!r}"
                )
        # normalize list-ish inputs and integer spellings of floats, so
        # from_dict(json) and native construction canonicalize
        # identically and equal specs get one key
        object.__setattr__(
            self, "particles", tuple(str(p) for p in self.particles)
        )
        object.__setattr__(
            self, "vdd_list", tuple(float(v) for v in self.vdd_list)
        )
        for name in _FLOAT_FIELDS:
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.ecc is not None and self.ecc not in ECC_SCHEMES:
            raise QueryError(
                f"unknown ecc scheme {self.ecc!r} (one of {ECC_SCHEMES})"
            )
        if self.interleave < 1:
            raise QueryError("interleave distance must be >= 1")
        if self.ecc_pair_particles < 1:
            raise QueryError("ecc_pair_particles must be positive")
        # every other range is checked once, by the config that holds it
        self.to_flow_config()

    @classmethod
    def from_dict(cls, payload: dict) -> "QuerySpec":
        """Build a spec from a decoded request, rejecting junk fields."""
        if not isinstance(payload, dict):
            raise QueryError("spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(f"unknown spec field(s): {unknown}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"malformed spec: {exc}") from exc

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["particles"] = list(self.particles)
        payload["vdd_list"] = list(self.vdd_list)
        return payload

    def to_flow_config(self):
        """The :class:`~repro.core.FlowConfig` this query compiles to.

        This is *the* canonical compilation — the CLI front-end builds
        its flows through the same path (see
        :func:`~repro.service.engine.build_flow`), so a query and the
        equivalent one-shot command produce bit-identical results and
        share every artifact-cache key.
        """
        from ..core import FlowConfig
        from ..ser import AdaptiveConfig
        from ..sram import CharacterizationConfig

        try:
            # built even when unused, so its range checks hold for
            # every query: a bad adaptive field is a bad request, not a
            # field the key silently drops
            adaptive = AdaptiveConfig(
                target_se=self.target_se,
                relative_target=self.target_se_relative,
                pilot_trials=self.pilot_trials,
                max_trials=self.max_trials,
            )
            return FlowConfig(
                particles=self.particles,
                vdd_list=self.vdd_list,
                yield_trials_per_energy=self.yield_trials,
                yield_energy_points=self.yield_points,
                characterization=CharacterizationConfig(
                    n_samples=self.samples
                ),
                process_variation=self.variation,
                array_rows=self.array_rows,
                array_cols=self.array_cols,
                data_pattern=self.data_pattern,
                n_energy_bins=self.n_energy_bins,
                mc_particles_per_bin=self.mc_particles,
                seed=self.seed,
                adaptive=adaptive if self.adaptive else None,
            )
        except ReproError as exc:
            raise QueryError(str(exc)) from exc

    def canonical_key(self) -> str:
        """The request's identity: the artifact-cache hash of its campaign.

        Built from the compiled flow configuration, the default cell's
        technology card (the one cell the service serves), and the
        service-only analysis fields — the same ``config_hash`` family
        (and the same leading components) the flow's sweep artifact is
        cached under, so request coalescing, result memoization, and
        the disk cache all agree on what "identical query" means.
        """
        from ..devices import default_tech

        return config_hash(
            self.to_flow_config(),
            default_tech(),
            {
                "particles": list(self.particles),
                "vdds": list(self.vdd_list),
                "ecc": self.ecc,
                "interleave": self.interleave if self.ecc else None,
                "ecc_pair_particles": (
                    self.ecc_pair_particles if self.ecc else None
                ),
            },
        )


#: Resolved once, not per spec: resolving the annotations costs more
#: than the rest of a spec's construction.
_FIELD_TYPES = get_type_hints(QuerySpec)
_FLOAT_FIELDS = tuple(
    name for name, hint in _FIELD_TYPES.items() if hint is float
)


def encode_line(message: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    return (json.dumps(message, sort_keys=True, default=str) + "\n").encode(
        "utf-8"
    )


def decode_line(line: bytes) -> dict:
    """Parse one wire line; raises :class:`QueryError` on junk."""
    try:
        message = json.loads(line.decode("utf-8", errors="replace"))
    except json.JSONDecodeError as exc:
        raise QueryError(f"undecodable request line: {exc}") from exc
    if not isinstance(message, dict):
        raise QueryError("request must be a JSON object")
    return message
