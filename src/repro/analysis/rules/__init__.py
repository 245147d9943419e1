"""The project-specific rule set (imported for registration side effects).

Each submodule defines and registers one rule:

- :mod:`~repro.analysis.rules.r001_index_mutation` — index writes stay in
  the maintenance layer;
- :mod:`~repro.analysis.rules.r002_private_access` — no cross-object
  ``_private`` attribute pokes;
- :mod:`~repro.analysis.rules.r003_async_blocking` — no blocking calls in
  ``async def`` bodies;
- :mod:`~repro.analysis.rules.r004_set_iteration` — no set iteration
  order leaking into ordered results;
- :mod:`~repro.analysis.rules.r005_mutable_defaults` — no mutable default
  arguments;
- :mod:`~repro.analysis.rules.r006_exports` — every public module has an
  ``__all__`` consistent with ``docs/API.md``;
- :mod:`~repro.analysis.rules.r007_obs_events` — no ``print``/``logging``
  in the engine/service layers (use :mod:`repro.obs.events`);
- :mod:`~repro.analysis.rules.r013_interned_arrays` — no writes to the
  interned adjacency arrays or the index's mask maps outside their
  owners.

The whole-program rules (``phase = "program"``) consume the phase-1
facts from :mod:`repro.analysis.program`:

- :mod:`~repro.analysis.rules.r008_nondeterminism` — no nondeterminism
  sources reachable from equivalence-gated code;
- :mod:`~repro.analysis.rules.r009_distmap_aliasing` — shared
  ``DistanceMap`` masters are cloned before injection;
- :mod:`~repro.analysis.rules.r010_async_races` — no unsynchronized
  attribute writes across concurrent entry points;
- :mod:`~repro.analysis.rules.r011_protocol_drift` — the four
  wire-protocol surfaces agree on the op set;
- :mod:`~repro.analysis.rules.r012_obs_names` — emitted metric/event
  names match the ``docs/OBSERVABILITY.md`` schema;
- :mod:`~repro.analysis.rules.w001_unused_noqa` — stale
  ``# repro: noqa[RULE]`` suppressions are reported.
"""

from repro.analysis.rules import (  # noqa: F401  (registration imports)
    r001_index_mutation,
    r002_private_access,
    r003_async_blocking,
    r004_set_iteration,
    r005_mutable_defaults,
    r006_exports,
    r007_obs_events,
    r008_nondeterminism,
    r009_distmap_aliasing,
    r010_async_races,
    r011_protocol_drift,
    r012_obs_names,
    r013_interned_arrays,
    w001_unused_noqa,
)

__all__ = [
    "r001_index_mutation",
    "r002_private_access",
    "r003_async_blocking",
    "r004_set_iteration",
    "r005_mutable_defaults",
    "r006_exports",
    "r007_obs_events",
    "r008_nondeterminism",
    "r009_distmap_aliasing",
    "r010_async_races",
    "r011_protocol_drift",
    "r012_obs_names",
    "r013_interned_arrays",
    "w001_unused_noqa",
]
