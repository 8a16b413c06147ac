"""Scenario-domain registry: pluggable build -> run -> record families.

A *scenario domain* is one family of campaign cells - CPU kernels, OSEK
task sets, CAN traffic matrices, soft-error sweeps - behind a common
contract so the campaign runner (:mod:`repro.sim.campaign`) can sweep,
shard, and stream any mix of them:

* ``build(spec)`` synthesizes the scenario from the spec alone (task sets,
  traffic matrices, compiled programs); all randomness comes from
  ``spec.rng()``, so the built scenario is a pure function of the spec;
* ``execute(spec, built)`` runs it and returns the domain's record - a
  flat dataclass of JSON-able fields carrying a ``domain`` tag, a
  ``verified`` property, and a ``status`` property (``"ok"`` on every
  computed record; only the service's :class:`~repro.sim.campaign.
  CellErrorRecord` carries ``status`` as a real ``"error"`` field,
  because that is the one status that must ride the stream);
* ``run(spec)`` is build + execute (the campaign worker entry).

Domains register here by name; :func:`record_class_for` lets the stream
reader rebuild the right record type from a JSONL line's ``domain`` tag.
Third-party domains can call :func:`register_domain` themselves - nothing
in the runner is specific to the four built-ins.
"""

from __future__ import annotations


class ScenarioDomain:
    """Base contract for one scenario family (build -> run -> record)."""

    #: registry name; also the ``domain`` field on specs and records
    name: str = ""
    #: the record dataclass this domain produces (stream reconstruction)
    record_class: type | None = None

    def build(self, spec):
        """Synthesize the scenario from the spec (pure function of it)."""
        raise NotImplementedError

    def execute(self, spec, built):
        """Run a built scenario; return an instance of ``record_class``."""
        raise NotImplementedError

    def run(self, spec):
        """Worker entry: build then execute."""
        return self.execute(spec, self.build(spec))


_REGISTRY: dict[str, ScenarioDomain] = {}


def _check_record_contract(name: str, record_class: type) -> None:
    """Record classes must expose the typed accessors the service and
    stream readers rely on.  ``hasattr`` sees properties on the class
    without instantiating, so field-less contracts validate for free."""
    for accessor in ("status", "verified"):
        if not hasattr(record_class, accessor):
            raise ValueError(
                f"record class {record_class.__name__!r} for {name!r} "
                f"must define a {accessor!r} property (or field)")


def register_domain(domain: ScenarioDomain) -> ScenarioDomain:
    """Add a domain to the registry (name must be new and non-empty)."""
    if not domain.name:
        raise ValueError("scenario domain needs a non-empty name")
    if domain.record_class is None:
        raise ValueError(f"domain {domain.name!r} needs a record_class")
    if domain.name in _REGISTRY:
        raise ValueError(f"scenario domain {domain.name!r} already registered")
    _check_record_contract(domain.name, domain.record_class)
    _REGISTRY[domain.name] = domain
    return domain


def get_domain(name: str) -> ScenarioDomain:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown scenario domain {name!r}; "
                       f"registered: {', '.join(domain_names())}") from None


def domain_names() -> list[str]:
    return sorted(_REGISTRY)


#: record classes with no runnable domain behind them (e.g. the campaign
#: service's per-cell ``cell_error`` records): the stream reader must
#: rebuild them, but no spec may name them as a scenario family
_RECORD_ONLY: dict[str, type] = {}


def register_record_class(name: str, record_class: type) -> None:
    """Register a stream-reconstructible record with no scenario domain."""
    if not name:
        raise ValueError("record class registration needs a non-empty name")
    if name in _REGISTRY or name in _RECORD_ONLY:
        raise ValueError(f"record domain {name!r} already registered")
    _check_record_contract(name, record_class)
    _RECORD_ONLY[name] = record_class


def record_class_for(name: str) -> type:
    if name in _RECORD_ONLY:
        return _RECORD_ONLY[name]
    return get_domain(name).record_class


# Built-in domains register on import (import order is alphabetical-ish
# but irrelevant: registration is name-keyed and side-effect free).
from repro.sim.domains import can as _can            # noqa: E402
from repro.sim.domains import kernel as _kernel      # noqa: E402
from repro.sim.domains import lin as _lin            # noqa: E402
from repro.sim.domains import osek as _osek          # noqa: E402
from repro.sim.domains import soft_error as _soft    # noqa: E402
from repro.sim.domains import vehicle as _vehicle    # noqa: E402
from repro.sim.domains import vehicle_fault as _vfault  # noqa: E402
from repro.sim.domains import wcet as _wcet          # noqa: E402

for _module in (_kernel, _osek, _can, _soft, _vehicle, _lin, _wcet,
                _vfault):
    register_domain(_module.DOMAIN)

# The service's per-cell failure records ride the same streams as domain
# records (same JSONL framing, same ``domain`` tag dispatch) but no spec
# can name them: record-only registration.
from repro.sim.campaign import CellErrorRecord as _cell_error  # noqa: E402

register_record_class("cell_error", _cell_error)

__all__ = [
    "ScenarioDomain",
    "register_domain",
    "register_record_class",
    "get_domain",
    "domain_names",
    "record_class_for",
]
