"""Scenario domains: build -> run -> record families, loaded on first use.

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

The domains are one static table of names.  A domain is a name in
``_DOMAINS`` plus a module ``repro.sim.domains.<name>`` that defines
``DOMAIN``; :func:`get_domain` imports that module the first time a cell
of its domain runs, so a process pays only for the domains it runs.
Names arrive from outside the program (stream lines, cache files, specs
on the wire); one that is not in the table raises ``KeyError`` and is
never imported.  :func:`record_class_for` lets the stream reader rebuild
the right record type from a JSONL line's ``domain`` tag.
"""

from __future__ import annotations

import importlib


class ScenarioDomain:
    """Base contract for one scenario family (build -> run -> record)."""

    #: table name; also the ``domain`` field on specs and records
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


#: every scenario domain, sorted: each name is a module of this package
_DOMAINS = ("can", "kernel", "lin", "osek", "soft_error", "vehicle", "vehicle_fault", "wcet")


def get_domain(name: str) -> ScenarioDomain:
    """The domain called ``name``, its module imported on first use."""
    if name not in _DOMAINS:
        raise KeyError(f"unknown scenario domain {name!r}; registered: {', '.join(_DOMAINS)}")
    return importlib.import_module(f"{__name__}.{name}").DOMAIN


def domain_names() -> tuple[str, ...]:
    return _DOMAINS


def record_class_for(name: str) -> type:
    """The record class a stream line or cache file tagged ``name`` holds.

    ``cell_error`` is the service's per-cell failure record: it rides the
    same streams as domain records, but no spec can name it, so it has
    no domain behind it.
    """
    if name == "cell_error":
        from repro.sim.campaign import CellErrorRecord

        return CellErrorRecord
    return get_domain(name).record_class


__all__ = [
    "ScenarioDomain",
    "get_domain",
    "domain_names",
    "record_class_for",
]
