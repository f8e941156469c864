"""Mapping-as-a-service: the persistent compile daemon and its parts.

The service layer promotes the pieces the experiments already had --
engines behind one :class:`repro.core.engine.Engine` protocol, a
process-pool batch runner, and a content-hash-keyed JSONL cache -- into a
long-lived serving surface:

* :mod:`repro.service.store` -- the sharded content-addressed result
  store (also the backing implementation of the batch runner's JSONL
  cache);
* :mod:`repro.service.jobs` -- request validation, the job model, and
  the priority worker pool with warm per-worker fabric state;
* :mod:`repro.service.server` -- the stdlib-only HTTP daemon
  (``repro-serve start``);
* :mod:`repro.service.client` -- the thin ``http.client`` client, one
  kept-alive connection per calling thread, used by the tests and by
  ``repro-map map --remote``.

Everything is standard library on top of the existing mapping engines:
no web framework, no serialization dependency.
"""

from repro.service.store import ResultStore, content_key

__all__ = ["ResultStore", "content_key"]
