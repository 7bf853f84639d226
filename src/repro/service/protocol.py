"""The wire protocol of the experiment-serving subsystem.

Newline-delimited JSON over TCP: every request and every response is one
JSON object on one line.  A connection carries any number of requests;
responses are written in request order (the ``watch`` verb additionally
streams intermediate event lines before its final response).

Every message carries the schema version (``"v"``) so old clients fail
loudly against new servers instead of misparsing.  Experiment
configurations travel in the exact canonical form the campaign cache
fingerprints (:func:`repro.core.campaign._jsonable`), so a config that
round-trips through the wire has -- by construction -- the same
:func:`~repro.core.campaign.cache_key` on both ends.

Verbs:

``submit``
    Queue one :class:`~repro.core.experiment.ExperimentConfig`.  With
    ``"wait": true`` (the default for :class:`~repro.service.client.ServiceClient`),
    the response carries the finished cell; otherwise it returns a job id
    immediately for later ``status`` / ``result`` calls.
``status``  -- job state (queued / running / done / failed / cancelled).
``result``  -- block until a job finishes and return its sample set.
``watch``   -- stream job state transitions as they happen.
``cancel``  -- abandon a queued job.
``stats``   -- service counters and per-stage latency percentiles.
``shutdown`` -- graceful drain: reject new work, finish admitted work.

Route-tier verbs (the fleet layer, :mod:`repro.fleet`):

``register``
    A worker announces itself to a router (``name``, ``host``, ``port``)
    and joins the consistent-hash ring.  Idempotent: re-registering
    updates the endpoint and marks the worker up.  The router writes
    nothing after the reply; the worker holds the connection idle and
    registers again once the router closes it.
``heartbeat``
    A plain liveness ping that either tier answers the same way
    (``alive``, ``uptime_s``, ``draining``).  The router's health probes
    send it to workers; workers never send it.
``fleet_stats``
    Router-only: per-worker health/forward counters, ring membership and
    admission-lane gauges, alongside the router's own ``stats`` shape.

Error responses may carry a ``retry_after_s`` hint (load shedding, no
live worker) telling a well-behaved client when to try again instead of
hammering a saturated tier.

A result's ``sample_set`` field is one ``repro.sample_set/2`` document
(:mod:`repro.core.export`) as a JSON string, always the message's last
field.  A tier escapes each result into that string literal once, when
it enters its :class:`~repro.service.store.ResultStore`, and
:func:`encode_message` splices the literal into every reply that carries
the result; the line is byte-identical to encoding the decoded text.
No message line may exceed
:data:`MAX_LINE_BYTES`: :func:`encode_message` raises
:class:`MessageTooLarge` instead of producing one, and a worker or router
whose result would not fit answers ``too-large`` (naming the size and the
cap) and counts it under ``too_large``.  The client fails the same way,
with a ``too-large`` :class:`~repro.service.client.ServiceError`, if a
line from a peer with a larger cap reaches its own cap.  Retrying cannot
help: the same cell encodes to the same size.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.core.campaign import _jsonable
from repro.core.experiment import ExperimentConfig
from repro.drivers.latency import LatencyToolConfig
from repro.kernel.dpc import DpcImportance
from repro.kernel.intrusions import (
    AppThreadSpec,
    DeviceActivitySpec,
    IntrusionKind,
    IntrusionSpec,
    LoadProfile,
    WorkItemLoadSpec,
)
from repro.sim.rng import DurationDistribution

#: Bump on any incompatible message-shape change.
PROTOCOL_VERSION = 1

#: Upper bound on one NDJSON line.  A sample set costs about 21 bytes per
#: sample on the wire (nt4/office: ~9.4 KB per simulated second), so 64 MB
#: holds cells of about two simulated hours while still bounding a
#: misbehaving peer.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: The verbs a server must implement.
VERBS = (
    "submit", "status", "result", "watch", "cancel", "stats", "shutdown",
    # Route tier (repro.fleet): worker registration, liveness, fleet view.
    "register", "heartbeat", "fleet_stats",
)

#: Machine-readable error codes used in ``{"ok": false}`` responses.
ERROR_CODES = (
    "bad-request",
    "unsupported-version",
    "overloaded",
    "shutting-down",
    "not-found",
    "deadline",
    "cancelled",
    "not-cancellable",
    "failed",
    "unavailable",  # no live worker could serve the key (router tier)
    "too-large",  # the result does not fit in one MAX_LINE_BYTES line
)


class ProtocolError(ValueError):
    """A message that cannot be parsed or fails schema validation."""


class MessageTooLarge(ProtocolError):
    """A message whose encoded line would exceed :data:`MAX_LINE_BYTES`."""


# ----------------------------------------------------------------------
# Config (de)serialization
# ----------------------------------------------------------------------
#: Dataclasses that may appear inside an ExperimentConfig on the wire.
_DATACLASSES = {
    cls.__name__: cls
    for cls in (
        ExperimentConfig,
        LatencyToolConfig,
        LoadProfile,
        IntrusionSpec,
        DeviceActivitySpec,
        WorkItemLoadSpec,
        AppThreadSpec,
        DurationDistribution,
    )
}

#: Enums that may appear inside an ExperimentConfig on the wire.
_ENUMS = {cls.__name__: cls for cls in (DpcImportance, IntrusionKind)}


def config_to_wire(config: ExperimentConfig) -> Dict[str, Any]:
    """Reduce a config to the canonical JSON form the cache fingerprints."""
    return _jsonable(config)


def _from_wire(value):
    if isinstance(value, dict):
        if "__dataclass__" in value:
            name = value["__dataclass__"]
            cls = _DATACLASSES.get(name)
            if cls is None:
                raise ProtocolError(f"unknown config dataclass {name!r}")
            kwargs = {k: _from_wire(v) for k, v in value.items() if k != "__dataclass__"}
            try:
                return cls(**kwargs)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid {name} payload: {exc}") from exc
        if "__enum__" in value:
            name = value["__enum__"]
            cls = _ENUMS.get(name)
            if cls is None:
                raise ProtocolError(f"unknown config enum {name!r}")
            try:
                return cls(value["value"])
            except (KeyError, ValueError) as exc:
                raise ProtocolError(f"invalid {name} payload: {exc}") from exc
        return {k: _from_wire(v) for k, v in value.items()}
    if isinstance(value, list):
        # Configs use tuples for immutability only; the fingerprint treats
        # list and tuple identically, so rebuilding as tuples preserves
        # the cache key exactly.
        return tuple(_from_wire(item) for item in value)
    return value


def config_from_wire(payload: Dict[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from its wire form.

    Inverse of :func:`config_to_wire`: the result fingerprints (and hence
    cache-keys) identically to the config the client serialized.
    """
    if not isinstance(payload, dict) or payload.get("__dataclass__") != "ExperimentConfig":
        raise ProtocolError("config payload is not a serialized ExperimentConfig")
    config = _from_wire(payload)
    if not isinstance(config, ExperimentConfig):
        raise ProtocolError("config payload did not decode to an ExperimentConfig")
    return config


# ----------------------------------------------------------------------
# Endpoints and message framing
# ----------------------------------------------------------------------
def parse_endpoint(text: str) -> Tuple[str, int]:
    """Split ``"HOST:PORT"`` into ``(host, port)``; an empty host means
    ``127.0.0.1``.  Raises :class:`ValueError` on anything else."""
    host, colon, port = text.rpartition(":")
    if colon and port.isascii() and port.isdigit() and 1 <= int(port) <= 65535:
        return host or "127.0.0.1", int(port)
    raise ValueError(f"expected HOST:PORT with port 1..65535, got {text!r}")


def encode_message(payload: Dict[str, Any], sample_set: Optional[bytes] = None) -> bytes:
    """One NDJSON line, versioned and ready for the socket.

    ``sample_set``, a result's :func:`~repro.core.campaign.json_literal`,
    is spliced in unescaped as the last field, ``"sample_set"``: the line
    is byte-identical to encoding ``payload`` with the decoded text as
    that field.

    Raises :class:`MessageTooLarge` if the line would exceed
    :data:`MAX_LINE_BYTES`, which no peer would read.
    """
    payload.setdefault("v", PROTOCOL_VERSION)
    head = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if sample_set is None:
        line = head + b"\n"
    else:
        line = b"".join((head[:-1], b',"sample_set":', sample_set, b"}\n"))
    if len(line) > MAX_LINE_BYTES:
        raise MessageTooLarge(
            f"a {len(line)}-byte message exceeds the {MAX_LINE_BYTES}-byte line cap"
        )
    return line


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line; raise :class:`ProtocolError` on any mismatch."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"unparsable message: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("message is not a JSON object")
    if payload.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {payload.get('v')!r} "
            f"(this end speaks {PROTOCOL_VERSION})"
        )
    return payload


def request(verb: str, req_id: Optional[str] = None, **fields) -> Dict[str, Any]:
    """Build a request message."""
    if verb not in VERBS:
        raise ProtocolError(f"unknown verb {verb!r}")
    payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "verb": verb}
    if req_id is not None:
        payload["id"] = req_id
    payload.update(fields)
    return payload


def ok_response(req_id: Optional[str], **fields) -> Dict[str, Any]:
    """Build a success response."""
    payload: Dict[str, Any] = {"v": PROTOCOL_VERSION, "ok": True}
    if req_id is not None:
        payload["id"] = req_id
    payload.update(fields)
    return payload


def error_response(
    req_id: Optional[str],
    code: str,
    message: str,
    retry_after_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Build an error response with a machine-readable code.

    ``retry_after_s`` attaches the backoff hint load-shedding responses
    carry; clients surface it on :class:`~repro.service.client.ServiceError`
    and the async client honors it automatically.
    """
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = round(float(retry_after_s), 4)
    payload: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "ok": False,
        "error": error,
    }
    if req_id is not None:
        payload["id"] = req_id
    return payload
