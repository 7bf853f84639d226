"""Exporting measurement data for external analysis.

A downstream user will want the raw distributions in their own plotting
stack; this module serialises :class:`~repro.core.samples.SampleSet`
objects to CSV and JSON (and loads them back), preserving everything needed
to recompute any figure offline.

The sample-set document, ``repro.sample_set/2``
-----------------------------------------------

:func:`sample_set_to_json` writes one JSON object.  It is also what the
campaign cache stores and what the service's ``sample_set`` wire field
carries (as a JSON string)::

    {"schema": "repro.sample_set/2", "os": "nt4", "workload": "office",
     "duration_s": 20.0, "cpu_hz": 300000000, "n": 8725,
     "columns": {"seq": "eJx...", "priority": "eJx...", ...}}

* Header: ``schema``, ``os``, ``workload``, ``duration_s``, ``cpu_hz`` and
  ``n``, the row count.
* ``columns``: the eight :class:`~repro.core.samples.SampleColumns` fields
  in ``__slots__`` order (``seq``, ``priority``, ``t_read``,
  ``delay_cycles``, ``t_assert``, ``t_isr``, ``t_dpc``, ``t_thread``).
  Each holds its ``n`` values as little-endian int64 bytes, compressed with
  ``zlib.compress(data, 1)`` and then base64-encoded.  ``-1`` marks a
  timestamp that was not recorded (``None`` on a
  :class:`~repro.core.samples.RawSample`).

zlib level 1 is a constant, not an option: on 20 simulated seconds of
nt4/office (8,725 samples) it gives 0.187 MB against 0.185 MB at level 6,
for a quarter of the encode time.  The decoder builds the columns straight
from those bytes, with no Python object per sample, and checks every field:
any malformed document raises :class:`ValueError`.

One sample set always encodes to the same text under one zlib build, which
is what the served == serial byte-identity tests compare.  Another zlib
build may compress differently, so across hosts the contract is the decoded
sample stream, which the golden fingerprints hash.

``repro.sample_set/1`` (one JSON object per sample) is read-only: the
decoder still accepts it, nothing writes it.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import sys
import zlib
from array import array
from typing import List, Optional

from repro.core.samples import SampleColumns, SampleSet
from repro.sim.clock import CpuClock

#: The document :func:`sample_set_to_json` writes.
SCHEMA = "repro.sample_set/2"

#: The per-sample JSON document of earlier releases; decoded, never written.
SCHEMA_V1 = "repro.sample_set/1"

#: CSV column order for raw samples (also the v2 column order).
CSV_FIELDS = SampleColumns.__slots__

_ZLIB_LEVEL = 1
_BIG_ENDIAN = sys.byteorder == "big"


def sample_set_to_csv(sample_set: SampleSet) -> str:
    """Serialise raw samples as CSV (one row per measurement cycle).

    Times are raw TSC cycle values; a ``# header`` comment row carries the
    metadata needed to interpret them.  Unrecorded timestamps are blank.
    """
    buffer = io.StringIO()
    buffer.write(
        f"# os={sample_set.os_name} workload={sample_set.workload} "
        f"duration_s={sample_set.duration_s} cpu_hz={sample_set.clock.hz}\n"
    )
    writer = csv.writer(buffer)
    writer.writerow(CSV_FIELDS)
    for row in sample_set.columns.fingerprint_stream():
        writer.writerow(row[:4] + tuple("" if v == -1 else v for v in row[4:]))
    return buffer.getvalue()


def sample_set_from_csv(text: str) -> SampleSet:
    """Inverse of :func:`sample_set_to_csv`."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing metadata header row")
    metadata = dict(token.partition("=")[::2] for token in lines[0].lstrip("# ").split())
    columns = SampleColumns()
    for row in csv.DictReader(io.StringIO("\n".join(lines[1:]))):
        columns.append_cycle(
            *(int(row[name]) for name in CSV_FIELDS[:4]),
            *(None if row[name] == "" else int(row[name]) for name in CSV_FIELDS[4:]),
        )
    return SampleSet(
        clock=CpuClock(hz=int(metadata["cpu_hz"])),
        os_name=metadata["os"],
        workload=metadata["workload"],
        duration_s=float(metadata["duration_s"]),
        columns=columns,
    )


def _pack(column: array) -> str:
    if _BIG_ENDIAN:
        column = array("q", column)
        column.byteswap()
    return base64.b64encode(zlib.compress(column.tobytes(), _ZLIB_LEVEL)).decode("ascii")


def _unpack(name: str, text: object, n: int) -> array:
    """One column back from its base64 zlib text, checked against ``n``."""
    if not isinstance(text, str):
        raise ValueError(f"column {name!r} is missing or not a string")
    inflater = zlib.decompressobj()
    try:
        # Never inflate past the n rows the header promises.
        raw = inflater.decompress(base64.b64decode(text, validate=True), 8 * n + 1)
    except (ValueError, zlib.error) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"column {name!r} is not base64 zlib data: {exc}") from None
    if len(raw) > 8 * n:
        raise ValueError(f"column {name!r} holds more than the header's n={n} rows")
    if not inflater.eof:
        raise ValueError(f"column {name!r} is a truncated zlib stream")
    if len(raw) % 8:
        raise ValueError(f"column {name!r} holds {len(raw)} bytes, not whole int64s")
    if len(raw) != 8 * n:
        raise ValueError(f"column {name!r} holds {len(raw) // 8} rows, header says n={n}")
    column = array("q", raw)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _v1_columns(records: object) -> SampleColumns:
    """The sample records of a ``repro.sample_set/1`` document as columns."""
    columns = SampleColumns()
    append = columns.append_cycle
    try:
        for r in records:
            append(r["seq"], r["priority"], r["t_read"], r["delay_cycles"],
                   r.get("t_assert"), r.get("t_isr"), r.get("t_dpc"), r.get("t_thread"))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed {SCHEMA_V1} sample record: {exc!r}") from None
    return columns


def _header(payload: dict, name: str, kinds: tuple):
    value = payload.get(name)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ValueError(f"header field {name!r} is missing or not "
                         f"{' or '.join(kind.__name__ for kind in kinds)}")
    return value


def sample_set_to_json(sample_set: SampleSet, indent: Optional[int] = None) -> str:
    """Serialise as a ``repro.sample_set/2`` document (see the module docstring)."""
    columns = sample_set.columns
    payload = {
        "schema": SCHEMA,
        "os": sample_set.os_name,
        "workload": sample_set.workload,
        "duration_s": sample_set.duration_s,
        "cpu_hz": sample_set.clock.hz,
        "n": len(columns),
        "columns": {name: _pack(getattr(columns, name)) for name in CSV_FIELDS},
    }
    return json.dumps(payload, indent=indent)


def sample_set_from_json(text: str) -> SampleSet:
    """Inverse of :func:`sample_set_to_json`; also reads ``repro.sample_set/1``.

    Raises :class:`ValueError` naming the defect for any malformed document.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("a sample-set document must be a JSON object")
    schema = payload.get("schema")
    if schema == SCHEMA:
        n = _header(payload, "n", (int,))
        if n < 0:
            raise ValueError(f"header field 'n' must not be negative, got {n}")
        packed = _header(payload, "columns", (dict,))
        columns = SampleColumns()
        for name in CSV_FIELDS:
            setattr(columns, name, _unpack(name, packed.get(name), n))
    elif schema == SCHEMA_V1:
        columns = _v1_columns(_header(payload, "samples", (list,)))
    else:
        raise ValueError(f"unknown schema {schema!r}")
    return SampleSet(
        clock=CpuClock(hz=_header(payload, "cpu_hz", (int,))),  # rejects hz <= 0
        os_name=_header(payload, "os", (str,)),
        workload=_header(payload, "workload", (str,)),
        duration_s=_header(payload, "duration_s", (int, float)),
        columns=columns,
    )


def latencies_to_csv(sample_set: SampleSet) -> str:
    """Derived view: one row per cycle with every latency kind in ms.

    The convenient spreadsheet form (empty cells where a kind is not
    measurable for that run).
    """
    from repro.core.samples import LatencyKind

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    kinds = list(LatencyKind)
    writer.writerow(["seq", "priority"] + [k.value + "_ms" for k in kinds])
    to_ms = sample_set.clock.cycles_to_ms
    for sample in sample_set.iter_samples():
        row: List[object] = [sample.seq, sample.priority]
        for kind in kinds:
            cycles = sample.latency_cycles(kind)
            row.append(f"{to_ms(cycles):.6f}" if cycles is not None else "")
        writer.writerow(row)
    return buffer.getvalue()
