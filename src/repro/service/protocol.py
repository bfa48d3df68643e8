"""NDJSON wire protocol for the gathering service (DESIGN.md §2.15).

One JSON object per ``\\n``-terminated line, both directions.

Client -> server ops (the ``op`` field):

``{"op": "submit", "chain": [[x, y], ...], "ack": true}``
    Submit one closed chain.  ``ack: false`` suppresses the per-frame
    ``queued`` / ``backpressure`` acknowledgements (pipelined load).
``{"op": "status"}``
    Request a ``status`` frame (health, throughput, queue depth).
``{"op": "drain"}``
    Ask for a ``drained`` frame once every chain this client submitted
    has been delivered.
``{"op": "shutdown"}``
    Close admission; the service drains in-flight chains and exits.

Server -> client frames (the ``status`` field):

``hello``          connection banner: version, slots, queue capacity, limits.
``queued``         submission accepted into the admission queue.
``backpressure``   queue at capacity; the submission is parked and a
                   ``queued`` frame follows once space frees.
``bad-line``       a line was rejected (malformed JSON, not an object,
                   unknown op, invalid or oversized chain); carries the
                   1-based connection line number.  Never fatal.
``result``         a chain finished: its result row (§2.15, the
                   ``repro batch --stream`` line, final-position
                   ``digest`` included) plus ``seq`` (this client's
                   0-based submission index).
``quarantined``    a chain was quarantined: its quarantined row plus
                   ``seq``.
``status``         health snapshot.
``drained``        all of this client's submissions have been delivered.
``bye``            shutdown acknowledged; connection closes after drain.

Framing is plain NDJSON so ``nc``/``socat`` and the CLI's existing
JSONL tooling interoperate with the service directly.
"""

from __future__ import annotations

import json
from typing import AsyncIterator, List, Tuple, Union

PROTOCOL_VERSION = 1

#: hard cap on one wire line (bytes, newline included)
MAX_LINE = 1 << 20
#: default cap on robots per submitted chain
MAX_CHAIN = 4096
#: coordinate magnitude guard: keeps int64 grid arithmetic overflow-free
MAX_COORD = 1 << 40


class ProtocolError(ValueError):
    """A wire line violated the protocol.  ``code`` is a stable,
    machine-matchable slug carried in ``bad-line`` frames."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def encode_frame(doc: dict) -> bytes:
    """Serialise one frame: compact JSON + newline."""
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(raw: bytes) -> dict:
    """Parse one wire line into a frame dict or raise ProtocolError."""
    try:
        doc = json.loads(raw.decode("utf-8", errors="strict"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-json", f"malformed JSON: {exc}")
    if not isinstance(doc, dict):
        raise ProtocolError(
            "not-object", f"frame must be a JSON object, got "
            f"{type(doc).__name__}")
    return doc


def parse_positions(obj, max_chain: int = MAX_CHAIN) -> List[Tuple[int, int]]:
    """Validate a submitted ``chain`` payload into integer grid points.

    Structural validation only — closed-chain *semantic* invariants
    (connectivity, length parity) stay with the kernel, whose failures
    surface as ``quarantined`` frames.  Anything rejected here never
    reaches the admission queue.
    """
    if not isinstance(obj, list):
        raise ProtocolError(
            "bad-chain", "chain must be a list of [x, y] pairs")
    if not obj:
        raise ProtocolError("bad-chain", "chain must not be empty")
    if len(obj) > max_chain:
        raise ProtocolError(
            "chain-too-long",
            f"chain has {len(obj)} robots, limit is {max_chain}")
    pts: List[Tuple[int, int]] = []
    for p in obj:
        if (not isinstance(p, (list, tuple)) or len(p) != 2):
            raise ProtocolError(
                "bad-position", f"position must be an [x, y] pair, got {p!r}")
        x, y = p
        if (isinstance(x, bool) or isinstance(y, bool)
                or not isinstance(x, int) or not isinstance(y, int)):
            raise ProtocolError(
                "bad-position",
                f"coordinates must be integers, got [{x!r}, {y!r}]")
        if abs(x) > MAX_COORD or abs(y) > MAX_COORD:
            raise ProtocolError(
                "bad-position", f"coordinate out of range: [{x}, {y}]")
        pts.append((x, y))
    return pts


async def read_frames(
        reader, max_line: int = MAX_LINE,
) -> AsyncIterator[Tuple[int, Union[dict, ProtocolError]]]:
    """Yield ``(lineno, frame-or-error)`` per wire line until EOF.

    A line longer than ``max_line`` is discarded up to its newline and
    yielded as a ProtocolError — the connection survives, matching the
    CLI's ``--skip-bad-lines`` posture.  Buffering is manual because
    ``StreamReader.readline``'s limit handling tears the stream
    mid-line instead of resynchronising on the next newline.
    """
    buf = bytearray()
    lineno = 0
    overflowing = False
    while True:
        chunk = await reader.read(65536)
        at_eof = not chunk
        buf.extend(chunk)
        while True:
            nl = buf.find(b"\n")
            if nl < 0:
                if overflowing:
                    buf.clear()  # still inside an oversized line
                elif len(buf) > max_line:
                    lineno += 1
                    overflowing = True
                    buf.clear()
                    yield lineno, ProtocolError(
                        "line-too-long",
                        f"line exceeds {max_line} bytes")
                break
            raw = bytes(buf[:nl]).rstrip(b"\r")
            del buf[:nl + 1]
            if overflowing:
                overflowing = False  # tail of the oversized line
                continue
            lineno += 1
            if nl > max_line:
                yield lineno, ProtocolError(
                    "line-too-long", f"line exceeds {max_line} bytes")
                continue
            if not raw.strip():
                continue
            try:
                yield lineno, decode_line(raw)
            except ProtocolError as exc:
                yield lineno, exc
        if at_eof:
            return
