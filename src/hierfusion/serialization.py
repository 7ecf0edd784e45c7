"""Canonical text serialization helpers, and the binary frame.

Reports and data files serialize every real number with 17 significant
digits, which round-trips float64 exactly and makes files byte-identical
across runs and comparable across implementations. Binary files (model
checkpoints, the feature files' twins) share one frame: a magic line, the
header's length as a little-endian uint32, the header as JSON, then the
raw payload the header describes.
"""

import contextlib
import io
import json
import os
import struct
from pathlib import Path

import numpy as np

from .exceptions import MalformedRow


def format_float(x: float) -> str:
    """Shortest-faithful decimal: 17 significant digits."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def atomic_text_writer(path, *, binary: bool = False):
    """Yield a file handle whose content replaces `path` on success.

    The handle is UTF-8 text with ``\n`` line ends, or a byte stream with
    `binary`. Writes go to the hidden ``.<name>.partial`` beside `path`,
    which ``os.replace`` moves onto `path` once the block exits cleanly and
    which is deleted on any error, so an interrupted write never leaves a
    truncated file under the final name. Every artifact the toolkit
    writes goes through here.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(partial, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def frame_head(magic: bytes, header) -> bytes:
    """The bytes a binary frame starts with: `magic`, the length of the
    header as a little-endian uint32, then `header` as :func:`dump_json`
    text. The payload follows them."""
    blob = dump_json(header).encode("utf-8")
    return magic + struct.pack("<I", len(blob)) + blob


def read_frame(blob: bytes, magic: bytes) -> tuple[dict, int]:
    """(header, payload offset) of the frame `blob` starts with.

    Bytes :func:`frame_head` could not have begun are ValueError: another
    magic line, a cut length or header, or a header that is not a JSON
    object.
    """
    if not blob.startswith(magic):
        raise ValueError(f"not a {magic.decode('ascii', 'replace').strip()} file")
    start = len(magic) + 4
    if len(blob) < start:
        raise ValueError("truncated header length")
    (length,) = struct.unpack_from("<I", blob, len(magic))
    end = start + length
    if len(blob) < end:
        raise ValueError("truncated header")
    try:
        header = json.loads(blob[start:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed header: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError("the header is not a JSON object")
    return header, end


@contextlib.contextmanager
def text_reader(path, start: int = 0):
    """Yield `path` open as UTF-8 text from byte `start`, a line start.

    Bytes that are not UTF-8 are MalformedRow naming the file but no line:
    text is decoded in chunks, ahead of the line being read.
    """
    try:
        with open(path, "rb") as raw:
            raw.seek(start)
            with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                yield fh
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path}: not UTF-8 text ({exc.reason})") from exc


def dump_json(value) -> str:
    """JSON text, indented by 2, with floats rendered by :func:`format_float`.

    The stdlib encoder offers no hook for float formatting, so this walks
    the value itself. Dict insertion order is preserved (construction order
    is the canonical order).
    """
    return _render(value, 0) + "\n"


def _render(value, level) -> str:
    pad = "  " * (level + 1)
    close_pad = "  " * level
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f"{pad}{json.dumps(str(key))}: {_render(v, level + 1)}"
            for key, v in value.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = (f"{pad}{_render(v, level + 1)}" for v in value)
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, np.integer):
        return json.dumps(int(value))
    if isinstance(value, (int, str)):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")
