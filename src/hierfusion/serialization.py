"""Canonical text serialization helpers, and the binary frame.

Reports and data files serialize every real number with 17 significant
digits, which round-trips float64 exactly and makes files byte-identical
across runs and comparable across implementations. Binary files (model
checkpoints, the feature files' twins) are frames that save_frame and
load_frame alone lay out: a JSON header, the raw arrays it describes,
then a SHA-256 of every byte before it, so no damaged byte reads back as
a value. load_json reads all JSON but reports, not keeps, a repeated key;
load_json_object reads every JSON object, and format_float every float.
"""

import contextlib
import functools
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .exceptions import MalformedRow


def format_float(x: float) -> str:
    """``%.17g`` text: 17 significant digits, trailing zeros dropped.

    Enough digits to read back as the same float64, but not the shortest
    such text: 0.1 is ``0.10000000000000001``.
    """
    return format(float(x), ".17g")


# 10**k for k in 0..22, each exact as a float64, and Veltkamp's split
# of each into two halves whose products with another split are exact.
_POW10 = np.array([float(10**k) for k in range(23)])
_SPLITTER = float(2**27 + 1)


def _split(a):
    """(high, low) halves of `a`, each of at most 26 significant bits."""
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)

# The 40 bytes, five words, a cell is built from: its lead word
# ``,-0.000d`` and four words ``.d.d.d.d``, holding the comma, sign,
# ``0.000`` prefix, the 17 digits and a point before each digit after
# the first. A mask then deletes the bytes the cell does not print.
CELL_WORDS = 5

# The mask keys of cells in fixed notation, ((exponent + 4) * 18 + digits
# printed) * 2 + negative, then those of 0.0 and -0.0.
_ZERO_KEY = 21 * 18 * 2


@functools.cache
def _cell_tables():
    """(lead word of each first digit, word of each 4-digit group, where
    each group's last nonzero digit lies (-16 for 0000), and the deletion
    mask of each cell key), built on first use to keep import cheap."""
    group = np.arange(10_000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10,
                       group % 10], axis=1)
    words = np.full((10_000, 8), ord("."), np.uint8)
    words[:, 1::2] = digits + ord("0")
    lead = np.empty((10, 8), np.uint8)
    lead[:, :7] = np.frombuffer(b",-0.000", np.uint8)
    lead[:, 7] = np.arange(10) + ord("0")
    last = np.select([digits[:, 3] > 0, digits[:, 2] > 0, digits[:, 1] > 0,
                      digits[:, 0] > 0], [4, 3, 2, 1], -16)
    exponent = np.arange(-4, 17)[:, None, None]
    count = np.arange(18)[None, :, None]
    negative = np.arange(2) == 1
    keep = np.zeros((21, 18, 2, 8 * CELL_WORDS), bool)
    keep[..., 0] = keep[..., 7] = True  # the comma and the first digit
    keep[..., 1] = negative
    keep[..., 2] = keep[..., 3] = exponent < 0  # "0."
    for byte, most in ((4, -2), (5, -3), (6, -4)):  # the zeros of "0.000"
        keep[..., byte] = exponent <= most
    for i in range(1, 17):  # the point before digit i, and digit i
        keep[..., 6 + 2 * i] = (exponent == i - 1) & (count > i)
        keep[..., 7 + 2 * i] = (count > i) | (exponent >= i)
    zero = np.zeros((2, 8 * CELL_WORDS), bool)  # ",0" and ",-0"
    zero[:, 0] = zero[:, 2] = True
    zero[:, 1] = negative
    keep = np.concatenate([keep.reshape(_ZERO_KEY, -1), zero])
    mask = np.where(keep, 0, 0xFF).astype(np.uint8)
    return (lead.view(np.uint64).ravel(), words.view(np.uint64).ravel(),
            last.astype(np.int8), mask.view(np.uint64))


def _scaled(size, exponent):
    """(high, low, side): size * 10**(16 - exponent) = high + low exactly
    (Dekker's TwoProduct), and side -1, 0 or 1 where that product lies
    below, in or above [1e16, 1e17)."""
    k = 16 - exponent
    high = size * _POW10[k]
    size_high, size_low = _split(size)
    ten_high, ten_low = _POW10_HIGH[k], _POW10_LOW[k]
    low = size_high * ten_high
    low -= high
    low += size_high * ten_low
    low += size_low * ten_high
    size_low *= ten_low
    low += size_low
    below = (high < 1e16) | ((high == 1e16) & (low < 0))
    above = (high > 1e17) | ((high == 1e17) & (low >= 0))
    return high, low, above.view(np.int8) - below.view(np.int8)


def float_cells(values, out) -> None:
    """Write ``"," + format_float(v)`` for each float64 of `values` into
    `out`, an array of shape ``values.shape + (CELL_WORDS,)`` of uint64,
    padded with 0xFF bytes (never a byte of UTF-8).

    Zeros and the values ``%.17g`` prints in fixed notation (decimal
    exponent -4 to 16 after rounding to 17 digits) are written by array
    arithmetic; format_float writes the rest, one by one. The 17 digits
    are the exact product value * 10**k rounded half to even, the
    rounding Python's formatting uses: with 10**k exact for k <= 22 and
    the product split exactly into two floats, no digit needs more than
    float64 and int64 arithmetic.
    """
    size = np.abs(values)
    zero = size == 0
    # fixed notation; no float64 lies close enough below 1e-4 to round up
    done = (size >= 1e-4) & (size < 1e17)
    size[~done] = 1.0
    # log10 may miss the decimal exponent by one next to a power of ten;
    # the product's side moves the exponent, and a value still outside
    # after one move is left to format_float
    exponent = np.log10(size)
    np.floor(exponent, out=exponent)
    exponent = exponent.astype(np.intp)
    np.minimum(exponent, 16, out=exponent)
    high, low, side = _scaled(size, exponent)
    moved = np.nonzero(side)
    if moved[0].size:
        exponent[moved] = np.clip(exponent[moved] + side[moved], -5, 16)
        high[moved], low[moved], side[moved] = _scaled(size[moved], exponent[moved])
    done &= side == 0
    # high is an even integer (above 2**53), so rounding high + low half
    # to even adds low rounded half to even
    digits = high.astype(np.int64)
    digits += np.rint(low).astype(np.int64)
    # a value rounding up to the next power of ten would print with the
    # exponent after this one and is left to format_float; from 1e-4 to
    # 1e17 no float64 lies that close below a power of ten
    done &= (digits < 10**17) & (exponent >= -4)
    digits[~done] = 10**16
    lead, words, last, mask = _cell_tables()
    first = digits // 10**16
    digits -= first * 10**16
    upper = digits // 10**8
    groups = []
    for half in (upper, digits - upper * 10**8):
        head = half // 10**4
        groups += [head, half - head * 10**4]
    out[..., 0] = lead[first]
    count = np.ones(values.shape, np.int8)  # significant digits printed
    for i, group in enumerate(groups):
        out[..., i + 1] = words[group]
        np.maximum(count, last[group] + np.int8(1 + 4 * i), out=count)
    key = ((exponent + 4) * 18 + count) * 2
    key[~done] = 0
    key[zero] = _ZERO_KEY
    key += np.signbit(values)
    out |= np.take(mask, key, axis=0)
    for where in zip(*np.nonzero(~(done | zero))):
        text = ("," + format_float(values[where])).encode("ascii")
        out[where] = np.frombuffer(text.ljust(8 * CELL_WORDS, b"\xff"), np.uint64)


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


def save_frame(path, magic: bytes, header, arrays) -> None:
    """Write `magic`, the header's length as a little-endian uint32, the
    :func:`dump_json` text of `header`, the little-endian bytes of each of
    `arrays` and the SHA-256 of every byte before it to `path`, through
    :func:`atomic_text_writer`."""
    text = dump_json(header).encode("utf-8")
    digest = hashlib.sha256()
    with atomic_text_writer(path, binary=True) as fh:
        for part in (magic + struct.pack("<I", len(text)) + text,
                     *(np.ascontiguousarray(a, a.dtype.newbyteorder("<")).data
                       for a in arrays)):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def load_frame(path, magic: bytes, layout) -> tuple[dict, list]:
    """(header, arrays) of the frame :func:`save_frame` wrote to `path`,
    where layout(header) gives each array's (shape, dtype).

    The file must be exactly as long as the header says before any array
    is made; each is then read straight into its own buffer and hashed as
    it arrives. Bytes save_frame could not have written are ValueError:
    another magic line, a header that is not a JSON object, another size,
    or a wrong closing SHA-256.
    """
    start = len(magic) + 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(start)
        if len(head) < start or not head.startswith(magic):
            raise ValueError(f"not a {magic.decode('ascii', 'replace').strip()} file")
        (length,) = struct.unpack_from("<I", head, len(magic))
        head += fh.read(min(length, size))  # never more than the file holds
        header = load_json_object(head[start:], ValueError, "header")
        specs = [(shape, np.dtype(t).newbyteorder("<")) for shape, t in layout(header)]
        need = start + length + sum(math.prod(s) * t.itemsize for s, t in specs) + 32
        if size != need:
            raise ValueError(f"{size} bytes, the header needs {need}")
        digest = hashlib.sha256(head)
        arrays = [np.empty(shape, dtype) for shape, dtype in specs]
        for array in arrays:
            fh.readinto(array)
            digest.update(array)
        if fh.read() != digest.digest():
            raise ValueError("the closing SHA-256 is not that of the bytes before it")
    return header, arrays


def load_json(text: str, error, where: str):
    """The JSON value of `text`, with a key repeated in one object (where
    json.loads keeps the last value) raised as `error` naming `where`."""
    def unique(pairs):
        value = {}
        for key, item in pairs:
            if key in value:
                raise error(f"{where}: duplicate key {key!r}")
            value[key] = item
        return value
    return json.loads(text, object_pairs_hook=unique)


def load_json_object(data: bytes, error, where: str) -> dict:
    """The JSON object in the UTF-8 bytes `data`; any other bytes (not UTF-8
    or JSON, too deep, a repeated key, no object) are `error` naming `where`."""
    try:
        value = load_json(data.decode("utf-8"), error, where)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise error(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: not a JSON object")
    return value


def load_json_file(path, error) -> dict:
    """The JSON object in the file `path`, by :func:`load_json_object`."""
    with open(path, "rb") as fh:
        return load_json_object(fh.read(), error, path)


@contextlib.contextmanager
def text_reader(path):
    """Yield `path` open as UTF-8 text.

    Bytes that are not UTF-8 are MalformedRow naming the file but no line:
    text is decoded in chunks, ahead of the line being read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
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
