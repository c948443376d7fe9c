"""The one length-prefixed binary codec behind every wire format.

Artifacts in this system cross trust boundaries (sharer -> SP -> receiver),
so nothing is pickled; every message has an explicit, checked encoding.

Primitives: ``u8``/``u32`` integers, length-prefixed blobs and UTF-8
text, and a :class:`Reader` whose every read is bounds-checked.

Records: a frozen dataclass that subclasses :class:`WireRecord` declares
each field's wire *kind* once, with :func:`wire`::

    @dataclass(frozen=True)
    class AccessGrantC2(WireRecord):
        puzzle_id: int = wire(U32)
        url: str = wire(TEXT)

and gets ``to_bytes``, ``from_bytes`` and ``byte_size`` derived from that
declaration. Fields go on the wire in declaration order, unless the class
names another order in ``WIRE_ORDER``. Kinds compose: :func:`seq` and
:func:`rest` for lists (counted, or running to the end of the body),
:func:`mapping` for dicts, :func:`pair`, :func:`record` for another
record inline, and ``TAIL_BLOB`` for a last blob left out when empty.
Irregular encodings are a :class:`Kind` written by hand, once.

A decoder refuses trailing bytes, and any failure while a record is
decoded -- a truncated field, a nested decoder's own error, a
``__post_init__`` check, a recursion limit -- leaves ``from_bytes`` as
:class:`CodecError`.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from typing import Any, Callable, Collection, NamedTuple

__all__ = [
    "Reader", "blob", "u8", "u32", "text", "CodecError",
    "Kind", "U8", "U32", "BOOL", "BLOB", "TEXT", "UINT256", "TAIL_BLOB",
    "seq", "rest", "pair", "mapping", "record", "wire", "WireRecord",
]


class CodecError(ValueError):
    """Raised on malformed encodings."""


def u8(value: int) -> bytes:
    if not 0 <= value < 256:
        raise CodecError("u8 out of range: %d" % value)
    return bytes([value])


_U32_BE = struct.Struct(">I")


def u32(value: int) -> bytes:
    if not 0 <= value < 2**32:
        raise CodecError("u32 out of range: %d" % value)
    return _U32_BE.pack(value)


def blob(data: bytes) -> bytes:
    return u32(len(data)) + data


def text(value: str) -> bytes:
    return blob(value.encode("utf-8"))


class Reader:
    """Cursor over a bytes buffer with checked reads."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.offset + n > len(self.data):
            raise CodecError("truncated encoding")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    # The fixed-width reads check bounds themselves rather than through
    # take(): every field of every frame goes through them.
    def u8(self) -> int:
        offset = self.offset
        if offset >= len(self.data):
            raise CodecError("truncated encoding")
        self.offset = offset + 1
        return self.data[offset]

    def u32(self) -> int:
        offset = self.offset
        if offset + 4 > len(self.data):
            raise CodecError("truncated encoding")
        self.offset = offset + 4
        return _U32_BE.unpack_from(self.data, offset)[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in encoding") from exc

    def remaining(self) -> int:
        return len(self.data) - self.offset

    def done(self) -> None:
        if self.offset != len(self.data):
            raise CodecError("trailing bytes in encoding")


# -- field kinds ---------------------------------------------------------------


class Kind(NamedTuple):
    """How one field crosses the wire."""

    write: Callable[[Any], bytes]
    read: Callable[[Reader], Any]


U8 = Kind(u8, Reader.u8)
U32 = Kind(u32, Reader.u32)
BOOL = Kind(lambda value: u8(int(value)), lambda reader: bool(reader.u8()))
BLOB = Kind(blob, Reader.blob)
TEXT = Kind(text, Reader.text)
# A 256-bit integer as a 32-byte big-endian blob (a C1 share's x).
UINT256 = Kind(
    lambda value: blob(value.to_bytes(32, "big")),
    lambda reader: int.from_bytes(reader.blob(), "big"),
)
# A last blob, left off the wire when empty.
TAIL_BLOB = Kind(
    lambda value: blob(value) if value else b"",
    lambda reader: reader.blob() if reader.remaining() else b"",
)


def seq(item: Kind) -> Kind:
    """A ``u32`` count, then the items; decodes to a tuple."""
    write, read = item
    return Kind(
        lambda items: u32(len(items)) + b"".join([write(i) for i in items]),
        lambda reader: tuple([read(reader) for _ in range(reader.u32())]),
    )


def rest(item: Kind) -> Kind:
    """Items with no count, running to the end of the body; a tuple."""
    write, read = item

    def read_rest(reader: Reader) -> tuple:
        items = []
        while reader.remaining():
            items.append(read(reader))
        return tuple(items)

    return Kind(lambda items: b"".join([write(i) for i in items]), read_rest)


def pair(first: Kind, second: Kind) -> Kind:
    """Two values back to back; a 2-tuple."""
    write1, read1 = first
    write2, read2 = second
    return Kind(
        lambda value: write1(value[0]) + write2(value[1]),
        lambda reader: (read1(reader), read2(reader)),
    )


def mapping(key: Kind, value: Kind, counted: bool = True, sort: bool = False) -> Kind:
    """A dict as key/value pairs: counted (:func:`seq`) or running to the
    end (:func:`rest`), in insertion order or, with ``sort``, key order."""
    write, read = (seq if counted else rest)(pair(key, value))
    if sort:
        return Kind(lambda d: write(sorted(d.items())), lambda r: dict(read(r)))
    return Kind(lambda d: write(d.items()), lambda r: dict(read(r)))


def record(cls: type) -> Kind:
    """Another record's fields inline, with no length prefix."""
    return Kind(
        lambda value: _layout(cls).encode(value),
        lambda reader: _layout(cls).read(reader),
    )


# -- records -------------------------------------------------------------------

_KIND = "repro.wire.kind"


def wire(kind: Kind, **options: Any) -> Any:
    """Declare a dataclass field with its wire kind. ``options`` are
    :func:`dataclasses.field`'s (``default``, ``default_factory``...)."""
    return dataclasses.field(metadata={_KIND: kind}, **options)


class _Layout:
    """A record class's encoder and decoder, generated once per class.

    Like ``dataclasses`` does for ``__init__``, the two functions are
    compiled from source, one call per field in wire order, so a frame
    pays no per-field loop.
    """

    def __init__(self, cls: type):
        kinds = {}
        for f in dataclasses.fields(cls):
            if _KIND not in f.metadata:
                raise TypeError("%s.%s declares no wire kind" % (cls.__name__, f.name))
            kinds[f.name] = f.metadata[_KIND]
        order = tuple(getattr(cls, "WIRE_ORDER", kinds))
        if sorted(order) != sorted(kinds):
            raise TypeError("%s.WIRE_ORDER must name every field once" % cls.__name__)
        self.kinds = [(name, kinds[name]) for name in order]
        scope: dict[str, Any] = {"cls": cls}
        writes, reads = [], []
        for i, name in enumerate(order):
            scope["w%d" % i], scope["r%d" % i] = kinds[name]
            writes.append("w%d(v.%s)," % (i, name))
            # Arguments evaluate left to right, so keywords keep wire order.
            reads.append("%s=r%d(r)" % (name, i))
        self.encode = eval("lambda v: b''.join((%s))" % "".join(writes), scope)
        self.read = eval("lambda r: cls(%s)" % ", ".join(reads), scope)

    def encode_without(self, value: Any, omit: Collection[str]) -> bytes:
        return b"".join(
            [kind.write(getattr(value, name)) for name, kind in self.kinds if name not in omit]
        )


_layout = functools.cache(_Layout)


class WireRecord:
    """Base for frozen dataclasses whose fields are declared with :func:`wire`."""

    def to_bytes(self, omit: Collection[str] = ()) -> bytes:
        """The encoding, leaving out the fields named in ``omit``."""
        if omit:
            return _layout(type(self)).encode_without(self, omit)
        return _layout(type(self)).encode(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> Any:
        reader = Reader(data)
        try:
            value = _layout(cls).read(reader)
            reader.done()
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError("malformed %s: %s" % (cls.__name__, exc)) from exc
        return value

    def byte_size(self) -> int:
        return len(self.to_bytes())
