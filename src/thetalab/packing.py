"""Kronecker substitution: a vector of integers as one Python int.

A vector v is packed as sum(v[i] * 2^(8*width*i)), so the product of two
packed vectors is their packed convolution, and a sum of such products
is the packed sum of the convolutions (Harvey 2009).  Slots are whole
bytes, so packing and unpacking go through bytes objects; slots of 1,
2, 4 or 8 bytes go through struct as little-endian machine integers in
one call.  Both the series product and the exact matrix product use it.

Adding half of each slot's range to every slot (the bias) turns signed
slots into non-negative ones, so they read off without borrows, and
XOR with the bias turns a biased slot into its two's complement.
"""

from __future__ import annotations

import struct

# struct's code for a little-endian signed integer of each slot width
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def slot_width(bound: int) -> int:
    """Bytes per slot for signed values of magnitude at most bound: the
    bits of bound plus one for the sign, rounded up to whole bytes."""
    return (bound.bit_length() + 8) // 8


def pack_width(bound: int) -> int:
    """The slot width both products pack at: slot_width(bound) rounded
    up to 1, 2, 4 or 8 bytes, which pack through struct in one call; a
    wider slot keeps its own width and takes the byte loop."""
    width = slot_width(bound)
    return next((w for w in _CODES if w >= width), width)


def _bias(width: int, n: int) -> int:
    """Half of each slot's range in each of n slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _format(width: int, n: int) -> str:
    """The struct format of n slots of a width in _CODES."""
    return f"<{n}{_CODES[width]}"


def pack(slots, width: int) -> int:
    """sum_i slots[i] * 2^(8*width*i); each |slots[i]| < 2^(8*width-1)."""
    return pack_many([slots], width)[0]


def pack_many(vectors: list, width: int) -> list:
    """pack() of each of several vectors of one length."""
    if not vectors:
        return []
    if width in _CODES:
        # two's complement slots XOR the bias are the biased slots
        fmt = _format(width, len(vectors[0]))
        bias = _bias(width, len(vectors[0]))
        return [(int.from_bytes(struct.pack(fmt, *v), "little") ^ bias) - bias for v in vectors]
    zero = bytes(width)
    out = []
    for slots in vectors:
        pos = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in slots)
        neg = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in slots)
        out.append(int.from_bytes(pos, "little") - int.from_bytes(neg, "little"))
    return out


def unpack(value: int, width: int, n: int) -> list:
    """The n lowest slots of a packed value as signed ints.

    Each of those slots must have magnitude below 2^(8*width-1); slots
    from n up are cut by the mask.
    """
    size = width * n
    bias = _bias(width, n)
    raw = (((value + bias) & ((1 << (8 * size)) - 1)) ^ bias).to_bytes(size, "little")
    if width in _CODES:
        return list(struct.unpack(_format(width, n), raw))
    return [int.from_bytes(raw[i:i + width], "little", signed=True) for i in range(0, size, width)]
