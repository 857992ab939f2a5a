"""Kronecker packing against a pure-int reference: the struct path at 1,
2, 4 and 8 bytes and the byte loop at 3 and 9 bytes give the same ints."""

from random import Random

import pytest

from thetalab.packing import pack, pack_many, pack_width, unpack


def reference(slots, width):
    return sum(c << (8 * width * i) for i, c in enumerate(slots))


def vectors(width, n=7, count=5, seed=0):
    """Slot extremes, zeros, and seeded vectors of mixed signs."""
    top = 2 ** (8 * width - 1) - 1
    rng = Random(seed + width)
    out = [[top] * n, [-top] * n, [0] * n, [top, -top, 0, 1, -1, top, -top][:n]]
    out += [[rng.randint(-top, top) for _ in range(n)] for _ in range(count)]
    return out


@pytest.mark.parametrize("width", (1, 2, 4, 8, 3, 9))
def test_pack_and_unpack_match_the_int_reference(width):
    vs = vectors(width)
    want = [reference(v, width) for v in vs]
    assert pack_many(vs, width) == want  # several vectors at once
    assert [pack(v, width) for v in vs] == want
    for v, value in zip(vs, want):
        assert unpack(value, width, len(v)) == v
    # a sum of products reads back as the sum of the convolutions
    a, b, c, d = ([x >> (4 * width) for x in v] for v in vs[-4:])
    conv = [0] * (2 * len(a) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            conv[i + j] += a[i] * b[j] + c[i] * d[j]
    bound = max(map(abs, conv))
    w = pack_width(bound)
    ints = pack_many([a, b, c, d], w)
    assert unpack(ints[0] * ints[1] + ints[2] * ints[3], w, len(conv)) == conv


def test_empty_input():
    assert pack_many([], 4) == []
    assert pack([], 8) == 0
    assert unpack(0, 8, 0) == []
