"""`repr` of float64 arrays, a whole column at a time, byte for byte.

Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018) finds the
shortest decimal that reads back as the same double from a few integer
products; run on uint64 arrays it gives every element's digits at once.
Only the branch for binary exponents e2 < -4 is needed here: that is every
|x| < 2^50, where neither end of the rounding interval is an integer, so no
boundary case arises.  Non-finite values and |x| >= 2^50 (no trace value is
that large) go through `repr` one at a time.  The digits are then laid out
as CPython does: positional when the decimal point is in (-4, 16], `.0` on
integers, else `d.ddde-XX`.

Short decimals skip Ryū: where |x| < 10^12 is m / 10^3 as a double for an
integer m (every sample time of an exposure clock), m has at most 15 digits,
and by DBL_DIG no other decimal of 15 digits or fewer reads back as x, so
m without its trailing zeros is the shortest.  A block looks for them only
when its first and last values are short, so a 17-digit column pays two
scalar tests, and takes them only when all its finite nonzero values are
short; any other block goes through Ryū whole.

Each element's text is built in four uint64 words, read as little-endian
bytes and NUL-padded, and the NULs of a whole block of rows are dropped at
once.  All integer arithmetic stays in uint64 with np.uint64 scalars: an
int64/uint64 mix would become float64.
"""

from __future__ import annotations

import functools

import numpy as np

WORDS = 4           # "-0.000" | 17 digits and a point | "e-324", end character
BLOCK_ROWS = 3072   # rows per block of `rows_text`: each temporary of `fill` is 24 KiB
_U = np.uint64
_M28, _S8, _S28, _S32 = _U((1 << 28) - 1), _U(8), _U(28), _U(32)
_LIMIT = 2.0 ** 50
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)
_HALF = np.array([1] + [5 * 10 ** k for k in range(19)], dtype=np.uint64)  # 10^r / 2, r > 0


def _words(texts, count=1) -> np.ndarray:
    """Texts of at most 8 * count bytes as rows of `count` little-endian words."""
    data = b"".join(t.ljust(8 * count, b"\0") for t in texts)
    return np.frombuffer(data, "<u8").astype(np.uint64).reshape(-1, count)


@functools.cache
def _tables() -> dict:
    """Per biased exponent 0..1072: Ryū's 125-bit multiplier for 5^i as five 28-bit
    limbs, the shifts j - 112 and 140 - j, the mask that tells an exact product
    and the decimal exponent e10; then the digit and byte-mask tables of the layout."""
    ne2 = 1077 - np.maximum(np.arange(1073), 1)       # -e2, with Ryū's 2 guard bits
    q = ((ne2 * 732923) >> 20) - 1                    # floor(log10(5^-e2)) - 1
    i = ne2 - q
    j = q - ((i * 1217359) >> 19) + 124               # q - (bits of 5^i - 125)
    pow5 = [5 ** n for n in range(i.max() + 1)]
    mul = [p << 125 >> p.bit_length() for p in pow5]  # 5^i to 125 bits, rounded down
    limbs = np.array([[m >> 28 * n & 0xFFFFFFF for n in range(5)] for m in mul], np.uint64)
    four = np.arange(10000)
    keep = _words([b"\xff" * k for k in range(19)], 3).T   # word w of bytes [0, k)
    dots = keep[:, 1:] & ~keep[:, :-1] & _U(0x2E2E2E2E2E2E2E2E)
    return {
        "limbs": limbs[i].T.copy(),
        "shift": [(j - 112).astype(np.uint64), (140 - j).astype(np.uint64)],
        "exact": np.where(q < 64, (_U(1) << np.minimum(q, 63).astype(np.uint64)) - _U(1),
                          _U(2 ** 64 - 1)),
        "e10": q - ne2,
        # the ASCII of 0000..9999, first digit in the low byte
        "dig4": sum((four // 10 ** (3 - d) % 10 + 48).astype(np.uint64) << _U(8 * d)
                    for d in range(4)),
        # per word of three: bytes [0, at), at = 0..17
        "keep": keep[:, :18].copy(),
        # the point at byte `at`, then none
        "point": np.concatenate([dots, np.zeros_like(dots)], axis=1),
        # bytes [at + 1, length + 1), by 18 * at + length
        "move": (keep[:, None, 1:] & ~keep[:, 1:, None]).reshape(3, -1),
        # by 5 * negative + z: the sign, then for z > 0 "0." and z - 1 zeros
        "prefix": _words([s + (b"0." + b"0" * (z - 1) if z else b"")
                          for s in (b"", b"-") for z in range(5)])[:, 0],
        # in bytes 18..22 of the digits: 0 none, 1 the "0" of ".0", x >= 5 "e-x"
        "suffix": _words([b"", b"0", b"", b"", b""] + [b"e-%02d" % x for x in range(5, 325)])[:, 0]
        << _U(16),
    }


def _mul_shift(m, limbs, shift):
    """floor(m * mul / 2^j) for m < 2^55, mul the multiplier as five 28-bit limbs
    and shift = (j - 112, 140 - j), j in [118, 121]: every partial product is
    below 2^56 and every column sum below 2^58, so uint64 holds them unsplit."""
    a0, a1 = m & _M28, m >> _S28
    b0, b1, b2, b3, b4 = limbs
    carry = a0 * b0 >> _S28
    carry = (a0 * b1 + a1 * b0 + carry) >> _S28
    carry = (a0 * b2 + a1 * b1 + carry) >> _S28
    carry = (a0 * b3 + a1 * b2 + carry) >> _S28
    return ((a0 * b4 + a1 * b3 + carry) >> shift[0]) + (a1 * b4 << shift[1])


def _ascii8(v, dig4):
    """The 8 digits of each v < 10^8 as one word of little-endian ASCII."""
    high = v // _POW10[4]
    low = v - high * _POW10[4]
    return dig4.take(high.view(np.intp)) | dig4.take(low.view(np.intp)) << _S32


def _ascii17(digits, n, dig4):
    """The n digits of each `digits` left-aligned in 17, the rest '0', as the
    little-endian ASCII of three words (bytes 0..16)."""
    aligned = digits * _POW10[17 - n]
    first = aligned // _POW10[16]
    rest = aligned - first * _POW10[16]
    hi = rest // _POW10[8]
    hi, lo = _ascii8(hi, dig4), _ascii8(rest - hi * _POW10[8], dig4)
    return [(first + _U(48)) | hi << _S8, hi >> _U(56) | lo << _S8, lo >> _U(56)]


def _trailing_zeros(v):
    """Decimal trailing zeros of each v in [1, 10^16)."""
    count = np.zeros(v.shape, np.intp)
    for k in (8, 4, 2, 1):
        quot = v // _POW10[k]
        zero = quot * _POW10[k] == v
        v = np.where(zero, quot, v)
        count += k * zero
    return count


def _decimal(bits, t):
    """Ryū's shortest digits of each positive double below 2^50, given as its
    bits: the digits as an integer and their decimal exponent r + e10."""
    biased = (bits >> _U(52)).astype(np.intp)
    mant = bits & _U((1 << 52) - 1)
    mv = np.where(biased > 0, mant | _U(1 << 52), mant) << _U(2)
    # the interval of doubles rounding to x, scaled by 10^-e10: vm < v <= vp;
    # the lower neighbour is half as far below a power of two
    near = mv - _U(2) + ((mant == 0) & (biased > 1))
    limbs, shift = ([b.take(biased) for b in t[key]] for key in ("limbs", "shift"))
    vr, vp, vm = (_mul_shift(m, limbs, shift) for m in (mv, mv + _U(2), near))

    # r: the most digits that can go with a multiple of 10^r left in (vm, vp].
    # vp - vm < 10^3, so r >= 3 only where vp's last 3 digits are below vp - vm,
    # and then r counts the trailing zeros of the digits above them
    above = vp // _POW10[3]
    r = np.where(vp - above * _POW10[3] < vp - vm, 3 + _trailing_zeros(above),
                 np.add(vp // _U(10) > vm // _U(10), vp // _U(100) > vm // _U(100), dtype=np.intp))
    digits = vr // _POW10.take(r)
    cut = digits * _POW10.take(r)
    rem, half = vr - cut, _HALF.take(r)
    # round half up, but half to even when vr is exact and the rest is 5 then
    # zeros; and up from vm's own digits, which lie outside the interval
    tie = ((mv & t["exact"].take(biased)) == 0) & (rem == half) & ((digits & _U(1)) == 0)
    digits += (rem >= half) & ~tie | (vm >= cut)
    return digits, r + t["e10"].take(biased)


def _short(mag):
    """The integer m of each |x| < 10^12 that is m / 10^3 as a double, else 0."""
    # no arithmetic on NaN (a signalling one warns) or on values that would overflow
    m = np.rint(np.where(mag < 1e12, mag, 0.0) * 1e3)
    return np.where(m / 1e3 == mag, m, 0.0).astype(np.uint64)


def _ends_short(mag) -> bool:
    """`_short`'s test on the first and last value of a block, in Python floats."""
    ends = mag[0].item(), mag[-1].item()
    return all(0.0 < v < 1e12 and round(v * 1e3) / 1e3 == v for v in ends)


def fill(x: np.ndarray, out: np.ndarray, end: str) -> None:
    """Write `repr(float(v)) + end` of each element v of the float array `x` into
    the rows of the (len(x), WORDS) uint64 array `out`, as little-endian bytes
    padded with NULs."""
    t = _tables()
    x = np.asarray(x, dtype=np.float64)
    mag = np.abs(x)
    fast, zero = mag < _LIMIT, mag == 0.0
    ryu = fast & ~zero
    m = _short(mag) if _ends_short(mag) else None  # the gates pick the path, never the digits
    if m is not None and not (ryu & (m == 0)).any():  # every finite nonzero value is short
        tz = _trailing_zeros(np.maximum(m, _U(1)))
        digits, exponent = m // _POW10.take(tz), tz - 3
    else:
        digits, exponent = _decimal(np.where(ryu, mag, 1.0).view(np.uint64), t)
    digits[zero] = 0

    n = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    point = np.where(zero, 1, n + exponent)    # x = 0.ddd * 10^point
    sci, lead = point < -3, point <= 0
    lead &= ~sci

    # keep the digits before byte `at`, put the point there (none in 0.00ddd or
    # in a 1-digit d e-XX), and move the rest up a byte, up to `length` digits:
    # past the last digit, or for an integer up to the point
    at = np.where(sci, 1, np.where(lead, 0, point))
    dot = at + 18 * (lead | sci & (n == 1))
    move = 18 * at + np.maximum(n, point)
    carry = _U(0)
    for w, word in enumerate(_ascii17(digits, n, t["dig4"])):
        out[:, w + 1] = word & t["keep"][w].take(at) | t["point"][w].take(dot) \
            | (word << _S8 | carry) & t["move"][w].take(move)
        carry = word >> _U(56)
    out[:, 0] = t["prefix"][np.where(lead, 1 - point, 0) + 5 * np.signbit(x)]
    out[:, 3] |= t["suffix"][np.where(sci, 1 - point, (point >= n).astype(np.intp))] \
        | _U(ord(end)) << _U(56)

    for i in np.flatnonzero(~fast):
        out[i] = _words([repr(float(x[i])).encode("ascii").ljust(24, b"\0") + end.encode()], 4)[0]


def rows_text(columns):
    """The CSV rows of equal-length float columns, BLOCK_ROWS rows at a time:
    `repr` of each element, ',' between fields and a newline after each row.
    Each block is one matrix of NUL-padded fields; one `bytes.translate`
    drops its NULs."""
    rows = len(columns[0])
    words = np.empty((min(rows, BLOCK_ROWS), WORDS * len(columns)), np.uint64)
    ends = [","] * (len(columns) - 1) + ["\n"]
    for start in range(0, rows, BLOCK_ROWS):
        block = words[:min(BLOCK_ROWS, rows - start)]
        for j, (col, end) in enumerate(zip(columns, ends)):
            fill(col[start:start + len(block)], block[:, WORDS * j:WORDS * (j + 1)], end)
        yield block.astype("<u8", copy=False).tobytes().translate(None, b"\0").decode("ascii")
