"""JPEG-style decoder (PowerStone ``jpeg``) — instrumented implementation.

The pipeline is the paper's Fig. 5 function set:

* ``huff_dc_dec`` — entropy-decode the differential DC coefficients;
* ``huff_ac_dec`` — entropy-decode the run-length-coded AC coefficients
  (the most computationally intensive function — Huffman decoding is
  serial bit twiddling, and the paper duplicates this kernel);
* ``dquantz_lum`` — dequantize the luminance blocks (consumes DC + AC
  coefficients; its output goes *only* to the IDCT, which is why the
  shared-local-memory solution applies to this pair);
* ``j_rev_dct`` — 8×8 inverse DCT producing pixels for the host.

The encoder lives on the host side: 8×8 pixel blocks are forward-DCT'd,
quantized and entropy-coded into genuine bitstreams, which the kernels
then genuinely decode; :meth:`JpegApp.verify` checks the decoded image
matches the source within quantization error.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..profiling import AddressSpace, Tracer
from .base import Application, KernelTraits

BLOCK = 8

#: JPEG Annex K luminance quantization table.
QUANT_LUM = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int16,
)


def zigzag_order() -> np.ndarray:
    """Indices of the zig-zag scan over an 8×8 block (length 64)."""
    idx = np.arange(64).reshape(8, 8)
    out: List[int] = []
    for s in range(15):
        diag = [(i, s - i) for i in range(8) if 0 <= s - i < 8]
        if s % 2 == 0:
            diag.reverse()
        out.extend(idx[i, j] for i, j in diag)
    return np.array(out, dtype=np.uint8)


def dct_matrix() -> np.ndarray:
    """The orthonormal 8-point DCT-II basis matrix."""
    k = np.arange(BLOCK)
    c = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / (2 * BLOCK))
    m = np.sqrt(2.0 / BLOCK) * c
    m[0, :] = np.sqrt(1.0 / BLOCK)
    return m


_DCT = dct_matrix()


def fdct2(block: np.ndarray) -> np.ndarray:
    """2-D forward DCT of an 8×8 block or a stack of them (..., 8, 8)."""
    return _DCT @ block @ _DCT.T


def idct2(coef: np.ndarray) -> np.ndarray:
    """2-D inverse DCT of an 8×8 block or a stack of them (..., 8, 8)."""
    return _DCT.T @ coef @ _DCT


# --------------------------------------------------------------------------
# Entropy coding: unary size-category + amplitude bits (a simplified but
# genuine prefix code with JPEG's category/amplitude structure). Both
# directions work on whole arrays; only the decoder's scan for the zero
# that ends each unary field is serial.
# --------------------------------------------------------------------------
def _pack_fields(
    nbits: int, starts: np.ndarray, widths: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Pack an ``nbits`` stream of zeros, except that the low ``widths[i]``
    bits of ``values[i]`` sit MSB first at ``starts[i]`` (−1: all ones)."""
    first = np.repeat(np.cumsum(widths) - widths, widths)
    j = np.arange(first.size) - first  # bit index within its field
    bits = np.zeros(nbits, dtype=np.uint8)
    bits[np.repeat(starts, widths) + j] = (
        np.repeat(values, widths) >> (np.repeat(widths - 1, widths) - j)
    ) & 1
    return np.packbits(bits)


def _categorize(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """JPEG size category (bit length of |v|) and one's-complement amplitude."""
    v = np.asarray(values, dtype=np.int64)
    cat = np.frexp(np.abs(v))[1].astype(np.int64)
    return cat, np.where(v < 0, v + (1 << cat) - 1, v)


def _bit_string(stream: np.ndarray) -> str:
    return (np.unpackbits(stream) + ord("0")).tobytes().decode("ascii")


def _amplitudes(stream: np.ndarray, start: np.ndarray, cat: np.ndarray) -> np.ndarray:
    """The value coded by the ``cat`` amplitude bits at each ``start``."""
    if np.any(cat > 16):  # more than |−32768|'s 16 bits
        raise ConfigurationError("coefficient out of range")
    # A field of at most 16 bits lies within 3 bytes of its first.
    data = np.append(stream, np.zeros(3, np.uint8)).astype(np.int64)
    byte = start >> 3
    word = (data[byte] << 16) | (data[byte + 1] << 8) | data[byte + 2]
    raw = (word >> (24 - (start & 7) - cat)) & ((1 << cat) - 1)
    return np.where(raw < (1 << cat) >> 1, raw - (1 << cat) + 1, raw)


def _int16(values: np.ndarray) -> np.ndarray:
    """``values`` as int16, refusing any that int16 cannot hold."""
    if values.size and not -32768 <= values.min() <= values.max() <= 32767:
        raise ConfigurationError("coefficient out of range")
    return values.astype(np.int16)


def encode_dc(dc_values: np.ndarray) -> np.ndarray:
    """Differential DC encoding of all blocks into one bitstream."""
    cat, amp = _categorize(np.diff(np.asarray(dc_values, np.int64), prepend=0))
    size = 2 * cat + 1  # unary(cat), then the amplitude
    unary = np.cumsum(size) - size
    return _pack_fields(
        int(size.sum()),
        np.concatenate([unary, unary + cat + 1]),
        np.concatenate([cat, cat]),
        np.concatenate([np.full_like(cat, -1), amp]),
    )


def decode_dc(stream: np.ndarray, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`encode_dc`."""
    stream = np.asarray(stream, dtype=np.uint8)
    bits = _bit_string(stream)
    starts, zeros, pos = [], [], 0
    for _ in range(n_blocks):
        zero = bits.find("0", pos)
        if zero < 0:
            raise ConfigurationError("bitstream underrun")
        starts.append(pos)
        zeros.append(zero)
        pos = 2 * zero - pos + 1  # then zero − pos amplitude bits
    if pos > len(bits):
        raise ConfigurationError("bitstream underrun")
    zero = np.array(zeros, dtype=np.int64)
    diffs = _amplitudes(stream, zero + 1, zero - np.array(starts, dtype=np.int64))
    return _int16(np.cumsum(diffs))


def encode_ac(ac_blocks: np.ndarray) -> np.ndarray:
    """Run-length + category coding of the 63 AC coefficients per block.

    Each nonzero is unary(zero run before it), unary(category) and the
    amplitude; each block ends with unary(63), an impossible run (EOB).
    """
    n = len(ac_blocks)
    blk, pos = np.nonzero(ac_blocks)
    cat, amp = _categorize(ac_blocks[blk, pos])
    prev = np.where(np.diff(blk, prepend=-1) == 0, np.roll(pos, 1), -1)
    run = pos - prev - 1
    size = run + 2 * cat + 2
    ends = np.cumsum(size)
    start = ends - size + 64 * blk  # after every earlier block's EOB
    in_blocks = np.cumsum(np.bincount(blk, minlength=n))
    eob = np.append(0, ends)[in_blocks] + 64 * np.arange(n)
    ones = np.full(2 * blk.size + n, -1)
    return _pack_fields(
        64 * n + int(size.sum()),
        np.concatenate([start, start + run + 1, eob, start + run + cat + 2]),
        np.concatenate([run, cat, np.full(n, 63), cat]),
        np.concatenate([ones, amp]),
    )


def decode_ac(stream: np.ndarray, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`encode_ac`."""
    stream = np.asarray(stream, dtype=np.uint8)
    bits = _bit_string(stream)
    # The zeros ending each symbol's run and category fields (an EOB has
    # no category field: −1), in stream order, up to an underrun.
    z1s, z2s, pos, blocks = [], [], 0, 0
    while blocks < n_blocks:
        z1 = bits.find("0", pos)
        if z1 - pos == 63:  # EOB
            z1s.append(z1)
            z2s.append(-1)
            pos, blocks = z1 + 1, blocks + 1
            continue
        z2 = bits.find("0", z1 + 1) if z1 >= 0 else -1
        if z2 < 0:
            break
        z1s.append(z1)
        z2s.append(z2)
        pos = 2 * z2 - z1  # then z2 − z1 − 1 amplitude bits
    z1, z2 = np.array(z1s, dtype=np.int64), np.array(z2s, dtype=np.int64)
    eob = z2 < 0
    start = np.append(0, np.where(eob, z1 + 1, 2 * z2 - z1)[:-1])
    blk = (np.cumsum(eob) - eob)[~eob]
    z1, z2, step = z1[~eob], z2[~eob], (z1 - start + 1)[~eob]  # run + 1
    ends = np.cumsum(step)
    zz = ends - (ends - step)[np.searchsorted(blk, blk)] - 1  # restart per block
    # A serial parser meets a run past position 62 before a later underrun.
    if np.any(zz >= 63):
        raise ConfigurationError("AC run overflow")
    if blocks < n_blocks:
        raise ConfigurationError("bitstream underrun")
    out = np.zeros((n_blocks, 63), dtype=np.int16)
    out[blk, zz] = _int16(_amplitudes(stream, z2 + 1, z2 - z1 - 1))
    return out


class JpegApp(Application):
    """Instrumented JPEG-style decoder over synthetic image blocks."""

    name = "jpeg"

    def __init__(self, scale: int = 1, seed: int = 2014) -> None:
        super().__init__(scale=scale, seed=seed)
        self.n_blocks = 96 * scale

    def kernel_traits(self) -> Dict[str, KernelTraits]:
        return {
            # Blocks are independent: AC decoding parallelizes across the
            # restart-interval split, which is what duplication exploits.
            "huff_dc_dec": KernelTraits(streams_host_io=True),
            "huff_ac_dec": KernelTraits(
                parallelizable=True, streams_host_io=True
            ),
            "dquantz_lum": KernelTraits(streams_kernel_input=True),
            "j_rev_dct": KernelTraits(
                streams_kernel_input=True, streams_host_io=True
            ),
        }

    # -- encoder (host side, untraced pre-processing) ----------------------
    def _encode_source(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Produce (source pixels, quantized zig-zag coefs, dc stream, ac stream)."""
        n = self.n_blocks
        # Smooth-ish synthetic blocks: low-frequency content + texture.
        # The draws stay in per-block order (the pixels fix the bitstream
        # sizes, which are profile edges); the arithmetic then runs over
        # all blocks at once, each element through the same operations.
        freq = np.empty((n, 2), dtype=np.float64)
        noise = np.empty((n, BLOCK, BLOCK), dtype=np.float64)
        for b in range(n):
            freq[b] = self.rng.uniform(0.1, 0.9, size=2)
            noise[b] = self.rng.normal(0, 4, (BLOCK, BLOCK))
        yy, xx = np.mgrid[0:BLOCK, 0:BLOCK]
        fx, fy = freq[:, 0, None, None], freq[:, 1, None, None]
        phase = np.arange(n)[:, None, None] * 0.37
        base = 128 + 90 * np.sin(fx * xx + phase) * np.cos(fy * yy)
        pixels = np.clip(base + noise, 0, 255)
        q = np.round(fdct2(pixels - 128.0) / QUANT_LUM).astype(np.int16)
        coefs = q.reshape(n, 64)[:, zigzag_order()]
        dc_stream = encode_dc(coefs[:, 0])
        ac_stream = encode_ac(coefs[:, 1:])
        return pixels, coefs, dc_stream, ac_stream

    def execute(self, tracer: Tracer, space: AddressSpace) -> None:
        n = self.n_blocks
        pixels_src, coefs_src, dc_bits, ac_bits = self._encode_source()
        self._pixels_src = pixels_src  # kept for verify()

        dc_stream = space.alloc("dc_stream", dc_bits.shape, np.uint8)
        ac_stream = space.alloc("ac_stream", ac_bits.shape, np.uint8)
        quant_tbl = space.alloc("quant_table", (64,), np.int16)
        zz_tbl = space.alloc("zigzag_table", (64,), np.uint8)
        dc_coef = space.alloc("dc_coef", (n,), np.int16)
        ac_coef = space.alloc("ac_coef", (n, 63), np.int16)
        coef = space.alloc("coef", (n, 64), np.int16)
        out_pixels = space.alloc("pixels", (n, BLOCK, BLOCK), np.uint8)

        zz = zigzag_order()
        with tracer.context("bitstream_parse"):
            dc_stream.store_full(dc_bits)
            ac_stream.store_full(ac_bits)
            quant_tbl.store_full(QUANT_LUM.reshape(-1)[zz])
            zz_tbl.store_full(zz)

        with tracer.context("huff_dc_dec"):
            stream = dc_stream.load_full()
            dc_coef.store_full(decode_dc(stream, n))
            tracer.add_work(40.0 * n)

        with tracer.context("huff_ac_dec"):
            stream = ac_stream.load_full()
            ac_coef.store_full(decode_ac(stream, n))
            tracer.add_work(900.0 * n)

        with tracer.context("dquantz_lum"):
            q = quant_tbl.load_full().astype(np.int32)
            dc = dc_coef.load_full().astype(np.int32)
            ac = ac_coef.load_full().astype(np.int32)
            dq = np.empty((n, 64), dtype=np.int16)
            dq[:, 0] = dc * int(q[0])
            dq[:, 1:] = ac * q[1:][None, :]
            coef.store_full(dq)
            tracer.add_work(128.0 * n)

        with tracer.context("j_rev_dct"):
            zz_inv = np.argsort(zz_tbl.load_full())
            dq = coef.load_full().astype(np.float64)
            blocks = dq[:, zz_inv].reshape(n, BLOCK, BLOCK)
            out_pixels.store_full(
                np.clip(idct2(blocks) + 128.0, 0, 255).astype(np.uint8)
            )
            tracer.add_work(700.0 * n)

        with tracer.context("display"):
            out_pixels.load_full()  # host consumes the decoded frame

    def verify(self, space: AddressSpace) -> None:
        decoded = space.get("pixels").data.astype(np.float64)
        err = np.abs(decoded - self._pixels_src)
        # Quantization with Annex K tables keeps mean error small.
        if err.mean() > 12.0:
            raise AssertionError(
                f"JPEG round-trip error too high (mean {err.mean():.1f})"
            )
