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
# genuine prefix code with JPEG's category/amplitude structure).
# --------------------------------------------------------------------------
class BitWriter:
    """Append-only bit stream, kept as ``'0'``/``'1'`` string pieces."""

    def __init__(self) -> None:
        self.pieces: List[str] = []

    def write(self, value: int, nbits: int) -> None:
        """Write the low ``nbits`` of ``value``, MSB first."""
        self.pieces.append(bin((1 << nbits) | (value & ((1 << nbits) - 1)))[3:])

    def write_unary(self, n: int) -> None:
        """``n`` ones followed by a zero."""
        self.pieces.append("1" * n + "0")

    def to_bytes(self) -> np.ndarray:
        """Pack to a uint8 array (zero padded)."""
        bits = np.frombuffer("".join(self.pieces).encode("ascii"), np.uint8)
        return np.packbits(bits - ord("0"))


class BitReader:
    """Sequential bit-stream reader over a uint8 array."""

    def __init__(self, data: np.ndarray) -> None:
        bits = np.unpackbits(np.asarray(data, dtype=np.uint8)) + ord("0")
        self.bits = bits.tobytes().decode("ascii")
        self.pos = 0

    def read(self, nbits: int) -> int:
        """Read ``nbits`` MSB-first."""
        end = self.pos + nbits
        if end > len(self.bits):
            raise ConfigurationError("bitstream underrun")
        value = int(self.bits[self.pos : end] or "0", 2)
        self.pos = end
        return value

    def read_unary(self) -> int:
        """Count ones until the terminating zero."""
        end = self.bits.find("0", self.pos)
        if end < 0:
            raise ConfigurationError("bitstream underrun")
        n = end - self.pos
        self.pos = end + 1
        return n


def _category(value: int) -> int:
    """JPEG size category: bit length of |value|."""
    return int(abs(value)).bit_length()


def _encode_amplitude(writer: BitWriter, value: int, cat: int) -> None:
    if cat == 0:
        return
    if value < 0:  # one's-complement style negative coding, as in JPEG
        value = value + (1 << cat) - 1
    writer.write(value, cat)


def _decode_amplitude(reader: BitReader, cat: int) -> int:
    if cat == 0:
        return 0
    raw = reader.read(cat)
    if raw < (1 << (cat - 1)):  # negative range
        return raw - (1 << cat) + 1
    return raw


def encode_dc(dc_values: np.ndarray) -> np.ndarray:
    """Differential DC encoding of all blocks into one bitstream."""
    writer = BitWriter()
    prev = 0
    for dc in dc_values:
        diff = int(dc) - prev
        prev = int(dc)
        cat = _category(diff)
        writer.write_unary(cat)
        _encode_amplitude(writer, diff, cat)
    return writer.to_bytes()


def decode_dc(stream: np.ndarray, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`encode_dc`."""
    reader = BitReader(stream)
    out = np.zeros(n_blocks, dtype=np.int16)
    prev = 0
    for i in range(n_blocks):
        cat = reader.read_unary()
        prev += _decode_amplitude(reader, cat)
        out[i] = prev
    return out


def encode_ac(ac_blocks: np.ndarray) -> np.ndarray:
    """Run-length + category coding of the 63 AC coefficients per block."""
    writer = BitWriter()
    for block in ac_blocks:
        prev = -1
        for pos in np.flatnonzero(block).tolist():
            coef = int(block[pos])
            writer.write_unary(pos - prev - 1)  # zero run before coef
            cat = _category(coef)
            writer.write_unary(cat)
            _encode_amplitude(writer, coef, cat)
            prev = pos
        writer.write_unary(63)  # EOB marker (impossible run value)
    return writer.to_bytes()


def decode_ac(stream: np.ndarray, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`encode_ac`."""
    reader = BitReader(stream)
    out = np.zeros((n_blocks, 63), dtype=np.int16)
    for b in range(n_blocks):
        pos = 0
        while True:
            run = reader.read_unary()
            if run == 63:  # EOB
                break
            pos += run
            cat = reader.read_unary()
            if pos >= 63:
                raise ConfigurationError("AC run overflow")
            out[b, pos] = _decode_amplitude(reader, cat)
            pos += 1
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
