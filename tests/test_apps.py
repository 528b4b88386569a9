"""Tests for the four instrumented applications.

Each application is tested for (a) functional correctness of the real
computation, (b) the communication-profile *structure* Algorithm 1
depends on (who talks to whom), and (c) the structural properties that
produce the paper's per-app solutions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import get_application
from repro.apps.canny import gaussian_blur, hysteresis_threshold, nonmax, sobel
from repro.apps.fluid import (
    DT,
    RELAX,
    AdvectionWeights,
    FluidApp,
    advect_field,
    diffuse_field,
    divergence,
    jacobi,
    project_fields,
)
from repro.apps.jpeg import (
    JpegApp,
    decode_ac,
    decode_dc,
    encode_ac,
    encode_dc,
    fdct2,
    idct2,
    zigzag_order,
)
from repro.apps.klt import (
    TRUE_SHIFT,
    bilinear_sample,
    central_gradients,
    lk_track,
    shift_frame,
    smooth_noise,
)
from repro.apps.registry import APP_NAMES
from repro.core import CommGraph, KernelSpec
from repro.core.sharing import find_sharing_pairs
from repro.errors import ConfigurationError
from repro.flow import run_experiment
from repro.profiling import AddressSpace, QuadAnalyzer, Tracer


# ---------------------------------------------------------------------------
# Algorithm-level unit tests (pure functions)
# ---------------------------------------------------------------------------


class TestCannyPrimitives:
    def test_gaussian_preserves_constant(self):
        img = np.full((20, 20), 7.0)
        out = gaussian_blur(img)
        assert np.allclose(out, 7.0)

    def test_gaussian_smooths_noise(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((40, 40))
        assert gaussian_blur(img).std() < img.std()

    def test_sobel_detects_vertical_edge(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 100.0
        mag, direction = sobel(img)
        assert mag[:, 7:9].max() > 100
        assert mag[:, :5].max() == 0
        # Gradient along x => direction sector 0.
        assert (direction[4:12, 7:9] == 0).all()

    def test_nonmax_thins_edges(self):
        img = np.zeros((16, 16))
        img[:, 8:] = 100.0
        mag, d = sobel(img)
        thinned = nonmax(mag, d)
        assert (thinned > 0).sum() <= (mag > 0).sum()

    def test_hysteresis_keeps_connected_weak(self):
        nms = np.zeros((10, 10))
        nms[5, 5] = 100.0  # strong
        nms[5, 6] = 30.0  # weak, connected
        nms[1, 1] = 30.0  # weak, isolated
        edges = hysteresis_threshold(nms, low=20.0, high=60.0)
        assert edges[5, 5] == 1 and edges[5, 6] == 1
        assert edges[1, 1] == 0


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class RefBitWriter:
    """Reference: the per-symbol bit writer the JPEG coder replaced."""

    def __init__(self):
        self.pieces = []

    def write(self, value, nbits):
        self.pieces.append(bin((1 << nbits) | (value & ((1 << nbits) - 1)))[3:])

    def write_unary(self, n):
        self.pieces.append("1" * n + "0")

    def to_bytes(self):
        bits = np.frombuffer("".join(self.pieces).encode("ascii"), np.uint8)
        return np.packbits(bits - ord("0"))


class RefBitReader:
    """Reference: the per-symbol bit reader the JPEG coder replaced."""

    def __init__(self, data):
        bits = np.unpackbits(np.asarray(data, dtype=np.uint8)) + ord("0")
        self.bits = bits.tobytes().decode("ascii")
        self.pos = 0

    def read(self, nbits):
        end = self.pos + nbits
        if end > len(self.bits):
            raise ConfigurationError("bitstream underrun")
        value = int(self.bits[self.pos : end] or "0", 2)
        self.pos = end
        return value

    def read_unary(self):
        end = self.bits.find("0", self.pos)
        if end < 0:
            raise ConfigurationError("bitstream underrun")
        n = end - self.pos
        self.pos = end + 1
        return n


def ref_category(value):
    return abs(value).bit_length()


def ref_encode_amplitude(writer, value, cat):
    if cat:
        writer.write(value + (1 << cat) - 1 if value < 0 else value, cat)


def ref_decode_amplitude(reader, cat):
    if cat == 0:
        return 0
    raw = reader.read(cat)
    return raw - (1 << cat) + 1 if raw < (1 << (cat - 1)) else raw


def ref_encode_dc(dc_values):
    """Reference: ``jpeg.encode_dc`` one symbol at a time."""
    writer, prev = RefBitWriter(), 0
    for dc in dc_values.tolist():
        cat = ref_category(dc - prev)
        writer.write_unary(cat)
        ref_encode_amplitude(writer, dc - prev, cat)
        prev = dc
    return writer.to_bytes()


def ref_decode_dc(stream, n_blocks):
    """Reference: ``jpeg.decode_dc`` one symbol at a time. A value outside
    int16 raises NumPy's ``OverflowError`` on the store."""
    reader, out, prev = RefBitReader(stream), np.zeros(n_blocks, np.int16), 0
    for i in range(n_blocks):
        prev += ref_decode_amplitude(reader, reader.read_unary())
        out[i] = prev
    return out


def ref_encode_ac(ac_blocks):
    """Reference: ``jpeg.encode_ac`` one symbol at a time."""
    writer = RefBitWriter()
    for block in ac_blocks:
        prev = -1
        for pos in np.flatnonzero(block).tolist():
            coef = int(block[pos])
            writer.write_unary(pos - prev - 1)
            cat = ref_category(coef)
            writer.write_unary(cat)
            ref_encode_amplitude(writer, coef, cat)
            prev = pos
        writer.write_unary(63)
    return writer.to_bytes()


def ref_decode_ac(stream, n_blocks):
    """Reference: ``jpeg.decode_ac`` one symbol at a time."""
    reader = RefBitReader(stream)
    out = np.zeros((n_blocks, 63), dtype=np.int16)
    for b in range(n_blocks):
        pos = 0
        while True:
            run = reader.read_unary()
            if run == 63:
                break
            pos += run
            cat = reader.read_unary()
            if pos >= 63:
                raise ConfigurationError("AC run overflow")
            out[b, pos] = ref_decode_amplitude(reader, cat)
            pos += 1
    return out


def bit_stream(bits: str) -> np.ndarray:
    """Pack a ``'0'``/``'1'`` string (zero padded)."""
    return np.packbits(np.frombuffer(bits.encode("ascii"), np.uint8) - ord("0"))


#: Coefficients at the ends of categories 1, 2, 10, 11, 15 and 16.
EDGE_VALUES = [1, -1, 2, -3, 1023, -1023, 1024, -1024, 2047, -2047,
               32767, -32767, -32768]


def fuzz_ac_blocks(rng, n):
    """``n`` blocks of random sparsity, some all zero, some dense."""
    density = rng.choice([0.0, 0.02, 0.1, 0.5, 1.0], size=(n, 1))
    magnitude = rng.choice([2, 64, 2048, 32768], size=(n, 1))
    values = rng.integers(-magnitude, magnitude, size=(n, 63))
    blocks = np.where(rng.random((n, 63)) < density, values, 0)
    return blocks.astype(np.int16)


class TestJpegPrimitives:
    def test_zigzag_is_permutation(self):
        zz = zigzag_order()
        assert sorted(zz) == list(range(64))
        assert list(zz[:4]) == [0, 1, 8, 16]

    def test_dct_roundtrip(self):
        rng = np.random.default_rng(2)
        block = rng.uniform(-128, 127, (8, 8))
        assert np.allclose(idct2(fdct2(block)), block, atol=1e-9)

    def test_dc_codec_roundtrip(self):
        values = np.array([5, 5, -3, 100, 0, -100], dtype=np.int16)
        stream = encode_dc(values)
        assert np.array_equal(decode_dc(stream, len(values)), values)

    def test_ac_codec_roundtrip(self):
        rng = np.random.default_rng(3)
        blocks = np.zeros((10, 63), dtype=np.int16)
        for b in range(10):
            idx = rng.choice(63, size=6, replace=False)
            blocks[b, idx] = rng.integers(-50, 50, size=6)
        stream = encode_ac(blocks)
        assert np.array_equal(decode_ac(stream, 10), blocks)

    def test_ac_all_zero_blocks(self):
        blocks = np.zeros((4, 63), dtype=np.int16)
        assert np.array_equal(decode_ac(encode_ac(blocks), 4), blocks)

    def test_category_11_negative_roundtrip(self):
        # |v| in [1024, 2047] is category 11; negatives take the
        # one's-complement amplitude path.
        dc = np.array([-2047, -1024, 0, -1500, 1023], dtype=np.int16)
        assert np.array_equal(decode_dc(encode_dc(dc), len(dc)), dc)
        blocks = np.zeros((3, 63), dtype=np.int16)
        blocks[0, 0] = -2047
        blocks[0, 62] = -1024
        blocks[1, 30] = -1500
        blocks[1, 31] = 2047
        blocks[2, 62] = -1
        assert np.array_equal(decode_ac(encode_ac(blocks), 3), blocks)

    def test_truncated_dc_stream_underruns(self):
        # 1000 is category 10: 11 unary bits, then 10 amplitude bits.
        stream = encode_dc(np.array([1000], dtype=np.int16))
        assert len(stream) == 3
        with pytest.raises(ConfigurationError, match="underrun"):
            decode_dc(stream[:2], 1)  # runs out inside the amplitude
        # 1500 is category 11: the unary prefix alone is 12 bits.
        stream = encode_dc(np.array([1500], dtype=np.int16))
        with pytest.raises(ConfigurationError, match="underrun"):
            decode_dc(stream[:1], 1)  # runs out inside the unary field

    def test_truncated_ac_stream_underruns(self):
        # Coefficient -1500 at position 0: run '0', category 11 in 12
        # unary bits, 11 amplitude bits, then the 64-bit EOB.
        blocks = np.zeros((1, 63), dtype=np.int16)
        blocks[0, 0] = -1500
        stream = encode_ac(blocks)
        assert np.array_equal(decode_ac(stream, 1), blocks)
        with pytest.raises(ConfigurationError, match="underrun"):
            decode_ac(stream[:2], 1)  # runs out inside the amplitude
        with pytest.raises(ConfigurationError, match="underrun"):
            decode_ac(stream[:1], 1)  # runs out inside the unary field

    def test_category_0_amplitude_at_end_of_stream(self):
        # 5 is '1110' + '101', then the diff 0 is a lone '0': the second
        # symbol's empty amplitude ends exactly at the last bit.
        values = np.array([5, 5], dtype=np.int16)
        stream = encode_dc(values)
        assert stream.tobytes() == bytes([0b11101010])
        assert np.array_equal(decode_dc(stream, 2), values)
        with pytest.raises(ConfigurationError, match="underrun"):
            decode_dc(stream, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_streams_match_reference_coder(self, seed):
        rng = np.random.default_rng(seed)
        blocks = fuzz_ac_blocks(rng, 40)
        dc = rng.integers(-32768, 32768, size=40).astype(np.int16)
        assert same_bytes(encode_ac(blocks), ref_encode_ac(blocks))
        assert same_bytes(encode_dc(dc), ref_encode_dc(dc))
        assert np.array_equal(decode_ac(encode_ac(blocks), 40), blocks)
        assert np.array_equal(decode_dc(encode_dc(dc), 40), dc)

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_coefficients_match_reference_coder(self, value):
        blocks = np.zeros((5, 63), dtype=np.int16)  # block 4 stays zero
        blocks[0, 0] = value
        blocks[1, 62] = value  # after a run of 62 zeros
        blocks[2, [0, 62]] = value
        blocks[3] = value
        stream = encode_ac(blocks)
        assert same_bytes(stream, ref_encode_ac(blocks))
        assert np.array_equal(decode_ac(stream, 5), blocks)
        dc = np.array([value, 0, value, value, -1], dtype=np.int16)
        assert same_bytes(encode_dc(dc), ref_encode_dc(dc))
        assert np.array_equal(decode_dc(encode_dc(dc), 5), dc)

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2, 2014])
    def test_source_streams_match_reference_coder(self, scale, seed):
        app = JpegApp(scale=scale, seed=seed)
        _, coefs, dc_stream, ac_stream = app._encode_source()
        assert same_bytes(dc_stream, ref_encode_dc(coefs[:, 0]))
        assert same_bytes(ac_stream, ref_encode_ac(coefs[:, 1:]))
        assert np.array_equal(decode_dc(dc_stream, app.n_blocks), coefs[:, 0])
        assert np.array_equal(decode_ac(ac_stream, app.n_blocks), coefs[:, 1:])

    def test_truncation_at_every_byte_underruns(self):
        rng = np.random.default_rng(7)
        blocks = fuzz_ac_blocks(rng, 12)
        dc = rng.integers(-2048, 2048, size=12).astype(np.int16)
        for stream, decode in [
            (encode_ac(blocks), decode_ac), (encode_dc(dc), decode_dc)
        ]:
            assert len(stream) > 20
            for cut in range(len(stream)):
                with pytest.raises(ConfigurationError, match="underrun"):
                    decode(stream[:cut], 12)

    def test_random_bytes_decode_like_reference_or_raise_typed_error(self):
        rng = np.random.default_rng(2014)
        for i in range(2000):
            stream = rng.integers(0, 256, size=int(rng.integers(0, 40)),
                                  dtype=np.uint8)
            if i % 2:  # long runs of ones reach the EOB and big categories
                stream |= rng.integers(0, 256, size=stream.size, dtype=np.uint8)
            n_blocks = int(rng.integers(0, 4))
            for decode, reference in [
                (decode_ac, ref_decode_ac), (decode_dc, ref_decode_dc)
            ]:
                try:
                    expected = reference(stream, n_blocks)
                except (ConfigurationError, OverflowError) as exc:
                    with pytest.raises(ConfigurationError) as raised:
                        decode(stream, n_blocks)
                    if isinstance(exc, ConfigurationError):
                        assert str(raised.value) == str(exc)
                else:
                    out = decode(stream, n_blocks)
                    assert out.dtype == np.int16
                    assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "decode,bits,n_blocks",
        [
            # One block: run 0, category 17, 131071, EOB.
            (decode_ac, "0" + "1" * 17 + "0" + "1" * 17 + "1" * 63 + "0", 1),
            # Category 16: 65535.
            (decode_dc, "1" * 16 + "0" + "1" * 16, 1),
            # 32767 twice: each diff fits, the running sum does not.
            (decode_dc, 2 * ("1" * 15 + "0" + "1" * 15), 2),
        ],
    )
    def test_coefficient_outside_int16_is_typed_error(self, decode, bits, n_blocks):
        with pytest.raises(ConfigurationError, match="out of range"):
            decode(bit_stream(bits), n_blocks)


def ref_smooth_noise(rng, n, octaves=3):
    """Reference: ``klt.smooth_noise`` upsampling with ``np.kron``."""
    img = np.zeros((n, n))
    for o in range(octaves):
        step = 2 ** (octaves - o + 1)
        coarse = rng.standard_normal((n // step + 2, n // step + 2))
        img += np.kron(coarse, np.ones((step, step)))[:n, :n] * (2.0 ** -o)
    img -= img.min()
    return 255.0 * img / img.max()


def ref_shift_frame(img, dy, dx):
    """Reference: ``klt.shift_frame`` as one full-grid ``bilinear_sample``."""
    ys, xs = np.mgrid[0 : img.shape[0], 0 : img.shape[1]]
    return bilinear_sample(img, ys - dy, xs - dx)


def mutant_shift_frame(img, dy, dx):
    """``shift_frame`` with each term's two weights multiplied first."""
    h, w = img.shape
    ys = np.clip(np.arange(h) - dy, 0, h - 1.001)
    xs = np.clip(np.arange(w) - dx, 0, w - 1.001)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    fy, fx = (ys - y0)[:, None], xs - x0
    top, bottom = img[y0], img[y0 + 1]
    return (
        top[:, x0] * ((1 - fy) * (1 - fx))
        + top[:, x0 + 1] * ((1 - fy) * fx)
        + bottom[:, x0] * (fy * (1 - fx))
        + bottom[:, x0 + 1] * (fy * fx)
    )


#: (rows, cols) of the frames shifted byte for byte against the reference.
SHIFT_SHAPES = [(n, n) for n in (5, 64, 128, 256)] + [
    (5, 9), (64, 37), (128, 256), (256, 128)
]


class TestKltPrimitives:
    @pytest.mark.parametrize(
        "shift", [TRUE_SHIFT, (0.3, -0.7), (-2.25, 3.6), (0.0, 0.0)]
    )
    @pytest.mark.parametrize("shape", SHIFT_SHAPES)
    def test_shift_frame_bytes_match_bilinear_reference(self, shape, shift):
        img = np.random.default_rng(shape[0] * shape[1]).random(shape) * 255.0
        assert same_bytes(shift_frame(img, *shift), ref_shift_frame(img, *shift))

    def test_byte_test_catches_premultiplied_weights(self):
        # Not at TRUE_SHIFT: its 1 − fy = fy = 0.5 scales exactly, so
        # there the mutant gives the same bytes.
        img = smooth_noise(np.random.default_rng(9), 64)
        assert not same_bytes(mutant_shift_frame(img, 0.3, -0.7),
                              shift_frame(img, 0.3, -0.7))

    @pytest.mark.parametrize("n", [5, 64, 100, 256])
    def test_smooth_noise_bytes_match_kron_reference(self, n):
        assert same_bytes(smooth_noise(np.random.default_rng(n), n),
                          ref_smooth_noise(np.random.default_rng(n), n))

    def test_bilinear_at_integer_coords(self):
        img = np.arange(25, dtype=float).reshape(5, 5)
        ys, xs = np.array([2.0]), np.array([3.0])
        assert bilinear_sample(img, ys, xs)[0] == pytest.approx(13.0)

    def test_bilinear_interpolates(self):
        img = np.array([[0.0, 10.0], [0.0, 10.0]])
        val = bilinear_sample(img, np.array([0.0]), np.array([0.5]))[0]
        assert val == pytest.approx(5.0)

    def test_gradients_of_ramp(self):
        img = np.tile(np.arange(10, dtype=float), (10, 1))
        gx, gy = central_gradients(img)
        assert np.allclose(gx[:, 1:-1], 1.0)
        assert np.allclose(gy[1:-1, :], 0.0)

    def test_smooth_noise_range_and_texture(self):
        img = smooth_noise(np.random.default_rng(4), 64)
        assert img.min() >= 0 and img.max() <= 255
        assert img.std() > 10  # actually textured

    def test_flat_window_stays_put_while_textured_features_converge(self):
        n = 64
        img1 = smooth_noise(np.random.default_rng(6), n)
        img1[:, :24] = 100.0  # flat strip: zero gradients, singular tensor
        img2 = shift_frame(img1, *TRUE_SHIFT)
        gx, gy = central_gradients(img1)
        feats = np.array(
            [[32.0, 44.0], [30.0, 8.5], [20.0, 40.0], [44.0, 50.0]]
        )
        tracked = lk_track(img1, img2, gx, gy, feats)
        assert np.array_equal(tracked[1], feats[1])
        # An unmoved feature would be off by at least 0.8 px.
        textured = np.delete(tracked - feats, 1, axis=0)
        assert np.abs(textured - np.array(TRUE_SHIFT)).max() < 0.5


def slice_jacobi(x0, b, alpha, beta):
    """Reference: ``fluid.jacobi`` written over 2-D slices."""
    x = x0.copy()
    for _ in range(RELAX):
        x_new = x.copy()
        x_new[1:-1, 1:-1] = (
            b[1:-1, 1:-1]
            + alpha
            * (x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:])
        ) / beta
        x = x_new
    return x


def slice_advect(field, u, v):
    """Reference: ``fluid.advect_field`` written with 2-D fancy indexing."""
    n, m = field.shape
    ys, xs = np.mgrid[0:n, 0:m].astype(np.float64)
    back_y = np.clip(ys - DT * n * v, 0.5, n - 1.5)
    back_x = np.clip(xs - DT * m * u, 0.5, m - 1.5)
    y0 = np.floor(back_y).astype(int)
    x0 = np.floor(back_x).astype(int)
    fy, fx = back_y - y0, back_x - x0
    return (
        field[y0, x0] * (1 - fy) * (1 - fx)
        + field[y0, x0 + 1] * (1 - fy) * fx
        + field[y0 + 1, x0] * fy * (1 - fx)
        + field[y0 + 1, x0 + 1] * fy * fx
    )


def mutant_jacobi(x0, b, alpha, beta):
    """``slice_jacobi`` with the neighbour sum reassociated."""
    x = x0.copy()
    for _ in range(RELAX):
        x_new = x.copy()
        x_new[1:-1, 1:-1] = (
            b[1:-1, 1:-1]
            + alpha
            * ((x[1:-1, :-2] + x[1:-1, 2:]) + (x[:-2, 1:-1] + x[2:, 1:-1]))
        ) / beta
        x = x_new
    return x


EXACT_SHAPES = [(3, 3), (5, 7), (64, 64), (128, 128)]
#: ``diffuse_field``'s alpha for velocity at 64².
_ALPHA_64 = DT * 0.0002 * 64 * 64
#: (alpha, beta) of the app's diffusion and pressure solves.
RELAX_COEFFS = [(_ALPHA_64, 1 + 4 * _ALPHA_64), (1.0, 4.0)]


class TestFluidPrimitives:
    @pytest.mark.parametrize("transposed_b", [False, True])
    @pytest.mark.parametrize("alpha,beta", RELAX_COEFFS)
    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_jacobi_bytes_match_slice_reference(
        self, shape, alpha, beta, transposed_b
    ):
        rng = np.random.default_rng(sum(shape))
        x0 = rng.normal(size=shape)
        if transposed_b:  # a non-contiguous view
            b = rng.normal(size=shape[::-1]).T
            assert not b.flags.c_contiguous
        else:
            b = rng.normal(size=shape)
        assert same_bytes(jacobi(x0, b, alpha, beta),
                          slice_jacobi(x0, b, alpha, beta))

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_diffuse_float32_bytes_match_slice_reference(self, shape):
        field = np.random.default_rng(3).random(shape, dtype=np.float32)
        a = DT * 0.0001 * shape[0] * shape[1]
        out = diffuse_field(field, 0.0001)
        assert out.dtype == np.float32
        assert same_bytes(out, slice_jacobi(field, field, a, 1 + 4 * a))

    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 6), (2, 2), (2, 9), (9, 2), (6, 1)]
    )
    def test_jacobi_without_interior_returns_input(self, shape):
        x0 = np.random.default_rng(2).normal(size=shape)
        out = jacobi(x0, x0, 1.0, 4.0)
        assert out is not x0
        assert same_bytes(out, x0)
        assert same_bytes(out, slice_jacobi(x0, x0, 1.0, 4.0))

    def test_byte_test_catches_reordered_neighbour_sum(self):
        rng = np.random.default_rng(64)
        x0, b = rng.normal(size=(64, 64)), rng.normal(size=(64, 64))
        assert not same_bytes(mutant_jacobi(x0, b, 1.0, 4.0),
                              jacobi(x0, b, 1.0, 4.0))

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_advect_bytes_match_slice_reference(self, shape):
        rng = np.random.default_rng(shape[0] * shape[1])
        u, v = rng.normal(size=shape), rng.normal(size=shape)
        fields = [u, v, rng.random(shape), rng.random(shape, dtype=np.float32)]
        trace = AdvectionWeights(u, v)
        for field in fields:
            expected = slice_advect(field, u, v)
            assert same_bytes(trace.apply(field), expected)
            assert same_bytes(advect_field(field, u, v), expected)

    def test_diffuse_conserves_constant(self):
        field = np.full((32, 32), 3.0)
        assert np.allclose(diffuse_field(field, 0.001)[1:-1, 1:-1], 3.0, atol=1e-6)

    def test_advect_zero_velocity_identity(self):
        rng = np.random.default_rng(5)
        f = rng.random((32, 32))
        zero = np.zeros_like(f)
        out = advect_field(f, zero, zero)
        assert np.allclose(out[1:-1, 1:-1], f[1:-1, 1:-1])

    def test_projection_reduces_divergence(self):
        # A band-limited velocity field (white noise needs more Jacobi
        # sweeps than the solver's fixed budget to converge fully).
        ys, xs = np.mgrid[0:32, 0:32] / 32.0
        u = np.sin(2 * np.pi * xs) * np.cos(4 * np.pi * ys)
        v = np.cos(6 * np.pi * xs) * np.sin(2 * np.pi * ys)
        before = np.abs(divergence(u, v)).mean()
        u2, v2 = project_fields(u, v)
        after = np.abs(divergence(u2, v2)).mean()
        assert after < 0.5 * before


# ---------------------------------------------------------------------------
# End-to-end application behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", APP_NAMES)
class TestAllApplications:
    def test_runs_and_verifies(self, name):
        app = get_application(name)
        profile = app.run_profiled(verify=True)
        assert profile.total_bytes() > 0

    def test_every_kernel_charges_work(self, name):
        app = get_application(name)
        profile = app.profile()
        for k in app.kernel_names():
            assert profile.function(k).work > 0

    def test_profile_deterministic(self, name):
        p1 = get_application(name).run_profiled()
        p2 = get_application(name).run_profiled()
        assert {(e.producer, e.consumer, e.bytes) for e in p1.edges} == {
            (e.producer, e.consumer, e.bytes) for e in p2.edges
        }

    def test_kernels_exchange_data(self, name):
        app = get_application(name)
        g = CommGraph.from_profile(
            app.profile(), [KernelSpec(k, 1.0, 1.0) for k in app.kernel_names()]
        )
        assert len(g.kk_edges) > 0


class TestRegistry:
    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            get_application("doom")

    def test_names_cover_paper_apps(self):
        assert set(APP_NAMES) == {"canny", "jpeg", "klt", "fluid"}

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            get_application("canny", scale=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 2.0}, {"scale": True}, {"scale": np.float64(1)},
            {"scale": "2"}, {"scale": -1}, {"seed": -1}, {"seed": 1.7},
            {"seed": False}, {"seed": np.bool_(True)}, {"seed": "3"},
        ],
    )
    def test_scale_and_seed_must_be_integers(self, kwargs):
        for name in APP_NAMES:
            with pytest.raises(ConfigurationError):
                get_application(name, **kwargs)

    def test_numpy_integers_accepted(self):
        app = get_application("klt", scale=np.int64(2), seed=np.int32(0))
        assert app.scale == 2 and type(app.scale) is int
        ref = get_application("klt", scale=2, seed=0)
        assert app.rng.random() == ref.rng.random()

    @pytest.mark.parametrize("steps", [0, -2, 1.0, True, "2"])
    def test_fluid_steps_must_be_positive_integer(self, steps):
        with pytest.raises(ConfigurationError):
            FluidApp(steps=steps)

    @pytest.mark.parametrize("kwargs", [{"scale": 2.0}, {"seed": -1}])
    def test_run_experiment_refuses_bad_inputs(self, kwargs):
        with pytest.raises(ConfigurationError):
            run_experiment("fluid", simulate=False, **kwargs)


# ---------------------------------------------------------------------------
# Structural properties that produce the paper's per-app solutions
# ---------------------------------------------------------------------------


def kernel_graph(name):
    app = get_application(name)
    specs = [KernelSpec(k, 1.0, 1.0) for k in app.kernel_names()]
    return app, CommGraph.from_profile(app.profile(), specs)


class TestPaperStructure:
    def test_jpeg_fig5_structure(self):
        app, g = kernel_graph("jpeg")
        # dquantz_lum sends only to j_rev_dct, which receives kernel
        # input only from dquantz_lum (the paper's SM pair).
        assert g.consumers_of("dquantz_lum") == ("j_rev_dct",)
        assert g.producers_of("j_rev_dct") == ("dquantz_lum",)
        # huff_dc_dec: host input only, kernel output only (R2, S1).
        assert g.d_h_in("huff_dc_dec") > 0
        assert g.d_k_in("huff_dc_dec") == 0
        assert g.d_h_out("huff_dc_dec") == 0
        assert g.d_k_out("huff_dc_dec") > 0
        # j_rev_dct also consumes host data (tables) and feeds the host.
        assert g.d_h_in("j_rev_dct") > 0
        assert g.d_h_out("j_rev_dct") > 0

    def test_klt_single_exclusive_pair(self):
        app, g = kernel_graph("klt")
        links = find_sharing_pairs(g)
        assert len(links) == 1
        assert (links[0].producer, links[0].consumer) == (
            "compute_gradients",
            "track_features",
        )
        assert links[0].crossbar  # tracker talks to the host
        # After sharing, nothing is left for a NoC.
        assert len(g.kk_edges) == 1

    def test_fluid_has_no_exclusive_pairs(self):
        app, g = kernel_graph("fluid")
        assert find_sharing_pairs(g) == ()
        # Each kernel talks to at least two partners.
        for k in g.kernel_names():
            partners = set(g.consumers_of(k)) | set(g.producers_of(k))
            assert len(partners) >= 2

    def test_canny_has_pair_and_residual(self):
        app, g = kernel_graph("canny")
        links = find_sharing_pairs(g)
        assert len(links) >= 1
        # Not everything collapses into shared memory: a NoC remains.
        assert len(g.kk_edges) > len(links)

    def test_jpeg_hottest_is_huff_ac(self):
        app = get_application("jpeg")
        profile = app.profile()
        works = {k: profile.function(k).work for k in app.kernel_names()}
        assert max(works, key=works.get) == "huff_ac_dec"
        assert app.kernel_traits()["huff_ac_dec"].parallelizable


# ---------------------------------------------------------------------------
# Frozen outputs: every profile and buffer byte of each application
# ---------------------------------------------------------------------------

APP_GOLDENS = Path(__file__).parent / "goldens" / "app_outputs.json"
GOLDEN_SCALES = (1, 2)
GOLDEN_SEEDS = (0, 1, 2, 3, 4, 2014)


class _AccessLog(Tracer):
    """Tracer that also keeps every traced load/store interval in order."""

    def __init__(self) -> None:
        super().__init__()
        self.accesses = []

    def record_load(self, lo, hi):
        if self.enabled:
            self.accesses.append((self.current, "load", lo, hi))
        super().record_load(lo, hi)

    def record_store(self, lo, hi):
        if self.enabled:
            self.accesses.append((self.current, "store", lo, hi))
        super().record_store(lo, hi)


def _sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def app_output_digests(name: str, scale: int, seed: int) -> dict:
    """sha256 digests of one execution's profile, accesses and buffers."""
    app = get_application(name, scale=scale, seed=seed)
    tracer = _AccessLog()
    space = AddressSpace(tracer)
    app.execute(tracer, space)
    profile = QuadAnalyzer(tracer).profile()
    return {
        "profile": _sha256_json(
            {
                "edges": [
                    [e.producer, e.consumer, e.bytes, e.umas]
                    for e in profile.edges
                ],
                "functions": [
                    [f.name, f.calls, f.bytes_loaded, f.bytes_stored, repr(f.work)]
                    for f in profile.functions
                ],
            }
        ),
        "accesses": _sha256_json(tracer.accesses),
        "buffers": {
            buf.name: hashlib.sha256(buf.data.tobytes()).hexdigest()
            for buf in space.buffers
        },
    }


def golden_key(name: str, scale: int, seed: int) -> str:
    return f"{name}/x{scale}/seed{seed}"


def write_app_goldens(path: Path = APP_GOLDENS) -> None:
    """Regenerate ``app_outputs.json`` (see tests/goldens/README.md)."""
    doc = {
        golden_key(name, scale, seed): app_output_digests(name, scale, seed)
        for name in APP_NAMES
        for scale in GOLDEN_SCALES
        for seed in GOLDEN_SEEDS
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def app_goldens():
    return json.loads(APP_GOLDENS.read_text())


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("scale", GOLDEN_SCALES)
@pytest.mark.parametrize("name", APP_NAMES)
def test_app_outputs_match_goldens(app_goldens, name, scale, seed):
    assert app_output_digests(name, scale, seed) == app_goldens[
        golden_key(name, scale, seed)
    ]
