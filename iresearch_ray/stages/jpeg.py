"""Baseline JPEG (ITU-T T.81, SOF0) codec — pure numpy + stdlib.

Fills the "first real user hits the fake decoder" gap for the most common
compressed image format without adding dependencies: a correctness-grade
sequential-baseline decoder (DQT/SOF0/DHT/SOS/DRI marker walk, canonical
Huffman entropy decode, dequant + de-zigzag + matrix IDCT, JFIF YCbCr→RGB)
plus the matching encoder used to generate test fixtures.  Production
deployments still swap in Pillow via the ``decoder='pil'`` seam
(multimodal.py); this path exists so the Ray-side plumbing is exercised on
REAL compressed bytes (SURVEY §2.12).

Scope (raise, never silently mis-decode, outside it):
- baseline DCT (SOF0) and progressive DCT (SOF2, full ITU-T T.81 §G.1.2:
  spectral selection + successive approximation, DC/AC first and
  refinement scans, EOBn runs, restart resync), 8-bit samples
- grayscale or 3-component YCbCr at ANY integer-ratio sampling (4:4:4,
  4:2:2, 4:2:0, 4:1:1 — generalized H_i x V_i MCU interleave per ITU-T
  T.81 §A.2.3; chroma upsampled by sample replication).  The encoder
  writes 4:4:4 by default or 4:2:0 on request (box-decimated chroma);
  ``encode_jpeg_progressive`` emits a libjpeg-style multi-scan script.
- optional restart intervals (DRI / RSTn)
Arithmetic coding, hierarchical/lossless modes, 12-bit samples, and
fractional sampling ratios are out of scope and raise ``ValueError``
pointing at the PIL seam.

Constants (quant + Huffman tables) are the public Annex K examples.
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# shared constants
# ---------------------------------------------------------------------------

ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)

# Annex K.1 example quantization tables (luminance, chrominance)
QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)
QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

# Annex K.3 example Huffman tables: (BITS counts per code length 1..16, values)
HT_DC_LUMA = (
    [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
    list(range(12)),
)
HT_DC_CHROMA = (
    [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
    list(range(12)),
)
HT_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
        0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
        0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
        0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
        0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
        0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
        0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
        0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
        0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
        0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
        0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
        0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
        0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
        0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
        0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
        0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
        0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
        0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
        0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)
HT_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
        0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
        0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
        0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
        0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
        0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
        0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
        0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
        0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
        0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
        0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
        0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
        0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
        0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
        0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
        0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
        0xF9, 0xFA,
    ],
)

# 8-point DCT-II orthonormal matrix: F = D @ block @ D.T
_n = np.arange(8)
DCT_M = np.cos((2 * _n[None, :] + 1) * _n[:, None] * np.pi / 16) * 0.5
DCT_M[0, :] = np.sqrt(1 / 8)


def _canonical_codes(bits: list[int], values: list[int]) -> dict[int, tuple[int, int]]:
    """value -> (code, length) for encoding (canonical Huffman, T.81 C.2)."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[values[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _decode_table(bits: list[int], values: list[int]) -> dict[tuple[int, int], int]:
    """(length, code) -> value for decoding."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = values[k]
            code += 1
            k += 1
        code <<= 1
    return out


def _quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    qt_l = np.clip((QT_LUMA * scale + 50) // 100, 1, 255)
    qt_c = np.clip((QT_CHROMA * scale + 50) // 100, 1, 255)
    return qt_l, qt_c


def _rgb_to_ycbcr(px: np.ndarray) -> np.ndarray:
    px = px.astype(np.float64)
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = ycc[..., 0], ycc[..., 1] - 128.0, ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            byte = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(byte)
            if byte == 0xFF:  # byte stuffing (B.1.1.5)
                self.out.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1s


def _category(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length()


def _amplitude(v: int, size: int) -> int:
    return v if v >= 0 else v + (1 << size) - 1


def _encode_component_blocks(
    bw: _BitWriter, blocks: np.ndarray, qt: np.ndarray, dc_codes, ac_codes, pred: int
) -> int:
    """blocks: (n, 8, 8) float, level-shifted.  Returns updated DC pred."""
    coeffs = np.einsum("ij,njk,lk->nil", DCT_M, blocks, DCT_M)
    quant = np.round(coeffs / qt.reshape(8, 8)).astype(np.int64)
    zz = quant.reshape(-1, 64)[:, ZIGZAG]
    for row in zz:
        dc = int(row[0])
        diff = dc - pred
        pred = dc
        size = _category(diff)
        code, length = dc_codes[size]
        bw.write(code, length)
        if size:
            bw.write(_amplitude(diff, size), size)
        ac = row[1:]
        nz = np.flatnonzero(ac)
        prev = -1
        for i in nz:
            run = int(i) - prev - 1
            prev = int(i)
            while run > 15:
                code, length = ac_codes[0xF0]  # ZRL
                bw.write(code, length)
                run -= 16
            v = int(ac[i])
            size = _category(v)
            code, length = ac_codes[(run << 4) | size]
            bw.write(code, length)
            bw.write(_amplitude(v, size), size)
        if prev < 62:
            code, length = ac_codes[0x00]  # EOB
            bw.write(code, length)
    return pred


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(H, W) float plane (H, W multiples of 8) → (n, 8, 8) in raster order."""
    H, W = plane.shape
    return (
        plane.reshape(H // 8, 8, W // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    )


def _dht_segment(tc_th: int, table) -> bytes:
    bits, values = table
    payload = bytes([tc_th]) + bytes(bits) + bytes(values)
    return b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload


def encode_jpeg(pixels: np.ndarray, quality: int = 90,
                restart_interval: int = 0, subsampling: str = "444") -> bytes:
    """(h, w) uint8 gray or (h, w, 3) uint8 RGB → baseline JFIF bytes
    (Annex K Huffman tables).  ``subsampling``: "444" (one block per
    component per MCU) or "420" (2x2 luma blocks + box-downsampled chroma
    per 16x16 MCU — the shape virtually every camera/web encoder emits).
    ``restart_interval`` > 0 emits a DRI segment and RSTn markers every N
    MCUs (exercises the decoder's restart resynchronization path)."""
    if subsampling not in ("444", "420"):
        raise ValueError("subsampling must be '444' or '420'")
    gray = pixels.ndim == 2
    sub420 = subsampling == "420" and not gray
    h, w = pixels.shape[:2]
    qt_l, qt_c = _quality_tables(quality)
    mcu = 16 if sub420 else 8
    ph, pw = -(-h // mcu) * mcu, -(-w // mcu) * mcu
    if gray:
        planes = [pixels.astype(np.float64)]
    else:
        ycc = _rgb_to_ycbcr(pixels)
        planes = [ycc[..., i] for i in range(3)]
    planes = [
        np.pad(p, ((0, ph - h), (0, pw - w)), mode="edge") - 128.0 for p in planes
    ]
    if sub420:
        # box-average 2x2 chroma downsample (libjpeg's default decimation)
        planes[1:] = [
            p.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3)) for p in planes[1:]
        ]

    out = bytearray(b"\xff\xd8")  # SOI
    jfif = b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    out += b"\xff\xe0" + struct.pack(">H", len(jfif) + 2) + jfif
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes(
        qt_l[ZIGZAG].astype(np.uint8)
    )
    if not gray:
        out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x01" + bytes(
            qt_c[ZIGZAG].astype(np.uint8)
        )
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for cid in range(1, ncomp + 1):
        hv = 0x22 if (sub420 and cid == 1) else 0x11
        sof += bytes([cid, hv, 0 if cid == 1 else 1])
    out += b"\xff\xc0" + struct.pack(">H", len(sof) + 2) + sof
    out += _dht_segment(0x00, HT_DC_LUMA) + _dht_segment(0x10, HT_AC_LUMA)
    if not gray:
        out += _dht_segment(0x01, HT_DC_CHROMA) + _dht_segment(0x11, HT_AC_CHROMA)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    sos = bytes([ncomp])
    for cid in range(1, ncomp + 1):
        sos += bytes([cid, 0x00 if cid == 1 else 0x11])
    sos += b"\x00\x3f\x00"
    out += b"\xff\xda" + struct.pack(">H", len(sos) + 2) + sos

    dc_l = _canonical_codes(*HT_DC_LUMA)
    ac_l = _canonical_codes(*HT_AC_LUMA)
    dc_c = _canonical_codes(*HT_DC_CHROMA)
    ac_c = _canonical_codes(*HT_AC_CHROMA)
    bw = _BitWriter()
    comp_blocks = [_blocks_of(p) for p in planes]
    preds = [0] * ncomp
    tabs = [(qt_l, dc_l, ac_l)] + [(qt_c, dc_c, ac_c)] * (ncomp - 1)
    rst = 0
    if not sub420:
        # 4:4:4 MCU = one block per component, interleaved in raster order
        nmcu = (ph // 8) * (pw // 8)
    else:
        nmcu = (ph // 16) * (pw // 16)
        ybw = pw // 8  # luma blocks per row
        mcx = pw // 16
    for m in range(nmcu):
        if restart_interval and m and m % restart_interval == 0:
            bw.flush()
            out += bw.out
            out += bytes([0xFF, 0xD0 + rst])  # RSTn, n cycles 0..7
            rst = (rst + 1) % 8
            bw = _BitWriter()
            preds = [0] * ncomp
        if not sub420:
            for ci in range(ncomp):
                qt, dcc, acc = tabs[ci]
                preds[ci] = _encode_component_blocks(
                    bw, comp_blocks[ci][m : m + 1], qt, dcc, acc, preds[ci]
                )
        else:
            my, mx = divmod(m, mcx)
            qt, dcc, acc = tabs[0]
            for v in range(2):  # 4 luma blocks, raster order within the MCU
                for u in range(2):
                    bi = (my * 2 + v) * ybw + (mx * 2 + u)
                    preds[0] = _encode_component_blocks(
                        bw, comp_blocks[0][bi : bi + 1], qt, dcc, acc, preds[0]
                    )
            for ci in (1, 2):  # one chroma block each
                qt, dcc, acc = tabs[ci]
                preds[ci] = _encode_component_blocks(
                    bw, comp_blocks[ci][m : m + 1], qt, dcc, acc, preds[ci]
                )
    bw.flush()
    out += bw.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------


class _BitReader:
    """MSB-first reader over the UNSTUFFED entropy byte stream."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def read_bit(self) -> int:
        if self.nbits == 0:
            if self.pos >= len(self.data):
                raise ValueError("JPEG entropy stream truncated")
            self.acc = self.data[self.pos]
            self.pos += 1
            self.nbits = 8
        self.nbits -= 1
        return (self.acc >> self.nbits) & 1

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v


def _receive_extend(br: _BitReader, size: int) -> int:
    if size == 0:
        return 0
    v = br.read_bits(size)
    if v < (1 << (size - 1)):  # negative branch (F.2.2.1 EXTEND)
        v -= (1 << size) - 1
    return v


def _huff_decode(br: _BitReader, table: dict[tuple[int, int], int]) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read_bit()
        v = table.get((length, code))
        if v is not None:
            return v
    raise ValueError("invalid JPEG Huffman code")


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline (SOF0) or progressive (SOF2) JFIF bytes → (h, w) uint8
    gray or (h, w, 3) uint8 RGB."""
    if payload[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG payload (missing SOI)")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], dict] = {}  # (class, id) -> decode table
    frame = None
    coeffs = None  # progressive: per-comp (BY, BX, 64) zigzag accumulators
    restart_interval = 0
    n = len(payload)
    while pos < n:
        if payload[pos] != 0xFF:
            raise ValueError("JPEG marker sync lost")
        marker = payload[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # standalone
        seglen = struct.unpack(">H", payload[pos : pos + 2])[0]
        seg = payload[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT
            off = 0
            while off < len(seg):
                pq, tq = seg[off] >> 4, seg[off] & 0xF
                if pq != 0:
                    raise ValueError("16-bit quant tables unsupported (use PIL seam)")
                tbl = np.frombuffer(seg[off + 1 : off + 65], np.uint8).astype(np.int64)
                qts[tq] = tbl[UNZIGZAG]  # store in natural order
                off += 65
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(seg):
                tc, th = seg[off] >> 4, seg[off] & 0xF
                bits = list(seg[off + 1 : off + 17])
                nv = sum(bits)
                values = list(seg[off + 17 : off + 17 + nv])
                huff[(tc, th)] = _decode_table(bits, values)
                off += 17 + nv
        elif marker in (0xC0, 0xC2):  # SOF0 baseline / SOF2 progressive
            prec, h, w, ncomp = struct.unpack(">BHHB", seg[:6])
            if prec != 8:
                raise ValueError("only 8-bit baseline JPEG supported")
            comps = []
            for ci in range(ncomp):
                cid, hv, tq = seg[6 + 3 * ci : 9 + 3 * ci]
                hs, vs = hv >> 4, hv & 0xF
                if not (1 <= hs <= 4 and 1 <= vs <= 4):
                    raise ValueError("invalid JPEG sampling factors")
                comps.append({"id": cid, "tq": tq, "h": hs, "v": vs})
            hmax = max(c["h"] for c in comps)
            vmax = max(c["v"] for c in comps)
            for c in comps:
                # integer-ratio upsampling only (covers 4:4:4, 4:2:2, 4:2:0,
                # 4:1:1 — every shape real encoders emit); a fractional ratio
                # like 3:2 is pathological and goes to the PIL seam
                if hmax % c["h"] or vmax % c["v"]:
                    raise ValueError(
                        "non-integer JPEG sampling ratio unsupported; use PIL seam"
                    )
            frame = {"h": h, "w": w, "comps": comps, "hmax": hmax,
                     "vmax": vmax, "progressive": marker == 0xC2}
        elif marker in (0xC1, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(f"JPEG SOF{marker - 0xC0} (non-DCT/arithmetic/"
                             "hierarchical) unsupported; use PIL seam")
        elif marker == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", seg[:2])[0]
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("JPEG SOS before SOF")
            ns = seg[0]
            scan = []
            for si in range(ns):
                cs, tdta = seg[1 + 2 * si : 3 + 2 * si]
                comp = next(c for c in frame["comps"] if c["id"] == cs)
                scan.append({"comp": comp, "dc": tdta >> 4, "ac": tdta & 0xF})
            pos += seglen
            if not frame["progressive"]:
                return _decode_scan(payload, pos, frame, scan, qts, huff,
                                    restart_interval)
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ah, al = seg[3 + 2 * ns] >> 4, seg[3 + 2 * ns] & 0xF
            if coeffs is None:
                coeffs = _alloc_prog_coeffs(frame)
            pos = _decode_prog_scan(payload, pos, frame, scan,
                                    (ss, se, ah, al), coeffs, huff,
                                    restart_interval)
            continue
        pos += seglen
    if frame is not None and frame.get("progressive") and coeffs is not None:
        return _reconstruct_prog(frame, coeffs, qts)
    raise ValueError("JPEG has no SOS scan")


def _find_entropy_end(payload: bytes, pos: int) -> int:
    i = pos
    n = len(payload)
    while i < n - 1:
        if payload[i] == 0xFF and payload[i + 1] not in (0x00,) and not (
            0xD0 <= payload[i + 1] <= 0xD7
        ):
            return i
        i += 1
    return n


def _decode_block(br, dct, act, pred) -> tuple[np.ndarray, int]:
    """One 8x8 block's zigzag coefficients + updated DC predictor."""
    zz = np.zeros(64, np.int64)
    size = _huff_decode(br, dct)
    diff = _receive_extend(br, size)
    pred += diff
    zz[0] = pred
    kk = 1
    while kk < 64:
        rs = _huff_decode(br, act)
        run, size = rs >> 4, rs & 0xF
        if size == 0:
            if run == 15:  # ZRL
                kk += 16
                continue
            break  # EOB
        kk += run
        if kk > 63:
            raise ValueError("JPEG AC run overflow")
        zz[kk] = _receive_extend(br, size)
        kk += 1
    return zz, pred


def _decode_scan(payload, pos, frame, scan, qts, huff, restart_interval):
    """Generalized interleaved baseline scan: each MCU carries H_i x V_i
    blocks per component (ITU-T T.81 §A.2.3), so 4:2:0 / 4:2:2 / 4:1:1 —
    the shapes real camera and web encoders emit — decode natively; chroma
    is upsampled by sample replication to full resolution."""
    h, w = frame["h"], frame["w"]
    ncomp = len(scan)
    hmax, vmax = frame.get("hmax", 1), frame.get("vmax", 1)
    # MCU grid: ceil over the full-resolution MCU footprint (8*hmax, 8*vmax)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    nmcu = mcus_y * mcus_x
    end = _find_entropy_end(payload, pos)
    segments = _split_rst(payload[pos:end])

    # per-component padded planes sized to the MCU grid
    planes = [
        np.zeros((mcus_y * sc["comp"]["v"] * 8, mcus_x * sc["comp"]["h"] * 8),
                 np.float64)
        for sc in scan
    ]
    preds = [0] * ncomp
    seg_idx = 0
    br = _BitReader(segments[0])
    for m in range(nmcu):
        if restart_interval and m and m % restart_interval == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("JPEG missing restart segment")
            br = _BitReader(segments[seg_idx])
            preds = [0] * ncomp
        my, mx = divmod(m, mcus_x)
        for si, sc in enumerate(scan):
            ch, cv = sc["comp"]["h"], sc["comp"]["v"]
            qt = qts[sc["comp"]["tq"]]
            dct = huff[(0, sc["dc"])]
            act = huff[(1, sc["ac"])]
            for v in range(cv):
                for u in range(ch):
                    zz, preds[si] = _decode_block(br, dct, act, preds[si])
                    block = (zz[UNZIGZAG] * qt).reshape(8, 8).astype(np.float64)
                    pix = DCT_M.T @ block @ DCT_M + 128.0
                    by, bx = my * cv + v, mx * ch + u
                    planes[si][by * 8 : by * 8 + 8, bx * 8 : bx * 8 + 8] = pix
    return _finish_planes(frame, [(sc["comp"], planes[si])
                                  for si, sc in enumerate(scan)])


def _split_rst(raw: bytes) -> list[bytes]:
    """Split entropy bytes on RST markers, unstuffing 0xFF00 (B.1.1.5)."""
    segments = []
    cur = bytearray()
    i = 0
    while i < len(raw):
        b = raw[i]
        if b == 0xFF and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt == 0x00:
                cur.append(0xFF)
                i += 2
                continue
            if 0xD0 <= nxt <= 0xD7:
                segments.append(bytes(cur))
                cur = bytearray()
                i += 2
                continue
        cur.append(b)
        i += 1
    segments.append(bytes(cur))
    return segments


def _finish_planes(frame, comp_planes) -> np.ndarray:
    """Crop each (comp, padded plane) to true resolution, replicate up to
    (h, w), and convert to gray / RGB."""
    h, w = frame["h"], frame["w"]
    hmax, vmax = frame["hmax"], frame["vmax"]
    out_planes = []
    for comp, plane in comp_planes:
        ch, cv = comp["h"], comp["v"]
        cw = -(-w * ch // hmax)
        chh = -(-h * cv // vmax)
        p = plane[:chh, :cw]
        fy, fx = vmax // cv, hmax // ch
        if fy > 1 or fx > 1:
            p = np.repeat(np.repeat(p, fy, axis=0), fx, axis=1)
        out_planes.append(p[:h, :w])
    if len(out_planes) == 1:
        return np.clip(np.round(out_planes[0]), 0, 255).astype(np.uint8)
    return _ycbcr_to_rgb(np.stack(out_planes, axis=-1))

# ---------------------------------------------------------------------------
# progressive (SOF2) decoding — ITU-T T.81 §G.1.2
# ---------------------------------------------------------------------------
#
# A progressive frame carries many scans, each delivering a band of zigzag
# coefficients (spectral selection Ss..Se) at a bit precision (successive
# approximation Ah->Al).  Scans accumulate into per-component integer
# coefficient arrays; dequant + IDCT happen once at EOI.  DC scans may be
# interleaved (MCU order over the padded grid); AC scans are always
# single-component in block-raster order over the component's true
# (unpadded) block grid (§G.1.1).


def _prog_grids(frame):
    """Per-component (padded_by, padded_bx, true_by, true_bx) block grids."""
    h, w = frame["h"], frame["w"]
    hmax, vmax = frame["hmax"], frame["vmax"]
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    grids = []
    for c in frame["comps"]:
        cw = -(-w * c["h"] // hmax)
        chh = -(-h * c["v"] // vmax)
        grids.append((mcus_y * c["v"], mcus_x * c["h"], -(-chh // 8), -(-cw // 8)))
    return mcus_x, mcus_y, grids


def _alloc_prog_coeffs(frame):
    _, _, grids = _prog_grids(frame)
    return [np.zeros((by, bx, 64), np.int64) for (by, bx, _, _) in grids]


def _first_ac_block(br, zz, ss, se, al, act, eobrun):
    """First AC scan of a band (Ah=0): §G.1.2.2 with EOBn runs."""
    if eobrun > 0:
        return eobrun - 1
    k = ss
    while k <= se:
        rs = _huff_decode(br, act)
        r, s = rs >> 4, rs & 0xF
        if s == 0:
            if r != 15:  # EOBn: run of (1<<r)+ext end-of-band blocks
                eb = (1 << r) - 1
                if r:
                    eb += br.read_bits(r)
                return eb
            k += 16  # ZRL
        else:
            k += r
            if k > se:
                raise ValueError("JPEG AC run overflow")
            zz[k] = _receive_extend(br, s) << al
            k += 1
    return 0


def _refine_ac_block(br, zz, ss, se, al, act, eobrun):
    """AC refinement scan (Ah=Al+1): §G.1.2.3 correction-bit decoding."""
    p1 = 1 << al
    m1 = -p1
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = _huff_decode(br, act)
            r, s = rs >> 4, rs & 0xF
            if s == 0:
                if r != 15:  # EOBn
                    eobrun = 1 << r
                    if r:
                        eobrun += br.read_bits(r)
                    break
                # ZRL: skip 16 zero-history coefficients below
            else:
                if s != 1:
                    raise ValueError("invalid magnitude in AC refinement scan")
                s = p1 if br.read_bit() else m1
            # advance past r zero-history coefficients, applying correction
            # bits to every already-nonzero coefficient passed over
            while k <= se:
                if zz[k] != 0:
                    if br.read_bit() and not (int(zz[k]) & p1):
                        zz[k] += p1 if zz[k] > 0 else m1
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if s and k <= se:
                zz[k] = s
            k += 1
    if eobrun > 0:
        # end-of-band: correction bits for remaining nonzero coefficients
        while k <= se:
            if zz[k] != 0:
                if br.read_bit() and not (int(zz[k]) & p1):
                    zz[k] += p1 if zz[k] > 0 else m1
            k += 1
        eobrun -= 1
    return eobrun


def _decode_prog_scan(payload, pos, frame, scan, band, coeffs, huff,
                      restart_interval) -> int:
    """Decode one progressive scan into ``coeffs``; returns end position."""
    ss, se, ah, al = band
    ns = len(scan)
    if ss == 0:
        if se != 0:
            raise ValueError("invalid progressive scan (DC band must be 0..0)")
    else:
        if ns != 1:
            raise ValueError("interleaved AC progressive scan is illegal")
        if not (ss <= se <= 63):
            raise ValueError("invalid progressive spectral band")
    mcus_x, mcus_y, grids = _prog_grids(frame)
    cidx = [frame["comps"].index(sc["comp"]) for sc in scan]
    end = _find_entropy_end(payload, pos)
    segments = _split_rst(payload[pos:end])

    if ns > 1:  # interleaved DC scan: MCU order over the padded grid
        units = mcus_y * mcus_x
    else:  # non-interleaved: block raster over the true component grid
        _, _, tby, tbx = grids[cidx[0]]
        units = tby * tbx

    preds = [0] * ns
    eobrun = 0
    seg_idx = 0
    br = _BitReader(segments[0])
    for m in range(units):
        if restart_interval and m and m % restart_interval == 0:
            seg_idx += 1
            if seg_idx >= len(segments):
                raise ValueError("JPEG missing restart segment")
            br = _BitReader(segments[seg_idx])
            preds = [0] * ns
            eobrun = 0
        if ss == 0:  # DC band
            if ns > 1:
                my, mx = divmod(m, mcus_x)
                blocks = []
                for si, sc in enumerate(scan):
                    chs, cvs = sc["comp"]["h"], sc["comp"]["v"]
                    for v in range(cvs):
                        for u in range(chs):
                            blocks.append((si, my * cvs + v, mx * chs + u))
            else:
                _, _, tby, tbx = grids[cidx[0]]
                blocks = [(0, *divmod(m, tbx))]
            for si, by, bx in blocks:
                zz = coeffs[cidx[si]][by, bx]
                if ah == 0:
                    size = _huff_decode(br, huff[(0, scan[si]["dc"])])
                    preds[si] += _receive_extend(br, size)
                    zz[0] = preds[si] << al
                else:  # DC refinement: one raw bit per block
                    if br.read_bit():
                        zz[0] |= 1 << al
        else:  # AC band, single component
            by, bx = divmod(m, grids[cidx[0]][3])
            zz = coeffs[cidx[0]][by, bx]
            act = huff[(1, scan[0]["ac"])]
            if ah == 0:
                eobrun = _first_ac_block(br, zz, ss, se, al, act, eobrun)
            else:
                eobrun = _refine_ac_block(br, zz, ss, se, al, act, eobrun)
    return end


def _reconstruct_prog(frame, coeffs, qts) -> np.ndarray:
    """Dequantize + IDCT the accumulated coefficients (vectorized)."""
    comp_planes = []
    for ci, c in enumerate(frame["comps"]):
        arr = coeffs[ci]
        by, bx, _ = arr.shape
        nat = arr.reshape(-1, 64)[:, UNZIGZAG] * qts[c["tq"]]
        blocks = nat.reshape(-1, 8, 8).astype(np.float64)
        pix = np.einsum("ji,njk,kl->nil", DCT_M, blocks, DCT_M) + 128.0
        plane = pix.reshape(by, bx, 8, 8).transpose(0, 2, 1, 3).reshape(
            by * 8, bx * 8)
        comp_planes.append((c, plane))
    return _finish_planes(frame, comp_planes)


# ---------------------------------------------------------------------------
# progressive (SOF2) encoder — used to generate REAL multi-scan fixtures
# ---------------------------------------------------------------------------
#
# Emits a libjpeg-style scan script (DC first at Al=1, banded AC first
# scans, one-bit refinement scans down to Al=0).  Successive approximation
# is a lossless bit-plane decomposition of the quantized coefficients, so a
# full script decodes to EXACTLY the same pixels as the baseline path with
# the same tables — the property the tests pin.  EOB runs are emitted as
# plain per-block EOBs (run length 1): the Annex K AC tables carry no EOBn
# symbols (real encoders ship custom tables; the DECODER handles any EOBn).


def _default_scan_script(ncomp: int) -> list[dict]:
    if ncomp == 1:
        return [
            {"comps": [0], "ss": 0, "se": 0, "ah": 0, "al": 1},
            {"comps": [0], "ss": 1, "se": 63, "ah": 0, "al": 2},
            {"comps": [0], "ss": 1, "se": 63, "ah": 2, "al": 1},
            {"comps": [0], "ss": 0, "se": 0, "ah": 1, "al": 0},
            {"comps": [0], "ss": 1, "se": 63, "ah": 1, "al": 0},
        ]
    return [
        {"comps": [0, 1, 2], "ss": 0, "se": 0, "ah": 0, "al": 1},
        {"comps": [0], "ss": 1, "se": 5, "ah": 0, "al": 2},
        {"comps": [2], "ss": 1, "se": 63, "ah": 0, "al": 1},
        {"comps": [1], "ss": 1, "se": 63, "ah": 0, "al": 1},
        {"comps": [0], "ss": 6, "se": 63, "ah": 0, "al": 2},
        {"comps": [0], "ss": 1, "se": 63, "ah": 2, "al": 1},
        {"comps": [0, 1, 2], "ss": 0, "se": 0, "ah": 1, "al": 0},
        {"comps": [2], "ss": 1, "se": 63, "ah": 1, "al": 0},
        {"comps": [1], "ss": 1, "se": 63, "ah": 1, "al": 0},
        {"comps": [0], "ss": 1, "se": 63, "ah": 1, "al": 0},
    ]


def _quant_zigzag_grid(plane: np.ndarray, qt: np.ndarray) -> np.ndarray:
    """(H, W) level-shifted plane (multiples of 8) → (BY, BX, 64) zigzag."""
    by, bx = plane.shape[0] // 8, plane.shape[1] // 8
    blocks = plane.reshape(by, 8, bx, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    coeffs = np.einsum("ij,njk,lk->nil", DCT_M, blocks, DCT_M)
    quant = np.round(coeffs / qt.reshape(8, 8)).astype(np.int64)
    return quant.reshape(-1, 64)[:, ZIGZAG].reshape(by, bx, 64)


def _enc_first_ac(bw, zz, ss, se, al, ac_codes):
    """One block of a first AC scan: run-length coding of abs>>Al values
    (point transform truncates toward zero, §G.1.2.2)."""
    r = 0
    for k in range(ss, se + 1):
        v = int(zz[k])
        t = abs(v) >> al
        if t == 0:
            r += 1
            continue
        while r > 15:
            code, length = ac_codes[0xF0]
            bw.write(code, length)
            r -= 16
        t = t if v >= 0 else -t
        size = _category(t)
        code, length = ac_codes[(r << 4) | size]
        bw.write(code, length)
        bw.write(_amplitude(t, size), size)
        r = 0
    if r > 0:
        code, length = ac_codes[0x00]  # EOB (run of 1)
        bw.write(code, length)


def _enc_refine_ac(bw, zz, ss, se, al, ac_codes):
    """One block of an AC refinement scan (§G.1.2.3).  Correction bits for
    already-nonzero coefficients are buffered and flushed after the next
    emitted symbol, matching the decoder's consumption order."""
    absv = [abs(int(zz[k])) >> al for k in range(ss, se + 1)]
    eob_idx = -1  # last newly-nonzero position (abs>>Al == 1)
    for i, t in enumerate(absv):
        if t == 1:
            eob_idx = i
    r = 0
    pend: list[int] = []
    for i, t in enumerate(absv):
        if t == 0:
            r += 1
            continue
        while r > 15 and i <= eob_idx:
            code, length = ac_codes[0xF0]
            bw.write(code, length)
            r -= 16
            for b in pend:
                bw.write(b, 1)
            pend = []
        if t > 1:  # history-nonzero: queue its correction bit
            pend.append(t & 1)
            continue
        # newly nonzero (magnitude exactly 1 at this precision)
        code, length = ac_codes[(r << 4) | 1]
        bw.write(code, length)
        bw.write(1 if int(zz[ss + i]) >= 0 else 0, 1)
        for b in pend:
            bw.write(b, 1)
        pend = []
        r = 0
    if r > 0 or pend:
        code, length = ac_codes[0x00]  # EOB, then trailing correction bits
        bw.write(code, length)
        for b in pend:
            bw.write(b, 1)


def encode_jpeg_progressive(pixels: np.ndarray, quality: int = 90,
                            subsampling: str = "444",
                            restart_interval: int = 0,
                            scans: list[dict] | None = None) -> bytes:
    """(h, w) uint8 gray or (h, w, 3) uint8 RGB → progressive (SOF2) JFIF
    bytes.  ``scans`` overrides the default libjpeg-style script; each dict
    is {comps, ss, se, ah, al} with frame-component indices."""
    if subsampling not in ("444", "420"):
        raise ValueError("subsampling must be '444' or '420'")
    gray = pixels.ndim == 2
    sub420 = subsampling == "420" and not gray
    h, w = pixels.shape[:2]
    qt_l, qt_c = _quality_tables(quality)
    mcu = 16 if sub420 else 8
    ph, pw = -(-h // mcu) * mcu, -(-w // mcu) * mcu
    if gray:
        planes = [pixels.astype(np.float64)]
    else:
        ycc = _rgb_to_ycbcr(pixels)
        planes = [ycc[..., i] for i in range(3)]
    planes = [
        np.pad(p, ((0, ph - h), (0, pw - w)), mode="edge") - 128.0 for p in planes
    ]
    if sub420:
        planes[1:] = [
            p.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3)) for p in planes[1:]
        ]
    ncomp = len(planes)
    qts = [qt_l] + [qt_c] * (ncomp - 1)
    czz = [_quant_zigzag_grid(p, qts[ci]) for ci, p in enumerate(planes)]
    # component sampling factors + true (unpadded) block grids
    hv = [(2, 2) if (sub420 and ci == 0) else (1, 1) for ci in range(ncomp)]
    hmax = max(x for x, _ in hv)
    vmax = max(y for _, y in hv)
    tgrids = []
    for ci in range(ncomp):
        cw = -(-w * hv[ci][0] // hmax)
        chh = -(-h * hv[ci][1] // vmax)
        tgrids.append((-(-chh // 8), -(-cw // 8)))
    mcus_x, mcus_y = pw // mcu, ph // mcu

    out = bytearray(b"\xff\xd8")
    jfif = b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    out += b"\xff\xe0" + struct.pack(">H", len(jfif) + 2) + jfif
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes(
        qt_l[ZIGZAG].astype(np.uint8))
    if not gray:
        out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x01" + bytes(
            qt_c[ZIGZAG].astype(np.uint8))
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for ci in range(ncomp):
        sof += bytes([ci + 1, (hv[ci][0] << 4) | hv[ci][1], 0 if ci == 0 else 1])
    out += b"\xff\xc2" + struct.pack(">H", len(sof) + 2) + sof  # SOF2
    out += _dht_segment(0x00, HT_DC_LUMA) + _dht_segment(0x10, HT_AC_LUMA)
    if not gray:
        out += _dht_segment(0x01, HT_DC_CHROMA) + _dht_segment(0x11, HT_AC_CHROMA)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)

    dc_codes = [_canonical_codes(*HT_DC_LUMA)] + \
        [_canonical_codes(*HT_DC_CHROMA)] * (ncomp - 1)
    ac_codes = [_canonical_codes(*HT_AC_LUMA)] + \
        [_canonical_codes(*HT_AC_CHROMA)] * (ncomp - 1)

    for sc in (scans if scans is not None else _default_scan_script(ncomp)):
        comps, ss, se = sc["comps"], sc["ss"], sc["se"]
        ah, al = sc["ah"], sc["al"]
        ns = len(comps)
        sos = bytes([ns])
        for ci in comps:
            td = 0 if ci == 0 else 1
            sos += bytes([ci + 1, (td << 4) | td])
        sos += bytes([ss, se, (ah << 4) | al])
        out += b"\xff\xda" + struct.pack(">H", len(sos) + 2) + sos

        if ss == 0 and ns > 1:  # interleaved DC: padded MCU grid
            units = mcus_y * mcus_x
        else:  # non-interleaved: true block grid of the single component
            tby, tbx = tgrids[comps[0]]
            units = tby * tbx
        bw = _BitWriter()
        preds = [0] * ns
        rst = 0
        for m in range(units):
            if restart_interval and m and m % restart_interval == 0:
                bw.flush()
                out += bw.out
                out += bytes([0xFF, 0xD0 + rst])
                rst = (rst + 1) % 8
                bw = _BitWriter()
                preds = [0] * ns
            if ss == 0:
                if ns > 1:
                    my, mx = divmod(m, mcus_x)
                    blocks = []
                    for si, ci in enumerate(comps):
                        chs, cvs = hv[ci]
                        for v in range(cvs):
                            for u in range(chs):
                                blocks.append((si, my * cvs + v, mx * chs + u))
                else:
                    blocks = [(0, *divmod(m, tgrids[comps[0]][1]))]
                for si, by, bx in blocks:
                    ci = comps[si]
                    dc = int(czz[ci][by, bx, 0])
                    if ah == 0:  # DC first: diff-code the point-transformed DC
                        v = dc >> al
                        diff = v - preds[si]
                        preds[si] = v
                        size = _category(diff)
                        code, length = dc_codes[ci][size]
                        bw.write(code, length)
                        if size:
                            bw.write(_amplitude(diff, size), size)
                    else:  # DC refinement: one raw bit
                        bw.write((dc >> al) & 1, 1)
            else:
                ci = comps[0]
                by, bx = divmod(m, tgrids[ci][1])
                if ah == 0:
                    _enc_first_ac(bw, czz[ci][by, bx], ss, se, al, ac_codes[ci])
                else:
                    _enc_refine_ac(bw, czz[ci][by, bx], ss, se, al, ac_codes[ci])
        bw.flush()
        out += bw.out
    out += b"\xff\xd9"
    return bytes(out)
