"""From-scratch H.264/AVC codec (ITU-T H.264 / ISO 14496-10),
dependency-free numpy — closes the "every real MP4 is H.264" gap in the
multimodal stack (SURVEY §2.12; VERDICT r4 "What's missing #1").

Scope (Baseline/Main/High-shaped): I/IDR slices in BOTH entropy coders,
CAVLC P slices (quarter-pel inter prediction, multi-reference, explicit
weighted prediction), and CAVLC B slices (bi-prediction, POC-ordered
default lists, SPATIAL direct with colZeroFlag AND TEMPORAL direct with
POC-scaled co-located motion, explicit AND implicit weighted
bi-prediction, display-order restore via §8.2.1 POC).  Per layer:

- NAL parsing (Annex-B and MP4 length-prefixed), RBSP emulation-byte strip;
- SPS/PPS parse (Exp-Golomb) — frame_mbs_only, 4:2:0, 8-bit;
- I-slice macroblock layer: I_NxN (intra 4×4, all 9 prediction modes),
  Intra_16x16 (V/H/DC/Plane + DC-transformed luma), I_PCM;
- chroma 8×8 intra prediction (DC/H/V/Plane), 2×2 chroma-DC transform;
- CAVLC residual decoding: coeff_token (all nC contexts incl. chroma DC),
  trailing-one signs, adaptive level suffixes, total_zeros, run_before
  (spec §9.2, Tables 9-5 .. 9-10);
- CABAC entropy decoding AND encoding (§9.3, Main/High-profile I
  slices): arithmetic engine, I-slice context init, mb_type / intra
  modes / cbp / mb_qp_delta binarizations, significance map + UEG0
  levels, I_PCM engine re-init — see the CABAC section below for the
  conformance caveat;
- the High-profile 8x8 transform path (transform_size_8x8_flag, §8.3.2
  intra 8x8 prediction with reference-sample filtering, §8.5.13 scaling,
  the exact 8x8 inverse butterfly) in BOTH entropy coders — CAVLC codes
  each 8x8 as 4 interleaved 4x4 blocks, CABAC as ctxBlockCat 5;
- dequant (§8.5.9 LevelScale, qP/6 shifts) + the exact 4×4 integer inverse
  transform (§8.5.12), 4×4 luma-DC Hadamard, 2×2 chroma-DC transform;
- in-loop deblocking filter (§8.7, all-intra bS: 4 on MB edges, 3 on
  internal 4x4 edges) honouring per-slice disable_deblocking_filter_idc
  0/1/2 and the alpha/beta offsets; inter bS (§8.7.2.1) compares
  (picture, mv) prediction SETS, so bi-predicted edges pair by picture
  identity; no interlace — CABAC P/B samples are SKIPPED by the frame
  sampler (the same skip semantics as the AVI sampler).

The matching ``encode_h264_iframes`` emits a conformant-shaped baseline
stream (SPS/PPS + one IDR slice per frame) from CHOSEN quantized
coefficients — it exists to generate real fixtures exercising every
decoder path (all mb types, every coeff_token context, level suffix
escalation, run_before tails).

Conformance caveat, stated plainly: the VLC tables are transcribed from
the public spec text; in this sandbox there is no external H.264
implementation to differ against, so validation is (a) structural — every
VLC table is programmatically checked to be a complete prefix-free code at
import (tests), and (b) behavioural — byte-exact encode→decode round-trips
over fuzzed coefficient sets covering every table row, plus analytic
goldens (I_PCM passthrough, DC-only macroblocks whose reconstruction is
computable by hand).
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# bit I/O + Exp-Golomb
# ---------------------------------------------------------------------------


class BitReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0  # bit position

    def u(self, n: int) -> int:
        v = 0
        try:
            for _ in range(n):
                byte = self.data[self.pos >> 3]
                v = (v << 1) | ((byte >> (7 - (self.pos & 7))) & 1)
                self.pos += 1
        except IndexError:
            raise ValueError("truncated bitstream") from None
        return v

    def ue(self) -> int:
        zeros = 0
        while self.u(1) == 0:
            zeros += 1
            if zeros > 31:
                raise ValueError("exp-golomb runaway")
        return (1 << zeros) - 1 + (self.u(zeros) if zeros else 0)

    def se(self) -> int:
        k = self.ue()
        return (k + 1) // 2 if (k & 1) else -(k // 2)


class BitWriter:
    def __init__(self):
        self.bytes = bytearray()
        self.acc = 0
        self.n = 0

    def u(self, value: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.acc = (self.acc << 1) | ((value >> i) & 1)
            self.n += 1
            if self.n == 8:
                self.bytes.append(self.acc)
                self.acc, self.n = 0, 0

    def put_str(self, bits: str) -> None:
        for b in bits:
            self.u(1 if b == "1" else 0, 1)

    def ue(self, v: int) -> None:
        k = v + 1
        nbits = k.bit_length()
        self.u(0, nbits - 1)
        self.u(k, nbits)

    def se(self, v: int) -> None:
        self.ue(2 * v - 1 if v > 0 else -2 * v)

    def rbsp_trailing(self) -> None:
        self.u(1, 1)
        while self.n:
            self.u(0, 1)

    def byte_align_zero(self) -> None:
        while self.n:
            self.u(0, 1)

    def getvalue(self) -> bytes:
        assert self.n == 0, "unaligned"
        return bytes(self.bytes)


def rbsp_from_ebsp(ebsp: bytes) -> bytes:
    """Strip emulation-prevention bytes (00 00 03 -> 00 00)."""
    out = bytearray()
    zeros = 0
    i = 0
    n = len(ebsp)
    while i < n:
        b = ebsp[i]
        if zeros >= 2 and b == 3:
            zeros = 0
            i += 1
            continue
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
        i += 1
    return bytes(out)


def ebsp_from_rbsp(rbsp: bytes) -> bytes:
    out = bytearray()
    zeros = 0
    for b in rbsp:
        if zeros >= 2 and b <= 3:
            out.append(3)
            zeros = 0
        out.append(b)
        zeros = zeros + 1 if b == 0 else 0
    return bytes(out)


# ---------------------------------------------------------------------------
# CAVLC tables (ITU-T H.264 §9.2, Tables 9-5, 9-7, 9-8, 9-9(a), 9-10)
# Each table maps a VLC bitstring -> symbol; tests assert every table is a
# complete prefix-free code (structural transcription check).
# ---------------------------------------------------------------------------

# Table 9-5, coeff_token: {(TrailingOnes, TotalCoeff): bits} per nC context.
COEFF_TOKEN_NC_0_2 = {
    (0, 0): "1",
    (0, 1): "000101", (1, 1): "01",
    (0, 2): "00000111", (1, 2): "000100", (2, 2): "001",
    (0, 3): "000000111", (1, 3): "00000110", (2, 3): "0000101", (3, 3): "00011",
    (0, 4): "0000000111", (1, 4): "000000110", (2, 4): "00000101", (3, 4): "000011",
    (0, 5): "00000000111", (1, 5): "0000000110", (2, 5): "000000101", (3, 5): "0000100",
    (0, 6): "0000000001111", (1, 6): "00000000110", (2, 6): "0000000101", (3, 6): "00000100",
    (0, 7): "0000000001011", (1, 7): "0000000001110", (2, 7): "00000000101", (3, 7): "000000100",
    (0, 8): "0000000001000", (1, 8): "0000000001010", (2, 8): "0000000001101", (3, 8): "0000000100",
    (0, 9): "00000000001111", (1, 9): "00000000001110", (2, 9): "0000000001001", (3, 9): "00000000100",
    (0, 10): "00000000001011", (1, 10): "00000000001010", (2, 10): "00000000001101", (3, 10): "0000000001100",
    (0, 11): "000000000001111", (1, 11): "000000000001110", (2, 11): "00000000001001", (3, 11): "00000000001100",
    (0, 12): "000000000001011", (1, 12): "000000000001010", (2, 12): "000000000001101", (3, 12): "00000000001000",
    (0, 13): "0000000000001111", (1, 13): "000000000000001", (2, 13): "000000000001001", (3, 13): "000000000001100",
    (0, 14): "0000000000001011", (1, 14): "0000000000001110", (2, 14): "0000000000001101", (3, 14): "000000000001000",
    (0, 15): "0000000000000111", (1, 15): "0000000000001010", (2, 15): "0000000000001001", (3, 15): "0000000000001100",
    (0, 16): "0000000000000100", (1, 16): "0000000000000110", (2, 16): "0000000000000101", (3, 16): "0000000000001000",
}

COEFF_TOKEN_NC_2_4 = {
    (0, 0): "11",
    (0, 1): "001011", (1, 1): "10",
    (0, 2): "000111", (1, 2): "00111", (2, 2): "011",
    (0, 3): "0000111", (1, 3): "001010", (2, 3): "001001", (3, 3): "0101",
    (0, 4): "00000111", (1, 4): "000110", (2, 4): "000101", (3, 4): "0100",
    (0, 5): "00000100", (1, 5): "0000110", (2, 5): "0000101", (3, 5): "00110",
    (0, 6): "000000111", (1, 6): "00000110", (2, 6): "00000101", (3, 6): "001000",
    (0, 7): "00000001111", (1, 7): "000000110", (2, 7): "000000101", (3, 7): "000100",
    (0, 8): "00000001011", (1, 8): "00000001110", (2, 8): "00000001101", (3, 8): "0000100",
    (0, 9): "000000001111", (1, 9): "00000001010", (2, 9): "00000001001", (3, 9): "000000100",
    (0, 10): "000000001011", (1, 10): "000000001110", (2, 10): "000000001101", (3, 10): "00000001100",
    (0, 11): "000000001000", (1, 11): "000000001010", (2, 11): "000000001001", (3, 11): "00000001000",
    (0, 12): "0000000001111", (1, 12): "0000000001110", (2, 12): "0000000001101", (3, 12): "000000001100",
    (0, 13): "0000000001011", (1, 13): "0000000001010", (2, 13): "0000000001001", (3, 13): "0000000001100",
    (0, 14): "0000000000111", (1, 14): "00000000001011", (2, 14): "0000000000110", (3, 14): "0000000001000",
    (0, 15): "00000000001001", (1, 15): "00000000001000", (2, 15): "00000000001010", (3, 15): "0000000000001",
    (0, 16): "00000000000111", (1, 16): "00000000000110", (2, 16): "00000000000101", (3, 16): "00000000000100",
}

COEFF_TOKEN_NC_4_8 = {
    (0, 0): "1111",
    (0, 1): "001111", (1, 1): "1110",
    (0, 2): "001011", (1, 2): "01111", (2, 2): "1101",
    (0, 3): "001000", (1, 3): "01100", (2, 3): "01110", (3, 3): "1100",
    (0, 4): "0001111", (1, 4): "01010", (2, 4): "01011", (3, 4): "1011",
    (0, 5): "0001011", (1, 5): "01000", (2, 5): "01001", (3, 5): "1010",
    (0, 6): "0001001", (1, 6): "001110", (2, 6): "001101", (3, 6): "1001",
    (0, 7): "0001000", (1, 7): "001010", (2, 7): "001001", (3, 7): "1000",
    (0, 8): "00001111", (1, 8): "0001110", (2, 8): "0001101", (3, 8): "01101",
    (0, 9): "00001011", (1, 9): "00001110", (2, 9): "0001010", (3, 9): "001100",
    (0, 10): "000001111", (1, 10): "00001010", (2, 10): "00001101", (3, 10): "0001100",
    (0, 11): "000001011", (1, 11): "000001110", (2, 11): "00001001", (3, 11): "00001100",
    (0, 12): "000001000", (1, 12): "000001010", (2, 12): "000001101", (3, 12): "00001000",
    (0, 13): "0000001101", (1, 13): "000000111", (2, 13): "000001001", (3, 13): "000001100",
    (0, 14): "0000001001", (1, 14): "0000001100", (2, 14): "0000001011", (3, 14): "0000001010",
    (0, 15): "0000000101", (1, 15): "0000001000", (2, 15): "0000000111", (3, 15): "0000000110",
    (0, 16): "0000000001", (1, 16): "0000000100", (2, 16): "0000000011", (3, 16): "0000000010",
}

# nC == -1 (chroma DC, 4:2:0 — max 4 coefficients)
COEFF_TOKEN_CHROMA_DC = {
    (0, 0): "01",
    (0, 1): "000111", (1, 1): "1",
    (0, 2): "000100", (1, 2): "000110", (2, 2): "001",
    (0, 3): "000011", (1, 3): "0000011", (2, 3): "0000010", (3, 3): "000101",
    (0, 4): "000010", (1, 4): "00000011", (2, 4): "00000010", (3, 4): "0000000",
}

# Tables 9-7 / 9-8: total_zeros for 4x4 blocks, indexed by TotalCoeff.
# TOTAL_ZEROS_4x4[tc][tz] = bits.
TOTAL_ZEROS_4x4 = {
    1: ["1", "011", "010", "0011", "0010", "00011", "00010", "000011",
        "000010", "0000011", "0000010", "00000011", "00000010", "000000011",
        "000000010", "000000001"],
    2: ["111", "110", "101", "100", "011", "0101", "0100", "0011", "0010",
        "00011", "00010", "000011", "000010", "000001", "000000"],
    3: ["0101", "111", "110", "101", "0100", "0011", "100", "011", "0010",
        "00011", "00010", "000001", "00001", "000000"],
    4: ["00011", "111", "0101", "0100", "110", "101", "100", "0011", "011",
        "0010", "00010", "00001", "00000"],
    5: ["0101", "0100", "0011", "111", "110", "101", "100", "011", "0010",
        "00001", "0001", "00000"],
    6: ["000001", "00001", "111", "110", "101", "100", "011", "010", "0001",
        "001", "000000"],
    7: ["000001", "00001", "101", "100", "011", "11", "010", "0001", "001",
        "000000"],
    8: ["000001", "0001", "00001", "011", "11", "10", "010", "001", "000000"],
    9: ["000001", "000000", "0001", "11", "10", "001", "01", "00001"],
    10: ["00001", "00000", "001", "11", "10", "01", "0001"],
    11: ["0000", "0001", "001", "010", "1", "011"],
    12: ["0000", "0001", "01", "1", "001"],
    13: ["000", "001", "1", "01"],
    14: ["00", "01", "1"],
    15: ["0", "1"],
}

# Table 9-9(a): total_zeros for chroma DC (4:2:0).
TOTAL_ZEROS_CHROMA_DC = {
    1: ["1", "01", "001", "000"],
    2: ["1", "01", "00"],
    3: ["1", "0"],
}

# Table 9-10: run_before. RUN_BEFORE[min(zerosLeft,7)][run] = bits.
RUN_BEFORE = {
    1: ["1", "0"],
    2: ["1", "01", "00"],
    3: ["11", "10", "01", "00"],
    4: ["11", "10", "01", "001", "000"],
    5: ["11", "10", "011", "010", "001", "000"],
    6: ["11", "000", "001", "011", "010", "101", "100"],
    7: ["111", "110", "101", "100", "011", "010", "001", "0001", "00001",
        "000001", "0000001", "00000001", "000000001", "0000000001",
        "00000000001"],
}


def _invert(table) -> dict:
    """{bits: symbol} from {symbol: bits} or a list (index = symbol)."""
    if isinstance(table, dict):
        return {bits: sym for sym, bits in table.items()}
    return {bits: i for i, bits in enumerate(table)}


_CT_DEC = {
    0: _invert(COEFF_TOKEN_NC_0_2),
    2: _invert(COEFF_TOKEN_NC_2_4),
    4: _invert(COEFF_TOKEN_NC_4_8),
    -1: _invert(COEFF_TOKEN_CHROMA_DC),
}
_TZ_DEC = {tc: _invert(v) for tc, v in TOTAL_ZEROS_4x4.items()}
_TZC_DEC = {tc: _invert(v) for tc, v in TOTAL_ZEROS_CHROMA_DC.items()}
_RB_DEC = {zl: _invert(v) for zl, v in RUN_BEFORE.items()}


def _read_vlc(br: BitReader, inv: dict, max_len: int = 16):
    bits = ""
    for _ in range(max_len):
        bits += "1" if br.u(1) else "0"
        sym = inv.get(bits)
        if sym is not None:
            return sym
    raise ValueError(f"invalid VLC prefix {bits!r}")


def all_prefix_tables() -> dict:
    """Every VLC table, for the structural completeness test."""
    out = {
        "ct_nc0": COEFF_TOKEN_NC_0_2,
        "ct_nc2": COEFF_TOKEN_NC_2_4,
        "ct_nc4": COEFF_TOKEN_NC_4_8,
        "ct_chroma_dc": COEFF_TOKEN_CHROMA_DC,
    }
    for tc, rows in TOTAL_ZEROS_4x4.items():
        out[f"tz4x4_{tc}"] = {i: b for i, b in enumerate(rows)}
    for tc, rows in TOTAL_ZEROS_CHROMA_DC.items():
        out[f"tzchroma_{tc}"] = {i: b for i, b in enumerate(rows)}
    for zl, rows in RUN_BEFORE.items():
        # zerosLeft>6 row is intentionally open-ended (run<=14 by geometry)
        out[f"run_before_{zl}"] = {i: b for i, b in enumerate(rows)}
    return out


# ---------------------------------------------------------------------------
# CAVLC residual block decode / encode (§9.2.1-9.2.4)
# ---------------------------------------------------------------------------


def _ct_table_for(nc: int):
    if nc == -1:
        return _CT_DEC[-1], None
    if nc < 2:
        return _CT_DEC[0], None
    if nc < 4:
        return _CT_DEC[2], None
    if nc < 8:
        return _CT_DEC[4], None
    return None, "flc"  # 6-bit FLC: xxxxyy = (TotalCoeff-? ) see below


def decode_residual_block(br: BitReader, nc: int, max_coeffs: int) -> np.ndarray:
    """One CAVLC residual block -> coefficient array in SCAN order
    (lowest frequency first), length ``max_coeffs``."""
    inv, flc = _ct_table_for(nc)
    if flc is None:
        t1, tc = _read_vlc(br, inv)
    else:
        code = br.u(6)
        if code == 0b000011:
            t1, tc = 0, 0
        else:
            tc = (code >> 2) + 1
            t1 = code & 3
    coeffs = np.zeros(max_coeffs, dtype=np.int32)
    if tc == 0:
        return coeffs
    # levels, highest frequency first
    levels = []
    for _ in range(t1):
        levels.append(-1 if br.u(1) else 1)
    suffix_len = 1 if (tc > 10 and t1 < 3) else 0
    for i in range(t1, tc):
        # level_prefix: count zeros before a 1
        prefix = 0
        while br.u(1) == 0:
            prefix += 1
            if prefix > 32:
                raise ValueError("level_prefix runaway")
        level_suffix_size = suffix_len
        if prefix == 14 and suffix_len == 0:
            level_suffix_size = 4
        elif prefix >= 15:
            level_suffix_size = prefix - 3
        suffix = br.u(level_suffix_size) if level_suffix_size else 0
        code = (min(15, prefix) << suffix_len) + suffix
        if prefix >= 15 and suffix_len == 0:
            code += 15
        if prefix >= 16:
            code += (1 << (prefix - 3)) - 4096
        if i == t1 and t1 < 3:
            code += 2
        level = (code + 2) >> 1 if (code & 1) == 0 else -((code + 1) >> 1)
        levels.append(level)
        if suffix_len == 0:
            suffix_len = 1
        if abs(level) > (3 << (suffix_len - 1)) and suffix_len < 6:
            suffix_len += 1
    # total_zeros
    if tc < max_coeffs:
        if nc == -1:
            tz = _read_vlc(br, _TZC_DEC[tc])
        else:
            tz = _read_vlc(br, _TZ_DEC[tc])
    else:
        tz = 0
    if tz + tc > max_coeffs:
        # only reachable on corrupt input: a conforming encoder never
        # signals more zeros+coefficients than block positions
        raise ValueError("invalid total_zeros")
    # run_before
    runs = []
    zeros_left = tz
    for i in range(tc - 1):
        if zeros_left > 0:
            run = _read_vlc(br, _RB_DEC[min(zeros_left, 7)])
            if run > zeros_left:
                raise ValueError("run_before exceeds zeros_left")
        else:
            run = 0
        runs.append(run)
        zeros_left -= run
    runs.append(zeros_left)
    # place: levels[0] is the highest-frequency coefficient
    idx = tz + tc - 1
    for i in range(tc):
        coeffs[idx] = levels[i]
        idx -= 1 + runs[i]
    return coeffs


def encode_residual_block(bw: BitWriter, coeffs: np.ndarray, nc: int) -> None:
    """Inverse of ``decode_residual_block`` (fixture generator)."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    max_coeffs = coeffs.size
    nz = np.flatnonzero(coeffs)
    tc = int(nz.size)
    # trailing ones: up to 3 |1| values at the high-frequency end
    t1 = 0
    for j in range(tc - 1, -1, -1):
        if abs(int(coeffs[nz[j]])) == 1 and t1 < 3:
            t1 += 1
        else:
            break
    if nc == -1:
        table = COEFF_TOKEN_CHROMA_DC
        bw.put_str(table[(t1, tc)])
    elif nc < 2:
        bw.put_str(COEFF_TOKEN_NC_0_2[(t1, tc)])
    elif nc < 4:
        bw.put_str(COEFF_TOKEN_NC_2_4[(t1, tc)])
    elif nc < 8:
        bw.put_str(COEFF_TOKEN_NC_4_8[(t1, tc)])
    else:
        if tc == 0:
            bw.u(0b000011, 6)
        else:
            bw.u(((tc - 1) << 2) | t1, 6)
    if tc == 0:
        return
    levels = [int(coeffs[nz[j]]) for j in range(tc - 1, -1, -1)]
    for i in range(t1):
        bw.u(1 if levels[i] < 0 else 0, 1)
    suffix_len = 1 if (tc > 10 and t1 < 3) else 0
    for i in range(t1, tc):
        level = levels[i]
        code = (level << 1) - 2 if level > 0 else (-level << 1) - 1
        if i == t1 and t1 < 3:
            code -= 2
            if code < 0:
                raise ValueError(
                    "first regular level after <3 trailing ones must be |l|>=2"
                )
        if suffix_len == 0:
            if code < 14:
                bw.u(0, code)
                bw.u(1, 1)
            elif code < 30:
                bw.u(0, 14)
                bw.u(1, 1)
                bw.u(code - 14, 4)
            else:
                prefix = 15
                while True:
                    base = 30 + (((1 << (prefix - 3)) - 4096) if prefix >= 16 else 0)
                    if code - base < (1 << (prefix - 3)):
                        break
                    prefix += 1
                    if prefix > 32:
                        raise ValueError("level too large to encode")
                bw.u(0, prefix)
                bw.u(1, 1)
                bw.u(code - base, prefix - 3)
        else:
            if (code >> suffix_len) < 15:
                bw.u(0, code >> suffix_len)
                bw.u(1, 1)
                bw.u(code & ((1 << suffix_len) - 1), suffix_len)
            else:
                prefix = 15
                while True:
                    base = (15 << suffix_len) + (
                        ((1 << (prefix - 3)) - 4096) if prefix >= 16 else 0
                    )
                    if code - base < (1 << (prefix - 3)):
                        break
                    prefix += 1
                    if prefix > 32:
                        raise ValueError("level too large to encode")
                bw.u(0, prefix)
                bw.u(1, 1)
                bw.u(code - base, prefix - 3)
        if suffix_len == 0:
            suffix_len = 1
        if abs(level) > (3 << (suffix_len - 1)) and suffix_len < 6:
            suffix_len += 1
    # total zeros = zeros below the highest-frequency nonzero coefficient
    tz = int(nz[-1]) - (tc - 1)
    if tc < max_coeffs:
        if nc == -1:
            bw.put_str(TOTAL_ZEROS_CHROMA_DC[tc][tz])
        else:
            bw.put_str(TOTAL_ZEROS_4x4[tc][tz])
    zeros_left = tz
    for j in range(tc - 1, 0, -1):
        run = int(nz[j] - nz[j - 1] - 1)
        if zeros_left > 0:
            bw.put_str(RUN_BEFORE[min(zeros_left, 7)][run])
        zeros_left -= run


# ---------------------------------------------------------------------------
# scans, quant, transforms (§8.5)
# ---------------------------------------------------------------------------

# 4x4 zig-zag scan (frame coding): scan index -> (row, col)
ZIGZAG_4x4 = [
    (0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (0, 3), (1, 2),
    (2, 1), (3, 0), (3, 1), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3),
]

# §8.5.9 LevelScale V matrix entries per qP%6 for the 3 position classes
_DEQUANT_V = np.array(
    [
        [10, 16, 13],
        [11, 18, 14],
        [13, 20, 16],
        [14, 23, 18],
        [16, 25, 20],
        [18, 29, 23],
    ],
    dtype=np.int64,
)
# position class per (row, col): 0 for (0,0),(0,2),(2,0),(2,2); 1 for odd/odd;
# 2 otherwise
_POS_CLASS = np.array(
    [[0, 2, 0, 2], [2, 1, 2, 1], [0, 2, 0, 2], [2, 1, 2, 1]], dtype=np.int64
)


def dequant4x4(coeffs_scan: np.ndarray, qp: int, dc_override: "int | None" = None) -> np.ndarray:
    """Scan-order int coefficients -> dequantized 4x4 block (§8.5.12.1):
    d = level × LevelScale(qP%6, pos) << (qP/6); the +32 >> 6 rounding
    lives in ``itransform4x4``.  ``dc_override`` replaces the (0,0) entry
    with an already-scaled DC (the Intra_16x16 / chroma DC paths scale
    their DC in the secondary transform, §8.5.10/§8.5.11)."""
    blk = np.zeros((4, 4), dtype=np.int64)
    for i, (r, c) in enumerate(ZIGZAG_4x4[: coeffs_scan.size]):
        blk[r, c] = int(coeffs_scan[i])
    d = blk * _DEQUANT_V[qp % 6][_POS_CLASS]
    d = d << (qp // 6)
    if dc_override is not None:
        d[0, 0] = int(dc_override)
    return d


def itransform4x4(d: np.ndarray) -> np.ndarray:
    """Exact §8.5.12.2 inverse core transform; input dequantized (already
    <<qP/6), output residual (rounded >>6)."""
    d = d.astype(np.int64)
    e = np.empty((4, 4), dtype=np.int64)
    # horizontal
    for i in range(4):
        a, b, c, dd = d[i, 0], d[i, 1], d[i, 2], d[i, 3]
        e0 = a + c
        e1 = a - c
        e2 = (b >> 1) - dd
        e3 = b + (dd >> 1)
        e[i, 0] = e0 + e3
        e[i, 1] = e1 + e2
        e[i, 2] = e1 - e2
        e[i, 3] = e0 - e3
    f = np.empty((4, 4), dtype=np.int64)
    for j in range(4):
        a, b, c, dd = e[0, j], e[1, j], e[2, j], e[3, j]
        g0 = a + c
        g1 = a - c
        g2 = (b >> 1) - dd
        g3 = b + (dd >> 1)
        f[0, j] = g0 + g3
        f[1, j] = g1 + g2
        f[2, j] = g1 - g2
        f[3, j] = g0 - g3
    return (f + 32) >> 6


def transform4x4(res: np.ndarray) -> np.ndarray:
    """Forward core transform (encoder side, §8.5 derivation)."""
    r = res.astype(np.int64)
    Cf = np.array([[1, 1, 1, 1], [2, 1, -1, -2], [1, -1, -1, 1], [1, -2, 2, -1]],
                  dtype=np.int64)
    return Cf @ r @ Cf.T


def quant4x4(w: np.ndarray, qp: int) -> np.ndarray:
    """Encoder quantization matched to ``dequant4x4``+``itransform4x4``:
    uses the standard MF multipliers (inverse of V up to the 2^15/2^6
    scaling) with round-half-up — fixtures only need EXACT round-trip of
    the chosen levels, which the tests pin."""
    _MF = np.array(
        [
            [13107, 5243, 8066],
            [11916, 4660, 7490],
            [10082, 4194, 6554],
            [9362, 3647, 5825],
            [8192, 3355, 5243],
            [7282, 2893, 4559],
        ],
        dtype=np.int64,
    )
    mf = _MF[qp % 6][_POS_CLASS]
    qbits = 15 + qp // 6
    f = (1 << qbits) // 3
    sign = np.sign(w)
    level = (np.abs(w) * mf + f) >> qbits
    return (sign * level).astype(np.int64)


def hadamard4x4(x: np.ndarray) -> np.ndarray:
    H = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
                 dtype=np.int64)
    return H @ x.astype(np.int64) @ H.T


def scan_order(blk: np.ndarray) -> np.ndarray:
    return np.array([blk[r, c] for r, c in ZIGZAG_4x4], dtype=np.int64)


# ---------------------------------------------------------------------------
# headers (SPS / PPS / slice header — the baseline-I subset)
# ---------------------------------------------------------------------------


def parse_sps(rbsp: bytes) -> dict:
    br = BitReader(rbsp)
    profile = br.u(8)
    br.u(8)  # constraint flags + reserved
    level = br.u(8)
    sps_id = br.ue()
    if profile in (100, 110, 122, 244, 44, 83, 86, 118, 128):
        chroma = br.ue()
        if chroma == 3:
            br.u(1)
        if br.ue() or br.ue():  # bit depths
            raise ValueError("only 8-bit supported")
        br.u(1)  # qpprime
        if br.u(1):  # seq_scaling_matrix_present
            raise ValueError("scaling matrices not supported")
        if chroma != 1:
            raise ValueError("only 4:2:0 supported")
    log2_max_frame_num = br.ue() + 4
    poc_type = br.ue()
    log2_max_poc_lsb = 0
    if poc_type == 0:
        log2_max_poc_lsb = br.ue() + 4
    elif poc_type == 1:
        br.u(1)
        br.se()
        br.se()
        for _ in range(br.ue()):
            br.se()
    max_num_ref_frames = br.ue()
    br.u(1)  # gaps allowed
    w_mbs = br.ue() + 1
    h_map = br.ue() + 1
    frame_mbs_only = br.u(1)
    if not frame_mbs_only:
        raise ValueError("interlace not supported")
    direct_8x8_inference = br.u(1)
    crop = [0, 0, 0, 0]
    if br.u(1):
        crop = [br.ue(), br.ue(), br.ue(), br.ue()]
    return {
        "profile": profile, "level": level, "sps_id": sps_id,
        "log2_max_frame_num": log2_max_frame_num,
        "poc_type": poc_type,
        "log2_max_poc_lsb": log2_max_poc_lsb,
        "direct_8x8_inference": direct_8x8_inference,
        "max_num_ref_frames": max_num_ref_frames,
        "w_mbs": w_mbs, "h_mbs": h_map,
        "width": w_mbs * 16 - 2 * (crop[0] + crop[1]),
        "height": h_map * 16 - 2 * (crop[2] + crop[3]),
        "crop": crop,
    }


def parse_pps(rbsp: bytes) -> dict:
    br = BitReader(rbsp)
    pps_id = br.ue()
    sps_id = br.ue()
    entropy = br.u(1)  # 0 = CAVLC, 1 = CABAC (§9.3 layer below)
    br.u(1)  # bottom_field_pic_order
    if br.ue() != 0:
        raise ValueError("slice groups not supported")
    num_ref_l0 = br.ue() + 1  # num_ref_idx_l0_default_active
    num_ref_l1 = br.ue() + 1  # num_ref_idx_l1_default_active
    weighted_pred = br.u(1)
    weighted_bipred = br.u(2)  # 0 default, 1 explicit, 2 implicit
    pic_init_qp = br.se() + 26
    br.se()  # qs
    chroma_qp_off = br.se()
    deblock_ctrl = br.u(1)
    br.u(1)  # constrained_intra
    br.u(1)  # redundant
    transform_8x8 = 0
    if br.pos < _rbsp_data_end(rbsp):  # more_rbsp_data(): High-profile tail
        transform_8x8 = br.u(1)
        if br.u(1):  # pic_scaling_matrix_present
            raise ValueError("PPS scaling matrices not supported")
        br.se()  # second_chroma_qp_index_offset (mirrors the first here)
    return {
        "pps_id": pps_id, "sps_id": sps_id, "pic_init_qp": pic_init_qp,
        "chroma_qp_index_offset": chroma_qp_off,
        "deblocking_control": deblock_ctrl,
        "entropy": entropy,
        "transform_8x8": transform_8x8,
        "num_ref_idx_l0_default": num_ref_l0,
        "num_ref_idx_l1_default": num_ref_l1,
        "weighted_pred": weighted_pred,
        "weighted_bipred": weighted_bipred,
    }


_QPC_TABLE = list(range(30)) + [29, 30, 31, 32, 32, 33, 34, 34, 35, 35,
                                36, 36, 37, 37, 37, 38, 38, 38, 39, 39, 39, 39]


def _chroma_qp(qp: int, offset: int) -> int:
    qpi = max(0, min(51, qp + offset))
    return _QPC_TABLE[qpi]


# Table 9-4, intra column: codeNum -> coded_block_pattern
CBP_INTRA = [
    47, 31, 15, 0, 23, 27, 29, 30, 7, 11, 13, 14, 39, 43, 45, 46,
    16, 3, 5, 10, 12, 19, 21, 26, 28, 35, 37, 42, 44, 1, 2, 4,
    8, 17, 18, 20, 24, 6, 9, 22, 25, 32, 33, 34, 36, 40, 38, 41,
]
_CBP_INTRA_INV = {v: i for i, v in enumerate(CBP_INTRA)}

# Table 9-4, inter column: codeNum -> coded_block_pattern (P/B MBs)
CBP_INTER = [
    0, 16, 1, 2, 4, 8, 32, 3, 5, 10, 12, 15, 47, 7, 11, 13,
    14, 6, 9, 31, 35, 37, 42, 44, 33, 34, 36, 40, 39, 43, 45, 46,
    17, 18, 20, 24, 19, 21, 26, 28, 23, 27, 29, 30, 22, 25, 38, 41,
]
_CBP_INTER_INV = {v: i for i, v in enumerate(CBP_INTER)}


def _map_cbp(table: list, code: int) -> int:
    """codeNum → coded_block_pattern; corrupt streams can yield codeNum
    ≥ 48, which must surface as ValueError, not IndexError."""
    if code >= len(table):
        raise ValueError("invalid coded_block_pattern codeNum")
    return table[code]


# ---------------------------------------------------------------------------
# intra prediction (§8.3)
# ---------------------------------------------------------------------------


def _pred4x4(mode: int, top: np.ndarray, left: np.ndarray, tl: int,
             avail_t: bool, avail_l: bool, avail_tr: bool) -> np.ndarray:
    """9 intra 4x4 modes.  ``top`` is 8 samples (4 above + 4 above-right,
    above-right already substituted with top[3] when unavailable)."""
    p = np.empty((4, 4), dtype=np.int64)
    t = top.astype(np.int64)
    l = left.astype(np.int64)
    if mode == 0:  # Vertical
        if not avail_t:
            raise ValueError("V pred needs top")
        p[:] = t[:4]
    elif mode == 1:  # Horizontal
        if not avail_l:
            raise ValueError("H pred needs left")
        p[:] = l[:, None]
    elif mode == 2:  # DC
        if avail_t and avail_l:
            dc = (int(t[:4].sum()) + int(l.sum()) + 4) >> 3
        elif avail_t:
            dc = (int(t[:4].sum()) + 2) >> 2
        elif avail_l:
            dc = (int(l.sum()) + 2) >> 2
        else:
            dc = 128
        p[:] = dc
    elif mode == 3:  # Diagonal Down-Left
        for y in range(4):
            for x in range(4):
                if x == 3 and y == 3:
                    p[y, x] = (t[6] + 3 * t[7] + 2) >> 2
                else:
                    i = x + y
                    p[y, x] = (t[i] + 2 * t[i + 1] + t[i + 2] + 2) >> 2
    elif mode == 4:  # Diagonal Down-Right
        for y in range(4):
            for x in range(4):
                if x > y:
                    i = x - y - 2
                    p[y, x] = (t[i] + 2 * t[i + 1] + t[i + 2] + 2) >> 2 \
                        if i >= 0 else (t[0] + 2 * tl + l[0] + 2) >> 2 \
                        if i == -1 else 0
                    if i == -1:
                        p[y, x] = (tl + 2 * t[0] + t[1] + 2) >> 2
                elif x < y:
                    i = y - x - 2
                    if i == -1:
                        p[y, x] = (tl + 2 * l[0] + l[1] + 2) >> 2
                    else:
                        p[y, x] = (l[i] + 2 * l[i + 1] + l[i + 2] + 2) >> 2
                else:
                    p[y, x] = (t[0] + 2 * tl + l[0] + 2) >> 2
    elif mode == 5:  # Vertical-Right
        for y in range(4):
            for x in range(4):
                z = 2 * x - y
                if z >= 0 and z % 2 == 0:
                    i = x - (y >> 1) - 1
                    a = tl if i < 0 else t[i]
                    b = t[i + 1] if i + 1 >= 0 else tl
                    p[y, x] = (a + b + 1) >> 1
                elif z >= 0:
                    i = x - (y >> 1) - 2
                    a = tl if i < 0 else t[i]
                    b = tl if i + 1 < 0 else t[i + 1]
                    c = t[i + 2]
                    p[y, x] = (a + 2 * b + c + 2) >> 2
                elif z == -1:
                    p[y, x] = (l[0] + 2 * tl + t[0] + 2) >> 2
                else:
                    i = y - 2 * x - 2
                    p[y, x] = (l[i + 1] + 2 * l[i] + (l[i - 1] if i >= 1 else tl) + 2) >> 2 \
                        if i >= 1 else (l[1] + 2 * l[0] + tl + 2) >> 2
    elif mode == 6:  # Horizontal-Down
        for y in range(4):
            for x in range(4):
                z = 2 * y - x
                if z >= 0 and z % 2 == 0:
                    i = y - (x >> 1) - 1
                    a = tl if i < 0 else l[i]
                    b = l[i + 1]
                    p[y, x] = (a + b + 1) >> 1
                elif z >= 0:
                    i = y - (x >> 1) - 2
                    a = tl if i < 0 else l[i]
                    b = tl if i + 1 < 0 else l[i + 1]
                    c = l[i + 2]
                    p[y, x] = (a + 2 * b + c + 2) >> 2
                elif z == -1:
                    p[y, x] = (t[0] + 2 * tl + l[0] + 2) >> 2
                else:
                    i = x - 2 * y - 2
                    p[y, x] = (t[i + 1] + 2 * t[i] + (t[i - 1] if i >= 1 else tl) + 2) >> 2 \
                        if i >= 1 else (t[1] + 2 * t[0] + tl + 2) >> 2
    elif mode == 7:  # Vertical-Left
        for y in range(4):
            for x in range(4):
                i = x + (y >> 1)
                if y % 2 == 0:
                    p[y, x] = (t[i] + t[i + 1] + 1) >> 1
                else:
                    p[y, x] = (t[i] + 2 * t[i + 1] + t[i + 2] + 2) >> 2
    elif mode == 8:  # Horizontal-Up
        for y in range(4):
            for x in range(4):
                z = x + 2 * y
                if z > 5:
                    p[y, x] = l[3]
                elif z == 5:
                    p[y, x] = (l[2] + 3 * l[3] + 2) >> 2
                elif z % 2 == 0:
                    i = y + (x >> 1)
                    p[y, x] = (l[i] + l[i + 1] + 1) >> 1
                else:
                    i = y + (x >> 1)
                    p[y, x] = (l[i] + 2 * l[i + 1] + l[i + 2] + 2) >> 2
    else:
        raise ValueError(f"bad intra4x4 mode {mode}")
    return p


def _pred16x16(mode: int, top: np.ndarray, left: np.ndarray, tl: int,
               avail_t: bool, avail_l: bool) -> np.ndarray:
    t = top.astype(np.int64)
    l = left.astype(np.int64)
    p = np.empty((16, 16), dtype=np.int64)
    if mode == 0:
        if not avail_t:
            raise ValueError("16x16 V needs top")
        p[:] = t
    elif mode == 1:
        if not avail_l:
            raise ValueError("16x16 H needs left")
        p[:] = l[:, None]
    elif mode == 2:
        if avail_t and avail_l:
            dc = (int(t.sum()) + int(l.sum()) + 16) >> 5
        elif avail_t:
            dc = (int(t.sum()) + 8) >> 4
        elif avail_l:
            dc = (int(l.sum()) + 8) >> 4
        else:
            dc = 128
        p[:] = dc
    elif mode == 3:  # Plane
        if not (avail_t and avail_l):
            raise ValueError("16x16 plane needs both edges")
        h = sum((x + 1) * (int(t[8 + x]) - int(t[6 - x])) for x in range(8))
        # x=7 term uses p[-1,-1] = tl
        h = sum((x + 1) * (int(t[8 + x]) - (int(t[6 - x]) if 6 - x >= 0 else tl))
                for x in range(8))
        v = sum((y + 1) * (int(l[8 + y]) - (int(l[6 - y]) if 6 - y >= 0 else tl))
                for y in range(8))
        a = 16 * (int(l[15]) + int(t[15]))
        b = (5 * h + 32) >> 6
        c = (5 * v + 32) >> 6
        for y in range(16):
            for x in range(16):
                p[y, x] = np.clip((a + b * (x - 7) + c * (y - 7) + 16) >> 5, 0, 255)
    else:
        raise ValueError(f"bad intra16x16 mode {mode}")
    return p


def _pred_chroma(mode: int, top: np.ndarray, left: np.ndarray, tl: int,
                 avail_t: bool, avail_l: bool) -> np.ndarray:
    t = top.astype(np.int64)
    l = left.astype(np.int64)
    p = np.empty((8, 8), dtype=np.int64)
    if mode == 0:  # DC, per 4x4 quadrant (§8.3.4.1)
        for by in (0, 4):
            for bx in (0, 4):
                ts = t[bx:bx + 4]
                ls = l[by:by + 4]
                use_t, use_l = avail_t, avail_l
                # corner blocks prefer their own edge (spec block rules)
                if bx == 4 and by == 0 and avail_t:
                    use_l = False
                if bx == 0 and by == 4 and avail_l:
                    use_t = False
                if use_t and use_l:
                    dc = (int(ts.sum()) + int(ls.sum()) + 4) >> 3
                elif use_t:
                    dc = (int(ts.sum()) + 2) >> 2
                elif use_l:
                    dc = (int(ls.sum()) + 2) >> 2
                else:
                    dc = 128
                p[by:by + 4, bx:bx + 4] = dc
    elif mode == 1:  # Horizontal
        if not avail_l:
            raise ValueError("chroma H needs left")
        p[:] = l[:, None]
    elif mode == 2:  # Vertical
        if not avail_t:
            raise ValueError("chroma V needs top")
        p[:] = t
    elif mode == 3:  # Plane
        if not (avail_t and avail_l):
            raise ValueError("chroma plane needs both edges")
        h = sum((x + 1) * (int(t[4 + x]) - (int(t[2 - x]) if 2 - x >= 0 else tl))
                for x in range(4))
        v = sum((y + 1) * (int(l[4 + y]) - (int(l[2 - y]) if 2 - y >= 0 else tl))
                for y in range(4))
        a = 16 * (int(l[7]) + int(t[7]))
        b = (17 * h + 16) >> 5
        c = (17 * v + 16) >> 5
        for y in range(8):
            for x in range(8):
                p[y, x] = np.clip((a + b * (x - 3) + c * (y - 3) + 16) >> 5, 0, 255)
    else:
        raise ValueError(f"bad chroma mode {mode}")
    return p


# ---------------------------------------------------------------------------
# I-slice decoder (§7.3.5 slice data + §8.3/§8.5 reconstruction)
# ---------------------------------------------------------------------------

_BLK_XY = [(8 * ((i >> 2) & 1) + 4 * (i & 1), 8 * ((i >> 3) & 1) + 4 * ((i >> 1) & 1))
           for i in range(16)]  # luma4x4BlkIdx (z-scan) -> (x, y) in MB


class _Frame:
    def __init__(self, w_mbs: int, h_mbs: int):
        self.w_mbs, self.h_mbs = w_mbs, h_mbs
        self.Y = np.zeros((16 * h_mbs, 16 * w_mbs), dtype=np.int64)
        self.Cb = np.zeros((8 * h_mbs, 8 * w_mbs), dtype=np.int64)
        self.Cr = np.zeros((8 * h_mbs, 8 * w_mbs), dtype=np.int64)
        # per-4x4-block TotalCoeff for nC contexts; -1 = not yet decoded
        self.tcY = np.full((4 * h_mbs, 4 * w_mbs), -1, dtype=np.int16)
        self.tcCb = np.full((2 * h_mbs, 2 * w_mbs), -1, dtype=np.int16)
        self.tcCr = np.full((2 * h_mbs, 2 * w_mbs), -1, dtype=np.int16)
        # intra4x4 mode per block; 2 (DC) for non-I4 MBs, -1 undecoded
        self.i4 = np.full((4 * h_mbs, 4 * w_mbs), -1, dtype=np.int8)
        # PIXEL-reconstruction bitmap — distinct from tcY: residuals for a
        # whole MB are PARSED (tc set) before any block is reconstructed,
        # but intra sample availability follows reconstruction order
        self.recon = np.zeros((4 * h_mbs, 4 * w_mbs), dtype=bool)
        self.mb_done = np.zeros((h_mbs, w_mbs), dtype=bool)
        # slice number per MB (-1 undecoded): neighbors in a DIFFERENT
        # slice are unavailable for prediction AND for nC contexts (§6.4.9
        # — the slice-boundary rule real multi-slice encoders rely on)
        self.slice_no = np.full((h_mbs, w_mbs), -1, dtype=np.int32)
        self.cur_slice = 0
        self.mb_qp = np.zeros((h_mbs, w_mbs), dtype=np.int32)
        # per-slice deblocking params: {slice: (idc, alpha_off, beta_off)}
        self.deblock = {}
        # --- CABAC context state (written only by the CABAC parse path) ---
        # mb class: 0 undecoded, 1 I_NxN, 2 Intra_16x16, 3 I_PCM
        self.mb_class = np.zeros((h_mbs, w_mbs), dtype=np.int8)
        self.cbp_arr = np.zeros((h_mbs, w_mbs), dtype=np.int16)
        self.cmode_arr = np.zeros((h_mbs, w_mbs), dtype=np.int8)
        # coded_block_flag grids (§9.3.3.1.1.9 neighbor conditions)
        self.cbf_ldc = np.zeros((h_mbs, w_mbs), dtype=np.int8)
        self.cbf_l4 = np.zeros((4 * h_mbs, 4 * w_mbs), dtype=np.int8)
        self.cbf_cdc = np.zeros((2, h_mbs, w_mbs), dtype=np.int8)
        self.cbf_cac = np.zeros((2, 2 * h_mbs, 2 * w_mbs), dtype=np.int8)
        # previous decoded mb_qp_delta (ctx 60/61 switch); reset per slice
        self.prev_qp_delta = 0
        # transform_size_8x8_flag per MB (High-profile I_8x8; drives the
        # CABAC ctx 399 neighbor condition and deblock edge selection)
        self.t8 = np.zeros((h_mbs, w_mbs), dtype=np.int8)
        # --- inter-prediction state (P and B slices) ---
        # per-4x4-block motion vector (quarter-pel) and reference index,
        # one grid pair per list; refi -1 = list unused for that block
        # (intra blocks leave BOTH at -1; P slices never touch list 1)
        self.mv = np.zeros((4 * h_mbs, 4 * w_mbs, 2), dtype=np.int32)
        self.refi = np.full((4 * h_mbs, 4 * w_mbs), -1, dtype=np.int8)
        self.mv1 = np.zeros((4 * h_mbs, 4 * w_mbs, 2), dtype=np.int32)
        self.refi1 = np.full((4 * h_mbs, 4 * w_mbs), -1, dtype=np.int8)
        # global picture SERIAL per list (deblock §8.7.2.1 compares
        # reference PICTURES, not list indices — two lists can hold the
        # same picture at different indices); -1 = unused
        self.pid0 = np.full((4 * h_mbs, 4 * w_mbs), -1, dtype=np.int64)
        self.pid1 = np.full((4 * h_mbs, 4 * w_mbs), -1, dtype=np.int64)
        # MV-decoded bitmap in PARSE order: §8.4.1.3 neighbor availability
        # follows partition decode order (a later sub-partition of the
        # same MB is not yet available to an earlier one's predictor)
        self.mvdec = np.zeros((4 * h_mbs, 4 * w_mbs), dtype=bool)

    def same_slice(self, mby: int, mbx: int) -> bool:
        return int(self.slice_no[mby, mbx]) == int(self.cur_slice)

    def blk_ok(self, by: int, bx: int, shift: int) -> bool:
        """Neighbor block availability for nC: decoded AND same slice."""
        return self.same_slice(by >> shift, bx >> shift)

    def nc(self, tc: np.ndarray, by: int, bx: int, shift: int = 2) -> int:
        na = int(tc[by, bx - 1]) if (bx > 0 and self.blk_ok(by, bx - 1, shift)) else -1
        nb = int(tc[by - 1, bx]) if (by > 0 and self.blk_ok(by - 1, bx, shift)) else -1
        if na >= 0 and nb >= 0:
            return (na + nb + 1) >> 1
        if na >= 0:
            return na
        if nb >= 0:
            return nb
        return 0


def _parse_i4_modes(br: BitReader, fr: _Frame, bx0: int, by0: int) -> list:
    """16 intra-4x4 modes in z-scan order, with the min(A,B) predictor
    (§8.3.1.1); fills fr.i4 as it goes (later predictors see earlier
    in-MB modes)."""
    modes = []
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        ma = int(fr.i4[gby, gbx - 1]) \
            if (gbx > 0 and fr.same_slice(gby >> 2, (gbx - 1) >> 2)) else -1
        mb = int(fr.i4[gby - 1, gbx]) \
            if (gby > 0 and fr.same_slice((gby - 1) >> 2, gbx >> 2)) else -1
        pred = 2 if (ma < 0 or mb < 0) else min(ma, mb)
        if br.u(1):
            mode = pred
        else:
            rem = br.u(3)
            mode = rem if rem < pred else rem + 1
        fr.i4[gby, gbx] = mode
        modes.append(mode)
    return modes


def _recon_i4_luma(fr: _Frame, mbx: int, mby: int, modes: list,
                   luma_coeffs: list, qp: int) -> None:
    """Reconstruct the 16 luma 4x4 blocks of an I_NxN MB in z-order
    (prediction sees earlier recon) — shared by the CAVLC and CABAC
    parsers."""
    px, py = 16 * mbx, 16 * mby
    for i in range(16):
        x, y = _BLK_XY[i]
        gx, gy = px + x, py + y
        top, left, tl, at, al, atr = _luma_edges4x4(fr, gx, gy)
        pred = _pred4x4(modes[i], top, left, tl, at, al, atr)
        res = itransform4x4(dequant4x4(np.asarray(luma_coeffs[i]), qp))
        fr.Y[gy:gy + 4, gx:gx + 4] = np.clip(pred + res, 0, 255)
        fr.recon[gy // 4, gx // 4] = True


def _recon_i16_luma(fr: _Frame, mbx: int, mby: int, pred_mode: int,
                    dc_scan: np.ndarray, ac: list, qp: int) -> None:
    """Reconstruct the luma plane of an Intra_16x16 MB (prediction, DC
    Hadamard + §8.5.10 scaling, per-block AC) — shared by both entropy
    parsers."""
    px, py = 16 * mbx, 16 * mby
    bx0, by0 = 4 * mbx, 4 * mby
    av_t = mby > 0 and fr.mb_done[mby - 1, mbx] and fr.same_slice(mby - 1, mbx)
    av_l = mbx > 0 and fr.mb_done[mby, mbx - 1] and fr.same_slice(mby, mbx - 1)
    top = fr.Y[py - 1, px:px + 16] if av_t else np.full(16, 128, np.int64)
    left = fr.Y[py:py + 16, px - 1] if av_l else np.full(16, 128, np.int64)
    tl = int(fr.Y[py - 1, px - 1]) if (av_t and av_l) else 128
    pred = _pred16x16(pred_mode, top, left, tl, av_t, av_l)
    # luma DC: zig-zag scan -> 4x4 DC grid (block-raster), Hadamard, scale
    dc_grid = np.zeros((4, 4), dtype=np.int64)
    for i, (r, c_) in enumerate(ZIGZAG_4x4):
        dc_grid[r, c_] = int(dc_scan[i])
    f = hadamard4x4(dc_grid)
    # §8.5.10 with flat weightScale: LevelScale = 16 * normAdjust
    ls0 = 16 * int(_DEQUANT_V[qp % 6][0])
    if qp >= 36:
        dc_sc = (f * ls0) << (qp // 6 - 6)
    else:
        dc_sc = (f * ls0 + (1 << (5 - qp // 6))) >> (6 - qp // 6)
    out = np.empty((16, 16), dtype=np.int64)
    for i in range(16):
        x, y = _BLK_XY[i]
        scan = np.concatenate(([0], np.asarray(ac[i])))
        d = dequant4x4(scan, qp, dc_override=int(dc_sc[y // 4, x // 4]))
        res = itransform4x4(d)
        out[y:y + 4, x:x + 4] = pred[y:y + 4, x:x + 4] + res
    fr.Y[py:py + 16, px:px + 16] = np.clip(out, 0, 255)
    fr.i4[by0:by0 + 4, bx0:bx0 + 4] = 2
    fr.recon[by0:by0 + 4, bx0:bx0 + 4] = True


def _luma_edges4x4(fr: _Frame, gx: int, gy: int):
    """(top8, left4, tl, avail_t, avail_l, avail_tr) for the 4x4 luma block
    whose top-left PIXEL is (gx, gy).  Availability is read off the decoded
    RECONSTRUCTION bitmap, which encodes picture edges AND reconstruction
    order (z-scan within MB, raster across MBs) in one rule."""
    bx, by = gx // 4, gy // 4

    def ok(b_y, b_x):
        return fr.recon[b_y, b_x] and fr.same_slice(b_y >> 2, b_x >> 2)

    av_t = by > 0 and ok(by - 1, bx)
    av_l = bx > 0 and ok(by, bx - 1)
    av_tl = by > 0 and bx > 0 and ok(by - 1, bx - 1)
    av_tr = by > 0 and bx + 1 < fr.recon.shape[1] and ok(by - 1, bx + 1)
    top = np.full(8, 128, dtype=np.int64)
    left = np.full(4, 128, dtype=np.int64)
    tl = 128
    if av_t:
        top[:4] = fr.Y[gy - 1, gx:gx + 4]
        if av_tr:
            top[4:] = fr.Y[gy - 1, gx + 4:gx + 8]
        else:
            top[4:] = top[3]  # §8.3.1.2: substitute p[3,-1]
    if av_l:
        left[:] = fr.Y[gy:gy + 4, gx - 1]
    if av_tl:
        tl = int(fr.Y[gy - 1, gx - 1])
    return top, left, tl, av_t, av_l, av_tr


def _decode_mb(br: BitReader, fr: _Frame, mbx: int, mby: int, qp: int,
               chroma_qp_off: int, t8_allowed: bool = False,
               mb_type: "int | None" = None) -> int:
    """Parse + reconstruct one I-slice macroblock.  Returns the updated QP.
    ``t8_allowed`` mirrors the PPS transform_8x8_mode_flag (High profile:
    I_NxN carries a transform_size_8x8_flag).  ``mb_type`` is pre-read by
    the P-slice dispatcher (intra MB inside a P slice, offset already
    removed)."""
    if mb_type is None:
        mb_type = br.ue()
    fr.slice_no[mby, mbx] = fr.cur_slice
    bx0, by0 = 4 * mbx, 4 * mby  # luma block coords
    px, py = 16 * mbx, 16 * mby  # luma pixel coords
    cx, cy = 8 * mbx, 8 * mby    # chroma pixel coords
    cbx, cby = 2 * mbx, 2 * mby  # chroma block coords

    if mb_type == 25:  # I_PCM
        while br.pos & 7:
            if br.u(1):
                raise ValueError("pcm_alignment bits must be zero")
        for y in range(16):
            for x in range(16):
                fr.Y[py + y, px + x] = br.u(8)
        for plane in (fr.Cb, fr.Cr):
            for y in range(8):
                for x in range(8):
                    plane[cy + y, cx + x] = br.u(8)
        fr.tcY[by0:by0 + 4, bx0:bx0 + 4] = 16
        fr.tcCb[cby:cby + 2, cbx:cbx + 2] = 16
        fr.tcCr[cby:cby + 2, cbx:cbx + 2] = 16
        fr.i4[by0:by0 + 4, bx0:bx0 + 4] = 2
        fr.recon[by0:by0 + 4, bx0:bx0 + 4] = True
        fr.mb_done[mby, mbx] = True
        fr.mb_qp[mby, mbx] = 0  # §8.7.2: I_PCM deblocks with QPY = 0
        return qp
    if mb_type > 25:
        raise ValueError(f"bad I-slice mb_type {mb_type}")

    if mb_type == 0 and t8_allowed and br.u(1):  # I_NxN, 8x8 transform
        fr.t8[mby, mbx] = 1
        modes8 = []
        for b in range(4):
            cx4, cy4 = bx0 + 2 * (b & 1), by0 + 2 * (b >> 1)
            pred = _i8_pred_mode(fr, cx4, cy4)
            if br.u(1):
                mode = pred
            else:
                rem = br.u(3)
                mode = rem if rem < pred else rem + 1
            fr.i4[cy4:cy4 + 2, cx4:cx4 + 2] = mode
            modes8.append(mode)
        chroma_mode = br.ue()
        cbp = _map_cbp(CBP_INTRA, br.ue())
        cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
        if cbp:
            qp = (qp + br.se() + 52) % 52
        blocks64 = []
        for b in range(4):
            cx4, cy4 = bx0 + 2 * (b & 1), by0 + 2 * (b >> 1)
            lv = np.zeros(64, dtype=np.int32)
            if cbp_luma & (1 << b):
                # 4 interleaved 4x4 CAVLC blocks: sub-block k carries the
                # 8x8 scan positions 4*i + k (§7.4.5.3.3)
                for k in range(4):
                    gbx, gby = cx4 + (k & 1), cy4 + (k >> 1)
                    nc = fr.nc(fr.tcY, gby, gbx)
                    c = decode_residual_block(br, nc, 16)
                    lv[k::4] = c
                    fr.tcY[gby, gbx] = int(np.count_nonzero(c))
            else:
                fr.tcY[cy4:cy4 + 2, cx4:cx4 + 2] = 0
            blocks64.append(lv)
        chroma = _parse_chroma_residuals(br, fr, cbx, cby, cbp_chroma)
        _recon_i8_luma(fr, mbx, mby, modes8, blocks64, qp)
        _recon_chroma(fr, mbx, mby, chroma_mode, chroma, qp, chroma_qp_off)
        fr.mb_done[mby, mbx] = True
        fr.mb_qp[mby, mbx] = qp
        return qp

    if mb_type == 0:  # I_NxN, 4x4 transform
        modes = _parse_i4_modes(br, fr, bx0, by0)
        chroma_mode = br.ue()
        cbp = _map_cbp(CBP_INTRA, br.ue())
        cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
        if cbp:
            qp = (qp + br.se() + 52) % 52
        luma_coeffs = _parse_luma_residuals(br, fr, bx0, by0, cbp_luma)
        chroma = _parse_chroma_residuals(br, fr, cbx, cby, cbp_chroma)
        # reconstruct luma block-by-block (prediction sees earlier recon)
        _recon_i4_luma(fr, mbx, mby, modes, luma_coeffs, qp)
        _recon_chroma(fr, mbx, mby, chroma_mode, chroma, qp, chroma_qp_off)
        fr.mb_done[mby, mbx] = True
        fr.mb_qp[mby, mbx] = qp
        return qp

    # Intra_16x16
    k = mb_type - 1
    pred_mode = k % 4
    cbp_chroma = (k // 4) % 3
    cbp_luma = 15 if k >= 12 else 0
    chroma_mode = br.ue()
    qp = (qp + br.se() + 52) % 52
    # luma DC block: nC from block-0 neighbors
    nc0 = fr.nc(fr.tcY, by0, bx0)
    dc_scan = decode_residual_block(br, nc0, 16)
    ac = []
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        if cbp_luma:
            nc = fr.nc(fr.tcY, gby, gbx)
            c = decode_residual_block(br, nc, 15)
            fr.tcY[gby, gbx] = int(np.count_nonzero(c))
        else:
            c = np.zeros(15, dtype=np.int32)
            fr.tcY[gby, gbx] = 0
        ac.append(c)
    chroma = _parse_chroma_residuals(br, fr, cbx, cby, cbp_chroma)
    _recon_i16_luma(fr, mbx, mby, pred_mode, dc_scan, ac, qp)
    _recon_chroma(fr, mbx, mby, chroma_mode, chroma, qp, chroma_qp_off)
    fr.mb_done[mby, mbx] = True
    fr.mb_qp[mby, mbx] = qp
    return qp


def _parse_luma_residuals(br: BitReader, fr: _Frame, bx0: int, by0: int,
                          cbp_luma: int) -> list:
    """16 full (16-coefficient) luma 4x4 residual scans in z-order with
    the in-MB nC chain — shared by I_NxN and inter macroblocks."""
    out = []
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        if cbp_luma & (1 << (i // 4)):
            nc = fr.nc(fr.tcY, gby, gbx)
            c = decode_residual_block(br, nc, 16)
            fr.tcY[gby, gbx] = int(np.count_nonzero(c))
        else:
            c = np.zeros(16, dtype=np.int32)
            fr.tcY[gby, gbx] = 0
        out.append(c)
    return out


def _parse_chroma_residuals(br: BitReader, fr: _Frame, cbx: int, cby: int,
                            cbp_chroma: int):
    """(dc_cb, dc_cr, ac_cb[4], ac_cr[4]) scan-order coefficient arrays;
    fills the chroma tc arrays for later nC contexts."""
    dc = []
    for _ in range(2):
        if cbp_chroma:
            dc.append(decode_residual_block(br, -1, 4))
        else:
            dc.append(np.zeros(4, dtype=np.int32))
    acs = []
    for comp, tc in ((0, fr.tcCb), (1, fr.tcCr)):
        blocks = []
        for i in range(4):  # 2x2 blocks, raster
            gbx, gby = cbx + (i & 1), cby + (i >> 1)
            if cbp_chroma == 2:
                nc = fr.nc(tc, gby, gbx, shift=1)
                c = decode_residual_block(br, nc, 15)
                tc[gby, gbx] = int(np.count_nonzero(c))
            else:
                c = np.zeros(15, dtype=np.int32)
                tc[gby, gbx] = 0
            blocks.append(c)
        acs.append(blocks)
    return dc[0], dc[1], acs[0], acs[1]


_H2 = np.array([[1, 1], [1, -1]], dtype=np.int64)


def _recon_chroma_resid(fr: _Frame, mbx: int, mby: int, pred_cb, pred_cr,
                        chroma, qp: int, chroma_qp_off: int) -> None:
    """Apply parsed chroma residuals (§8.5.11 DC Hadamard + per-block AC)
    on top of the supplied 8x8 predictions (intra or inter)."""
    dc_cb, dc_cr, ac_cb, ac_cr = chroma
    qpc = _chroma_qp(qp, chroma_qp_off)
    cx, cy = 8 * mbx, 8 * mby
    ls0 = 16 * int(_DEQUANT_V[qpc % 6][0])  # §8.5.11, flat weightScale
    for plane, pred, dc_scan, acs in ((fr.Cb, pred_cb, dc_cb, ac_cb),
                                      (fr.Cr, pred_cr, dc_cr, ac_cr)):
        # 2x2 DC: raster scan c00,c01,c10,c11 (§8.5.11)
        cgrid = np.array([[dc_scan[0], dc_scan[1]], [dc_scan[2], dc_scan[3]]],
                         dtype=np.int64)
        f = _H2 @ cgrid @ _H2
        dc_sc = ((f * ls0) << (qpc // 6)) >> 5
        out = np.empty((8, 8), dtype=np.int64)
        for i in range(4):
            bx, by = 4 * (i & 1), 4 * (i >> 1)
            scan = np.concatenate(([0], np.asarray(acs[i])))
            d = dequant4x4(scan, qpc, dc_override=int(dc_sc[by // 4, bx // 4]))
            res = itransform4x4(d)
            out[by:by + 4, bx:bx + 4] = pred[by:by + 4, bx:bx + 4] + res
        plane[cy:cy + 8, cx:cx + 8] = np.clip(out, 0, 255)


def _recon_chroma(fr: _Frame, mbx: int, mby: int, mode: int, chroma,
                  qp: int, chroma_qp_off: int) -> None:
    cx, cy = 8 * mbx, 8 * mby
    av_t = mby > 0 and fr.mb_done[mby - 1, mbx] and fr.same_slice(mby - 1, mbx)
    av_l = mbx > 0 and fr.mb_done[mby, mbx - 1] and fr.same_slice(mby, mbx - 1)
    preds = []
    for plane in (fr.Cb, fr.Cr):
        top = plane[cy - 1, cx:cx + 8] if av_t else np.full(8, 128, np.int64)
        left = plane[cy:cy + 8, cx - 1] if av_l else np.full(8, 128, np.int64)
        tl = int(plane[cy - 1, cx - 1]) if (av_t and av_l) else 128
        preds.append(_pred_chroma(mode, top, left, tl, av_t, av_l))
    _recon_chroma_resid(fr, mbx, mby, preds[0], preds[1], chroma, qp,
                        chroma_qp_off)


def _rbsp_data_end(rbsp: bytes) -> int:
    """Bit index of the rbsp_stop_one_bit (the LAST set bit) — slice data
    ends just before it (more_rbsp_data(), §7.2)."""
    for i in range(len(rbsp) - 1, -1, -1):
        b = rbsp[i]
        if b:
            low = (b & -b).bit_length() - 1
            return i * 8 + (7 - low)
    return 0


def _decode_slice_into(fr: _Frame, rbsp: bytes, sps: dict, pps: dict,
                       refs: "list | None" = None, nal_type: int = 5,
                       nal_ref_idc: int = 1,
                       refs1: "list | None" = None,
                       cur_poc: int = 0) -> int:
    """Decode one slice (IDR-I, non-IDR P, or non-IDR B) into a shared
    picture frame.  Returns first_mb_in_slice.  Slice-boundary
    availability is enforced through fr.cur_slice / fr.slice_no
    (neighbors in other slices are unavailable for prediction and nC,
    §6.4.9).  ``refs`` is the L0 reference list as _RefPic (most recent
    first for P; POC order for B), ``refs1`` the B L1 list."""
    br = BitReader(rbsp)
    first_mb = br.ue()
    slice_type = br.ue()
    st = slice_type % 5
    if st == 0 and nal_type != 5:
        return _decode_pslice_into(fr, br, rbsp, sps, pps, first_mb,
                                   refs or [], nal_ref_idc)
    if st == 1 and nal_type != 5:
        return _decode_bslice_into(fr, br, rbsp, sps, pps, first_mb,
                                   refs or [], refs1 or [], nal_ref_idc,
                                   cur_poc=cur_poc)
    if st != 2:
        raise ValueError(
            f"slice_type {slice_type} in nal_type {nal_type} not supported "
            "(SP/SI slices need the PyAV seam)")
    br.ue()  # pps id
    br.u(sps["log2_max_frame_num"])  # frame_num
    if nal_type == 5:
        br.ue()  # idr_pic_id
    if sps.get("poc_type", 2) == 0:
        br.u(sps["log2_max_poc_lsb"])  # pic_order_cnt_lsb
    if nal_type == 5:
        br.u(1)  # no_output_of_prior_pics
        br.u(1)  # long_term_reference
    elif nal_ref_idc:
        # non-IDR I (intra refresh): dec_ref_pic_marking, non-IDR form
        if br.u(1):  # adaptive_ref_pic_marking_mode_flag
            raise ValueError("adaptive ref-pic marking (MMCO) not supported")
    qp = pps["pic_init_qp"] + br.se()
    idc, a_off, b_off = 0, 0, 0
    if pps["deblocking_control"]:
        idc = br.ue()
        if idc != 1:
            a_off = 2 * br.se()
            b_off = 2 * br.se()
    fr.deblock[fr.cur_slice] = (idc, a_off, b_off)
    total = sps["w_mbs"] * sps["h_mbs"]
    if pps.get("entropy"):
        # CABAC slice data: alignment ones, then the arithmetic stream;
        # the MB loop ends on the end_of_slice_flag terminate bin, not on
        # rbsp position (§7.3.4, §9.3.3.2.4)
        while br.pos & 7:
            if br.u(1) != 1:
                raise ValueError("cabac_alignment_one_bit must be 1")
        fr.prev_qp_delta = 0
        ent = _CabacRead(CabacDecoder(rbsp, br.pos), CabacContexts(qp))
        mb = first_mb
        while mb < total:
            qp = _mb_cabac(ent, fr, mb % sps["w_mbs"], mb // sps["w_mbs"],
                           qp, pps["chroma_qp_index_offset"],
                           t8_allowed=bool(pps.get("transform_8x8")))
            mb += 1
            if ent.end_of_slice():
                break
        fr.cur_slice += 1
        return first_mb
    end = _rbsp_data_end(rbsp)
    mb = first_mb
    while mb < total and br.pos < end:
        qp = _decode_mb(br, fr, mb % sps["w_mbs"], mb // sps["w_mbs"], qp,
                        pps["chroma_qp_index_offset"],
                        t8_allowed=bool(pps.get("transform_8x8")))
        mb += 1
    fr.cur_slice += 1
    return first_mb


def _decode_pslice_into(fr: _Frame, br: BitReader, rbsp: bytes, sps: dict,
                        pps: dict, first_mb: int, refs: list,
                        nal_ref_idc: int) -> int:
    """Decode one non-IDR P slice (header tail + CAVLC slice data with
    mb_skip_run interleaving, §7.3.4)."""
    if pps.get("entropy"):
        raise ValueError("CABAC P slices not supported: needs the PyAV seam")
    if not refs:
        raise ValueError("P slice without reference pictures")
    br.ue()  # pps id
    br.u(sps["log2_max_frame_num"])  # frame_num
    if sps.get("poc_type", 2) == 0:
        br.u(sps["log2_max_poc_lsb"])  # pic_order_cnt_lsb
    nref = pps.get("num_ref_idx_l0_default", 1)
    if br.u(1):  # num_ref_idx_active_override_flag
        nref = br.ue() + 1
    if br.u(1):  # ref_pic_list_modification_flag_l0
        raise ValueError("ref_pic_list_modification not supported")
    wp = None
    if pps.get("weighted_pred"):
        # pred_weight_table (§7.3.3.2): explicit per-ref luma/chroma
        # weights; absent flags default to the identity (1 << denom, 0)
        ld = br.ue()
        cd = br.ue()
        wp = []
        for _ in range(nref):
            wY, oY = 1 << ld, 0
            wCb = wCr = 1 << cd
            oCb = oCr = 0
            if br.u(1):
                wY, oY = br.se(), br.se()
            if br.u(1):
                wCb, oCb = br.se(), br.se()
                wCr, oCr = br.se(), br.se()
            wp.append((ld, wY, oY, cd, wCb, oCb, wCr, oCr))
    if nal_ref_idc:
        if br.u(1):  # adaptive_ref_pic_marking_mode_flag
            raise ValueError("adaptive ref-pic marking (MMCO) not supported")
    if nref > len(refs):
        raise ValueError(f"slice wants {nref} references, DPB has "
                         f"{len(refs)}")
    qp = pps["pic_init_qp"] + br.se()
    idc, a_off, b_off = 0, 0, 0
    if pps["deblocking_control"]:
        idc = br.ue()
        if idc != 1:
            a_off = 2 * br.se()
            b_off = 2 * br.se()
    fr.deblock[fr.cur_slice] = (idc, a_off, b_off)
    total = sps["w_mbs"] * sps["h_mbs"]
    W = sps["w_mbs"]
    end = _rbsp_data_end(rbsp)
    mb = first_mb
    while mb < total and br.pos < end:
        skip_run = br.ue()
        for _ in range(skip_run):
            if mb >= total:
                raise ValueError("mb_skip_run past end of picture")
            _recon_pskip(fr, refs, mb % W, mb // W, qp, wp)
            mb += 1
        if mb >= total or br.pos >= end:
            break
        qp = _decode_mb_p(br, fr, mb % W, mb // W, qp,
                          pps["chroma_qp_index_offset"], refs, nref,
                          t8_allowed=bool(pps.get("transform_8x8")), wp=wp)
        mb += 1
    fr.cur_slice += 1
    return first_mb


def decode_picture(rbsps: list, sps: dict, pps: dict,
                   refs: "list | None" = None,
                   nal_types: "list | None" = None,
                   ref_idcs: "list | None" = None,
                   refs1: "list | None" = None,
                   return_frame: bool = False,
                   cur_poc: int = 0):
    """One access unit (list of slice RBSPs) -> (Y, Cb, Cr) uint8 planes
    (full MB grid, uncropped).  ``refs``: L0 reference list (most recent
    first for P, POC order for B), each a _RefPic or an (Y, Cb, Cr)
    plane triple; ``refs1``: the B L1 list.  ``return_frame`` appends
    the decoded _Frame (its motion grids feed the DPB for later B
    spatial-direct co-location)."""
    fr = _Frame(sps["w_mbs"], sps["h_mbs"])
    refs = [r if isinstance(r, _RefPic) else _RefPic(*r)
            for r in (refs or [])]
    refs1 = None if refs1 is None else \
        [r if isinstance(r, _RefPic) else _RefPic(*r) for r in refs1]
    nal_types = nal_types or [5] * len(rbsps)
    ref_idcs = ref_idcs or [1] * len(rbsps)
    for rbsp, nt, ri in zip(rbsps, nal_types, ref_idcs):
        _decode_slice_into(fr, rbsp, sps, pps, refs=refs, nal_type=nt,
                           nal_ref_idc=ri, refs1=refs1, cur_poc=cur_poc)
    if not fr.mb_done.all():
        raise ValueError("picture is missing macroblocks (incomplete slices)")
    if any(v[0] != 1 for v in fr.deblock.values()):
        deblock_picture(fr, pps)
    planes = (fr.Y.astype(np.uint8), fr.Cb.astype(np.uint8),
              fr.Cr.astype(np.uint8))
    return (planes, fr) if return_frame else planes


# ---------------------------------------------------------------------------
# stream plumbing: Annex-B / length-prefixed NAL walk, frame decode
# ---------------------------------------------------------------------------


def split_annexb_hdr(stream: bytes):
    """[(nal_type, nal_ref_idc, rbsp)] from an Annex-B byte stream."""
    out = []
    i = 0
    n = len(stream)
    starts = []
    while i + 3 <= n:
        if stream[i:i + 3] == b"\x00\x00\x01":
            starts.append(i + 3)
            i += 3
        else:
            i += 1
    for k, s in enumerate(starts):
        e = (starts[k + 1] - 3) if k + 1 < len(starts) else n
        # trim the 4-byte start code's extra zero of the NEXT nal
        while e > s and stream[e - 1] == 0 and k + 1 < len(starts):
            e -= 1
        nal = stream[s:e]
        if not nal:
            continue
        out.append((nal[0] & 0x1F, (nal[0] >> 5) & 3,
                    rbsp_from_ebsp(nal[1:])))
    return out


def split_annexb(stream: bytes):
    """[(nal_type, rbsp)] from an Annex-B byte stream."""
    return [(nt, rbsp) for nt, _, rbsp in split_annexb_hdr(stream)]


def iter_avc_nals_hdr(sample: bytes, length_size: int = 4):
    """(nal_type, nal_ref_idc, rbsp) NALs of one MP4 avc1 sample."""
    i = 0
    while i + length_size <= len(sample):
        ln = int.from_bytes(sample[i:i + length_size], "big")
        i += length_size
        yield (sample[i] & 0x1F, (sample[i] >> 5) & 3,
               rbsp_from_ebsp(sample[i + 1:i + ln]))
        i += ln


class GopDecoder:
    """Stateful access-unit decoder shared by the Annex-B and MP4 walks:
    decodes IDR pictures, CAVLC P pictures, and CAVLC B pictures
    (spatial direct) against a DPB; the remaining AU shapes (CABAC P/B,
    P/B over a broken reference chain) are SKIPPED without entropy
    decoding, preserving the I-sampling semantics, and a skipped
    REFERENCE picture clears the DPB so later pictures cannot silently
    predict from the wrong frame.

    ``decode_au`` returns ``(planes | None, poc)`` — POC (§8.2.1) is
    tracked for every AU, decoded or skipped, so callers can restore
    DISPLAY order across B reordering; with pic_order_cnt_type 2 the POC
    is the decode index scaled by 2, so sorting by it is a no-op for the
    pre-B stream shapes."""

    def __init__(self, sps: dict, pps: dict):
        self.sps, self.pps = sps, pps
        self.dpb: list = []
        self._prev_poc_msb = 0
        self._prev_poc_lsb = 0
        self._fn_offset = 0
        self._prev_fn = 0

    def _poc(self, frame_num: int, poc_lsb: int, idr: bool,
             is_ref: bool) -> int:
        sps = self.sps
        if sps.get("poc_type", 2) == 0:  # §8.2.1.1
            max_lsb = 1 << sps["log2_max_poc_lsb"]
            if idr:
                self._prev_poc_msb = self._prev_poc_lsb = 0
            pm, pl = self._prev_poc_msb, self._prev_poc_lsb
            if poc_lsb < pl and pl - poc_lsb >= max_lsb // 2:
                msb = pm + max_lsb
            elif poc_lsb > pl and poc_lsb - pl > max_lsb // 2:
                msb = pm - max_lsb
            else:
                msb = pm
            if is_ref:
                self._prev_poc_msb, self._prev_poc_lsb = msb, poc_lsb
            return msb + poc_lsb
        # §8.2.1.3 (poc_type 2): decode order, scaled by 2
        max_fn = 1 << sps["log2_max_frame_num"]
        if idr:
            self._fn_offset = 0
        elif self._prev_fn > frame_num:
            self._fn_offset += max_fn
        self._prev_fn = frame_num
        return 2 * (self._fn_offset + frame_num) - (0 if is_ref else 1)

    def _peek(self, nal_type: int, rbsp: bytes):
        """(first_mb, st, frame_num, poc_lsb) from a slice header."""
        br = BitReader(rbsp)
        first_mb = br.ue()
        st = br.ue() % 5
        br.ue()  # pps id
        fn = br.u(self.sps["log2_max_frame_num"])
        if nal_type == 5:
            br.ue()  # idr_pic_id
        lsb = br.u(self.sps["log2_max_poc_lsb"]) \
            if self.sps.get("poc_type", 2) == 0 else 0
        return first_mb, st, fn, lsb

    def decode_au(self, nals: list, want: bool = True):
        """nals: [(nal_type, nal_ref_idc, rbsp)] slice NALs of ONE access
        unit.  Returns ((Y, Cb, Cr) uint8 planes or None, poc).
        ``want=False`` skips the entropy decode but still advances the
        POC state (an unsampled frame keeps its display slot); skipping
        a reference picture clears the DPB."""
        if not nals:
            return None
        idr = nals[0][0] == 5
        _, st0, fn, lsb = self._peek(nals[0][0], nals[0][2])
        is_ref = any(ri for _, ri, _ in nals)
        poc = self._poc(fn, lsb, idr, is_ref)
        cavlc = not self.pps.get("entropy")
        # decodable: IDR, non-IDR I (intra refresh — both entropy
        # coders), or a CAVLC P/B picture with a live reference chain
        ok = idr or st0 == 2 or (st0 in (0, 1) and cavlc and self.dpb)
        if not want or not ok:
            if is_ref and not idr:
                self.dpb = []
            elif idr and not want:
                self.dpb = []
            return None, poc
        refs1 = None
        if st0 == 1 and not idr:
            # §8.2.4.2.3 default B lists (short-term frames, POC order)
            past = sorted((r for r in self.dpb if r.poc < poc),
                          key=lambda r: -r.poc)
            fut = sorted((r for r in self.dpb if r.poc > poc),
                         key=lambda r: r.poc)
            refs0 = past + fut
            refs1 = fut + past
            if len(refs1) >= 2 and refs1 == refs0:
                refs1 = [refs1[1], refs1[0]] + refs1[2:]
        else:
            refs0 = [] if idr else self.dpb
        planes, fr = decode_picture(
            [r for _, _, r in nals], self.sps, self.pps,
            refs=refs0, refs1=refs1,
            nal_types=[nt for nt, _, _ in nals],
            ref_idcs=[ri for _, ri, _ in nals],
            return_frame=True, cur_poc=poc)
        if idr:
            self.dpb = []
        if is_ref:
            rp = _RefPic(*planes, poc=poc)
            rp.attach_motion(fr, l0s0=refs0[0].serial if refs0 else None)
            self.dpb.insert(0, rp)
            del self.dpb[max(1, self.sps.get("max_num_ref_frames", 1)):]
        return planes, poc


def _yuv420_to_rgb(Y: np.ndarray, Cb: np.ndarray, Cr: np.ndarray,
                   width: int, height: int) -> np.ndarray:
    """Full-range BT.601 (the same matrix as stages/jpeg.py), chroma
    nearest-upsampled; cropped to the SPS display window."""
    up_cb = np.repeat(np.repeat(Cb, 2, axis=0), 2, axis=1)
    up_cr = np.repeat(np.repeat(Cr, 2, axis=0), 2, axis=1)
    from iresearch_ray.stages.jpeg import _ycbcr_to_rgb

    ycc = np.stack([Y, up_cb[: Y.shape[0], : Y.shape[1]],
                    up_cr[: Y.shape[0], : Y.shape[1]]], axis=-1)
    return _ycbcr_to_rgb(ycc.astype(np.float64))[:height, :width]


def decode_annexb(stream: bytes, every: int = 1, rgb: bool = True):
    """[(frame_idx, array)] for every k-th access unit of an Annex-B
    H.264 stream (sampled on DECODE order; emitted in DISPLAY order with
    display indices).  Consecutive slices form ONE picture (a new access
    unit starts at first_mb_in_slice == 0).  CAVLC streams decode FULLY
    (IDR + P + B; B pictures use the POC-ordered default lists and
    spatial direct).  B reordering is restored per IDR GOP: decoded
    pictures buffer until the next IDR (bounded by the GOP length), then
    sort by POC — for the pre-B stream shapes POC order IS decode order,
    so indices are unchanged there.  CABAC streams keep the
    I-frame-sampling semantics: non-IDR access units are counted but
    skipped without entropy decoding (CABAC P/B decode is the documented
    PyAV seam)."""
    sps = pps = None
    frames = []
    idx = 0       # decode-order AU index (drives the ``every`` sampling)
    base = 0      # display index of the current GOP's first picture
    cur: list = []       # [(nal_type, nal_ref_idc, rbsp)] of current AU
    pending: list = []   # [(poc, planes | None)] of the current IDR GOP
    gop: list = [None]   # GopDecoder, rebuilt when SPS/PPS change

    def flush_gop():
        nonlocal base
        for disp, (_poc, planes) in enumerate(
                sorted(pending, key=lambda t: t[0])):
            if planes is not None:
                Y, Cb, Cr = planes
                img = (_yuv420_to_rgb(Y, Cb, Cr, sps["width"],
                                      sps["height"])
                       if rgb else (Y[: sps["height"], : sps["width"]],
                                    Cb, Cr))
                frames.append((base + disp, img))
        base += len(pending)
        pending.clear()

    def flush():
        nonlocal idx, cur
        if not cur:
            return
        if gop[0] is None:
            gop[0] = GopDecoder(sps, pps)
        if cur[0][0] == 5:  # an IDR AU closes the previous GOP
            flush_gop()
        planes, poc = gop[0].decode_au(cur)
        pending.append((poc, planes if idx % every == 0 else None))
        idx += 1
        cur = []

    for nal_type, ref_idc, rbsp in split_annexb_hdr(stream):
        if nal_type == 7:
            flush()
            sps = parse_sps(rbsp)
            gop[0] = None
        elif nal_type == 8:
            flush()
            pps = parse_pps(rbsp)
            gop[0] = None
        elif nal_type in (1, 5):
            if sps is None or pps is None:
                raise ValueError("slice before SPS/PPS")
            if BitReader(rbsp).ue() == 0:  # first_mb==0 opens a new AU
                flush()
            cur.append((nal_type, ref_idc, rbsp))
    flush()
    flush_gop()
    return frames


# ---------------------------------------------------------------------------
# fixture encoder: baseline I-frame streams from real pixels.
# The encoder never duplicates reconstruction logic — it writes each MB's
# bits, then runs the DECODER (_decode_mb) on those very bits to advance the
# shared reconstruction state, so encoder recon == decoder recon BY
# CONSTRUCTION (prediction contexts can never drift).
# ---------------------------------------------------------------------------


class _StrBits:
    """BitWriter facade that records the bitstring (per-MB scratch)."""

    def __init__(self):
        self.s = []

    def u(self, value: int, n: int) -> None:
        self.s.append(format(value & ((1 << n) - 1), f"0{n}b") if n else "")

    def put_str(self, bits: str) -> None:
        self.s.append(bits)

    def ue(self, v: int) -> None:
        k = v + 1
        n = k.bit_length()
        self.u(0, n - 1)
        self.u(k, n)

    def se(self, v: int) -> None:
        self.ue(2 * v - 1 if v > 0 else -2 * v)

    def bits(self) -> str:
        return "".join(self.s)


_MF_DC = np.array([13107, 11916, 10082, 9362, 8192, 7282], dtype=np.int64)


def _quant_dc(f: np.ndarray, qp: int) -> np.ndarray:
    qbits = 15 + qp // 6
    rnd = (1 << (qbits + 1)) // 3
    return (np.sign(f) * ((np.abs(f) * _MF_DC[qp % 6] + rnd) >> (qbits + 1))
            ).astype(np.int64)


def _i4_avail_modes(at: bool, al: bool) -> list:
    m = [2]
    if at:
        m += [0, 3, 7]
    if al:
        m += [1, 8]
    if at and al:
        m += [4, 5, 6]
    return sorted(m)


def _enforce_t1(scan: np.ndarray) -> np.ndarray:
    """Nudge coefficients so the CAVLC trailing-ones invariant holds (the
    first regular level after <3 trailing ones must be |l| >= 2)."""
    nz = np.flatnonzero(scan)
    t1 = 0
    for j in range(len(nz) - 1, -1, -1):
        if abs(int(scan[nz[j]])) == 1 and t1 < 3:
            t1 += 1
        else:
            break
    if t1 < 3 and len(nz) > t1:
        k = nz[len(nz) - 1 - t1]
        if abs(int(scan[k])) == 1:
            scan[k] = 2 * np.sign(scan[k])
    return scan


def _encode_mb_bits(src, fr: _Frame, mbx: int, mby: int, qp: int,
                    chroma_qp_off: int, kind: str,
                    t8_allowed: bool = False, mbtype_offset: int = 0) -> str:
    """Bitstring for one MB of the given kind against the CURRENT recon
    state ``fr`` (reads nC / mode predictors exactly like the decoder).
    ``t8_allowed`` mirrors the PPS transform_8x8_mode flag: I_NxN MBs then
    carry a transform_size_8x8_flag (1 for kind 'i8', 0 for 'i4').
    ``mbtype_offset`` is 5 when this intra MB sits inside a P slice
    (Table 7-13 offsets the I types)."""
    sy, scb, scr = src
    bw = _StrBits()
    px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
    bx0, by0, cbx, cby = 4 * mbx, 4 * mby, 2 * mbx, 2 * mby

    av_t = mby > 0 and fr.mb_done[mby - 1, mbx] and fr.same_slice(mby - 1, mbx)
    av_l = mbx > 0 and fr.mb_done[mby, mbx - 1] and fr.same_slice(mby, mbx - 1)
    cmode = [0, 1, 2, 3][(mbx + mby) % 4] if (av_t and av_l) else 0

    # scratch copies: in-MB prediction chains + nC contexts during encode
    fr.slice_no[mby, mbx] = fr.cur_slice  # decoder sets the same at entry
    scY = fr.Y.copy()
    tcY = fr.tcY.copy()
    rec_map = fr.recon.copy()
    tcCb, tcCr = fr.tcCb.copy(), fr.tcCr.copy()
    i4s = fr.i4.copy()

    def chroma_bits(qp_now: int) -> str:
        # spec parse order (§7.3.5.3.3): BOTH chroma DC blocks first, then
        # the 4 AC blocks of Cb, then the 4 AC blocks of Cr
        cb = _StrBits()
        qpc = _chroma_qp(qp_now, chroma_qp_off)
        per_comp = []
        for plane in (scb, scr):
            rplane = fr.Cb if plane is scb else fr.Cr
            topc = rplane[cy - 1, cx:cx + 8] if av_t else np.full(8, 128, np.int64)
            leftc = rplane[cy:cy + 8, cx - 1] if av_l else np.full(8, 128, np.int64)
            tlc = int(rplane[cy - 1, cx - 1]) if (av_t and av_l) else 128
            predc = _pred_chroma(cmode, topc, leftc, tlc, av_t, av_l)
            res = plane[cy:cy + 8, cx:cx + 8].astype(np.int64) - predc
            dcg = np.zeros((2, 2), np.int64)
            acs = []
            for i in range(4):
                bx, by = 4 * (i & 1), 4 * (i >> 1)
                W = transform4x4(res[by:by + 4, bx:bx + 4])
                dcg[i >> 1, i & 1] = W[0, 0]
                q = quant4x4(W, qpc)
                q[0, 0] = 0
                acs.append(_enforce_t1(scan_order(q)[1:]))
            fdc = _H2 @ dcg @ _H2
            per_comp.append((_enforce_t1(_quant_dc(fdc, qpc).reshape(-1)), acs))
        for dc_lv, _ in per_comp:
            encode_residual_block(_BWAdapter(cb), dc_lv, -1)
        for (_, acs), tc in zip(per_comp, (tcCb, tcCr)):
            for i in range(4):
                gbx, gby = cbx + (i & 1), cby + (i >> 1)
                nc = fr.nc(tc, gby, gbx, shift=1)
                encode_residual_block(_BWAdapter(cb), acs[i], nc)
                tc[gby, gbx] = int(np.count_nonzero(acs[i]))
        return cb.bits()

    if kind == "i16":
        pred_mode = [2, 0, 1, 3][(mbx + 2 * mby) % 4]
        if pred_mode in (0, 3) and not av_t:
            pred_mode = 2
        if pred_mode in (1, 3) and not av_l:
            pred_mode = 2
        if pred_mode == 3 and not (av_t and av_l):
            pred_mode = 2
        k = pred_mode + 4 * 2 + 12  # cbp_chroma=2, cbp_luma=15
        bw.ue(mbtype_offset + 1 + k)
        bw.ue(cmode)
        bw.se(0)  # mb_qp_delta
        top = fr.Y[py - 1, px:px + 16] if av_t else np.full(16, 128, np.int64)
        left = fr.Y[py:py + 16, px - 1] if av_l else np.full(16, 128, np.int64)
        tl = int(fr.Y[py - 1, px - 1]) if (av_t and av_l) else 128
        pred = _pred16x16(pred_mode, top, left, tl, av_t, av_l)
        res = sy[py:py + 16, px:px + 16].astype(np.int64) - pred
        dcg = np.zeros((4, 4), np.int64)
        acs = []
        for i in range(16):
            x, y = _BLK_XY[i]
            W = transform4x4(res[y:y + 4, x:x + 4])
            dcg[y // 4, x // 4] = W[0, 0]
            q = quant4x4(W, qp)
            q[0, 0] = 0
            acs.append(_enforce_t1(scan_order(q)[1:]))
        fdc = hadamard4x4(dcg)
        fdc = np.sign(fdc) * (np.abs(fdc) >> 1)  # spec forward DC: /2
        dc_scan = _enforce_t1(scan_order(
            _quant_dc(fdc, qp).reshape(4, 4)))
        nc0 = fr.nc(tcY, by0, bx0)
        encode_residual_block(_BWAdapter(bw), dc_scan, nc0)
        for i in range(16):
            x, y = _BLK_XY[i]
            gbx, gby = bx0 + x // 4, by0 + y // 4
            nc = fr.nc(tcY, gby, gbx)
            encode_residual_block(_BWAdapter(bw), acs[i], nc)
            tcY[gby, gbx] = int(np.count_nonzero(acs[i]))
        bw.put_str(chroma_bits(qp))
        return bw.bits()

    if kind == "i8":
        # I_NxN + transform_size_8x8_flag = 1 (requires a High-profile PPS
        # with transform_8x8_mode; encode_h264_annexb arranges that)
        bw.ue(mbtype_offset + 0)
        bw.u(1, 1)
        mode_bits = _StrBits()
        resid_bits = _StrBits()
        for b in range(4):
            cx4, cy4 = bx0 + 2 * (b & 1), by0 + 2 * (b >> 1)
            gx, gy = px + 8 * (b & 1), py + 8 * (b >> 1)
            at = cy4 > 0 and rec_map[cy4 - 1, cx4] \
                and rec_map[cy4 - 1, cx4 + 1] \
                and fr.same_slice((cy4 - 1) >> 2, cx4 >> 2)
            al = cx4 > 0 and rec_map[cy4, cx4 - 1] \
                and rec_map[cy4 + 1, cx4 - 1] \
                and fr.same_slice(cy4 >> 2, (cx4 - 1) >> 2)
            cand = _i4_avail_modes(at, al)  # same legal sets as 4x4
            mode = cand[(b + mbx + 3 * mby) % len(cand)]
            ma = int(i4s[cy4, cx4 - 1]) \
                if (cx4 > 0 and fr.same_slice(cy4 >> 2, (cx4 - 1) >> 2)) \
                else -1
            mbm = int(i4s[cy4 - 1, cx4]) \
                if (cy4 > 0 and fr.same_slice((cy4 - 1) >> 2, cx4 >> 2)) \
                else -1
            pred_m = 2 if (ma < 0 or mbm < 0) else min(ma, mbm)
            if mode == pred_m:
                mode_bits.u(1, 1)
            else:
                mode_bits.u(0, 1)
                rem = mode if mode < pred_m else mode - 1
                mode_bits.u(rem, 3)
            i4s[cy4:cy4 + 2, cx4:cx4 + 2] = mode
            sc = _Frame.__new__(_Frame)
            sc.Y, sc.recon = scY, rec_map
            sc.slice_no, sc.cur_slice = fr.slice_no, fr.cur_slice
            top, left, tl, eat, eal, eatl = _luma_edges8x8(sc, gx, gy)
            ft, fl, ftl = _filter_ref8x8(top, left, tl, eat, eal, eatl)
            p8 = _pred8x8(mode, ft, fl, ftl, eat, eal)
            res = sy[gy:gy + 8, gx:gx + 8].astype(np.int64) - p8
            scan64 = scan_order8(quant8x8(transform8x8(res), qp))
            for k in range(4):  # interleaved 4x4 CAVLC sub-blocks
                gbx, gby = cx4 + (k & 1), cy4 + (k >> 1)
                c16 = _enforce_t1(scan64[k::4].copy())
                scan64[k::4] = c16
                nc = fr.nc(tcY, gby, gbx)
                encode_residual_block(_BWAdapter(resid_bits), c16, nc)
                tcY[gby, gbx] = int(np.count_nonzero(c16))
            rec = p8 + itransform8x8(dequant8x8(scan64, qp))
            scY[gy:gy + 8, gx:gx + 8] = np.clip(rec, 0, 255)
            rec_map[cy4:cy4 + 2, cx4:cx4 + 2] = True
        bw.put_str(mode_bits.bits())
        bw.ue(cmode)
        bw.ue(_CBP_INTRA_INV[47])  # cbp 47 = luma 15 + chroma 2
        bw.se(0)
        bw.put_str(resid_bits.bits())
        bw.put_str(chroma_bits(qp))
        return bw.bits()

    # kind == "i4"
    bw.ue(mbtype_offset + 0)
    if t8_allowed:
        bw.u(0, 1)  # transform_size_8x8_flag = 0
    mode_bits = _StrBits()
    resid_bits = _StrBits()
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        gx, gy = px + x, py + y
        # availability off the scratch RECON bitmap (same rule as decoder)
        at = gby > 0 and rec_map[gby - 1, gbx] and fr.same_slice((gby - 1) >> 2, gbx >> 2)
        al = gbx > 0 and rec_map[gby, gbx - 1] and fr.same_slice(gby >> 2, (gbx - 1) >> 2)
        cand = _i4_avail_modes(at, al)
        mode = cand[(i + mbx + 3 * mby) % len(cand)]
        ma = int(i4s[gby, gbx - 1]) \
            if (gbx > 0 and fr.same_slice(gby >> 2, (gbx - 1) >> 2)) else -1
        mbm = int(i4s[gby - 1, gbx]) \
            if (gby > 0 and fr.same_slice((gby - 1) >> 2, gbx >> 2)) else -1
        pred_m = 2 if (ma < 0 or mbm < 0) else min(ma, mbm)
        if mode == pred_m:
            mode_bits.u(1, 1)
        else:
            mode_bits.u(0, 1)
            rem = mode if mode < pred_m else mode - 1
            mode_bits.u(rem, 3)
        i4s[gby, gbx] = mode
        # prediction against the scratch recon (same order as decoder)
        sc = _Frame.__new__(_Frame)
        sc.Y, sc.recon = scY, rec_map  # duck-typed view for _luma_edges4x4
        sc.slice_no, sc.cur_slice = fr.slice_no, fr.cur_slice
        top, left, tl, eat, eal, eatr = _luma_edges4x4(sc, gx, gy)
        p4 = _pred4x4(mode, top, left, tl, eat, eal, eatr)
        res = sy[gy:gy + 4, gx:gx + 4].astype(np.int64) - p4
        q = _enforce_t1(scan_order(quant4x4(transform4x4(res), qp)))
        nc = fr.nc(tcY, gby, gbx)
        encode_residual_block(_BWAdapter(resid_bits), q, nc)
        tcY[gby, gbx] = int(np.count_nonzero(q))
        # reconstruct into the scratch so later in-MB blocks predict right
        rec = p4 + itransform4x4(dequant4x4(q, qp))
        scY[gy:gy + 4, gx:gx + 4] = np.clip(rec, 0, 255)
        rec_map[gby, gbx] = True
    bw.put_str(mode_bits.bits())
    bw.ue(cmode)
    bw.ue(_CBP_INTRA_INV[47])  # cbp 47 = luma 15 + chroma 2
    bw.se(0)
    bw.put_str(resid_bits.bits())
    bw.put_str(chroma_bits(qp))
    return bw.bits()


class _BWAdapter:
    """encode_residual_block targets BitWriter's (u, put_str) surface."""

    def __init__(self, sink):
        self.sink = sink

    def u(self, value: int, n: int) -> None:
        self.sink.u(value, n)

    def put_str(self, bits: str) -> None:
        self.sink.put_str(bits)


def _bits_to_bytes(bits: str) -> bytes:
    pad = (-len(bits)) % 8
    bits = bits + "0" * pad
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def encode_iframe_slice(src, sps: dict, pps: dict, qp: int, kind_fn,
                        first_mb: int = 0, n_mbs: int | None = None,
                        fr: "_Frame | None" = None,
                        deblock_idc: int = 1, idr: bool = True,
                        frame_num: int = 0, poc_lsb: int = 0) -> bytes:
    """One IDR slice RBSP from (Y, Cb, Cr) source planes (already padded to
    the MB grid).  ``kind_fn(mbx, mby) -> 'i16' | 'i4' | 'pcm'``.  For a
    multi-slice picture pass the shared ``fr`` plus this slice's MB band
    (``first_mb``/``n_mbs``); the caller bumps ``fr.cur_slice`` between
    slices (matching the decoder's per-slice increment).

    Self-checking by construction: after appending each MB's bits the
    encoder runs the real DECODER (_decode_mb) over those bits to advance
    its reconstruction state, asserting bit-exact consumption — prediction
    contexts and recon can never drift between the two sides."""
    sy = src[0]
    hb = _StrBits()
    hb.ue(first_mb)               # first_mb_in_slice
    hb.ue(7)                      # slice_type = I (all slices in pic)
    hb.ue(pps["pps_id"])
    hb.u(frame_num & ((1 << sps["log2_max_frame_num"]) - 1),
         sps["log2_max_frame_num"])
    if idr:
        hb.ue(0)                  # idr_pic_id
    if sps.get("poc_type", 2) == 0:
        hb.u(poc_lsb & ((1 << sps["log2_max_poc_lsb"]) - 1),
             sps["log2_max_poc_lsb"])
    if idr:
        hb.u(0, 1)                # no_output_of_prior_pics
        hb.u(0, 1)                # long_term_reference
    else:
        hb.u(0, 1)                # adaptive_ref_pic_marking_mode_flag
    hb.se(qp - pps["pic_init_qp"])
    if pps["deblocking_control"]:
        hb.ue(deblock_idc)        # disable_deblocking_filter_idc
        if deblock_idc != 1:
            hb.se(0)              # slice_alpha_c0_offset_div2
            hb.se(0)              # slice_beta_offset_div2
    bits = hb.bits()
    if fr is None:
        fr = _Frame(sps["w_mbs"], sps["h_mbs"])
    total = sps["w_mbs"] * sps["h_mbs"]
    if n_mbs is None:
        n_mbs = total - first_mb
    cur_qp = qp
    for mb_i in range(first_mb, first_mb + n_mbs):
            mbx, mby = mb_i % sps["w_mbs"], mb_i // sps["w_mbs"]
            kind = kind_fn(mbx, mby)
            if kind == "pcm":
                mb = _StrBits()
                mb.ue(25)
                px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
                head = mb.bits()
                pad = (-(len(bits) + len(head))) % 8
                payload = []
                for y in range(16):
                    for x in range(16):
                        payload.append(format(int(sy[py + y, px + x]), "08b"))
                for plane in (src[1], src[2]):
                    for y in range(8):
                        for x in range(8):
                            payload.append(format(int(plane[cy + y, cx + x]), "08b"))
                mb_bits = head + "0" * pad + "".join(payload)
            else:
                mb_bits = _encode_mb_bits(
                    src, fr, mbx, mby, cur_qp, pps["chroma_qp_index_offset"],
                    kind, t8_allowed=bool(pps.get("transform_8x8")))
            start = len(bits)
            bits += mb_bits
            br = BitReader(_bits_to_bytes(bits))
            br.pos = start
            cur_qp = _decode_mb(br, fr, mbx, mby, cur_qp,
                                pps["chroma_qp_index_offset"],
                                t8_allowed=bool(pps.get("transform_8x8")))
            assert br.pos == len(bits), (
                f"encoder/decoder bit drift at MB ({mbx},{mby}): "
                f"{br.pos} != {len(bits)}"
            )
    bw = BitWriter()
    bw.put_str(bits)
    bw.rbsp_trailing()
    return bw.getvalue()


def _search_mv(refpic: _RefPic, srcY, px: int, py: int, w: int, h: int,
               mvp, wp_luma=None) -> np.ndarray:
    """Deterministic two-stage block-matching search: full-pel windows
    around the rounded predictor and around (0, 0), then quarter-pel
    refinement around the best (SAD cost against the — optionally
    weighted — prediction; ties break toward smaller |mv| then raster
    order, so the fixture streams are reproducible)."""
    tgt = srcY[py:py + h, px:px + w].astype(np.int64)
    p = _RefPic.PAD

    def cost(mv):
        pred = _mc_luma(refpic.Y, px + p, py + p, w, h, mv[0], mv[1])
        if wp_luma is not None:
            den, wv, ov = wp_luma
            pred = _apply_wp(pred, wv, ov, den)
        return int(np.abs(pred - tgt).sum())

    def key(mv):
        return (abs(mv[0]) + abs(mv[1]), mv[1], mv[0])

    bx = (int(mvp[0]) >> 2) << 2
    by = (int(mvp[1]) >> 2) << 2
    cands = set()
    for dy in range(-3, 4):
        for dx in range(-3, 4):
            cands.add((bx + 4 * dx, by + 4 * dy))
            cands.add((4 * dx, 4 * dy))
    best = None
    for mv in sorted(cands, key=key):
        c = cost(mv)
        if best is None or c < best[0]:
            best = (c, mv)
    centre = best[1]
    for dy in range(-3, 4):
        for dx in range(-3, 4):
            mv = (centre[0] + dx, centre[1] + dy)
            c = cost(mv)
            if c < best[0] or (c == best[0] and key(mv) < key(best[1])):
                best = (c, mv)
    return np.array(best[1], dtype=np.int32)


def _encode_mb_bits_inter(src, fr: _Frame, mbx: int, mby: int, qp: int,
                          coff: int, kind: str, refs: list,
                          nref: int = 1, wp: "list | None" = None):
    """(bitstring, skip_ok) for one inter MB against the CURRENT recon
    state.  Partitions are planned sequentially against scratch MV state
    (the same predictor chain the decoder will run), the residual is
    quantized, the TRUE coded_block_pattern derived, and spec-order CAVLC
    emitted.  With ``nref`` > 1 each partition (each 8x8 quadrant for
    p8x8) picks the best of the first ``nref`` DPB entries and signals
    ref_idx_l0 as te(v).  skip_ok means the MB reconstructs identically
    as P_Skip (16x16, ref 0, searched MV == P_Skip MV, zero residual) —
    the caller then emits no bits and bumps mb_skip_run instead."""
    sy, scb, scr = src
    bx0, by0 = 4 * mbx, 4 * mby
    px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
    fr.slice_no[mby, mbx] = fr.cur_slice
    skipmv = _skip_mv(fr, bx0, by0) if kind == "p16" else None
    if kind == "p16":
        mb_type, plist, subs = 0, list(_P_PARTS[0]), None
    elif kind == "p16x8":
        mb_type, plist, subs = 1, list(_P_PARTS[1]), None
    elif kind == "p8x16":
        mb_type, plist, subs = 2, list(_P_PARTS[2]), None
    elif kind == "p8x8":
        mb_type = 3
        subs = [(b8 + mbx + mby) % 4 for b8 in range(4)]
        plist = []
        for b8 in range(4):
            obx, oby = 2 * (b8 & 1), 2 * (b8 >> 1)
            for ox, oy, w4, h4 in _SUB_PARTS[subs[b8]]:
                plist.append((obx + ox, oby + oy, w4, h4, b8))
    else:
        raise ValueError(f"unknown inter MB kind {kind!r}")
    nref = min(nref, len(refs))
    # scratch MV window: plan mutates it for the in-MB predictor chain,
    # then restores — the decoder drive is the one true state advance
    sl = np.s_[by0:by0 + 4, bx0:bx0 + 4]
    save = (fr.mv[sl].copy(), fr.refi[sl].copy(), fr.mvdec[sl].copy(),
            fr.pid0[sl].copy())
    try:
        mvds, ridx = [], []
        quad_ref = {}  # p8x8: one ref per 8x8 quadrant (spec shape)
        for ox, oy, w4, h4, pk in plist:
            kind_arg = pk if isinstance(pk, str) else None
            if isinstance(pk, int) and pk in quad_ref:
                cand_refs = [quad_ref[pk]]
            else:
                cand_refs = range(nref)
            best = None
            for r in cand_refs:
                wpl = (wp[r][0], wp[r][1], wp[r][2]) if wp else None
                mvp_r = _mv_pred(fr, bx0 + ox, by0 + oy, w4, h4, r,
                                 kind_arg)
                mv_r = _search_mv(refs[r], sy, px + 4 * ox, py + 4 * oy,
                                  4 * w4, 4 * h4, mvp_r, wp_luma=wpl)
                p = _RefPic.PAD
                pred_r = _mc_luma(refs[r].Y, px + 4 * ox + p,
                                  py + 4 * oy + p, 4 * w4, 4 * h4,
                                  int(mv_r[0]), int(mv_r[1]))
                if wpl is not None:
                    pred_r = _apply_wp(pred_r, wpl[1], wpl[2], wpl[0])
                c = int(np.abs(
                    pred_r - sy[py + 4 * oy:py + 4 * oy + 4 * h4,
                                px + 4 * ox:px + 4 * ox + 4 * w4]).sum())
                if best is None or c < best[0]:
                    best = (c, r, mv_r, mvp_r)
            _, r, mv, mvp = best
            if isinstance(pk, int):
                quad_ref[pk] = r
            ridx.append(r)
            mvds.append((int(mv[0] - mvp[0]), int(mv[1] - mvp[1])))
            _set_part(fr, bx0 + ox, by0 + oy, w4, h4, r, mv,
                      pid=refs[r].serial)
        predY, predCb, predCr = _mc_mb(fr, refs, mbx, mby, wp)
        mv16 = fr.mv[by0, bx0].copy()
        ref16 = int(fr.refi[by0, bx0])
    finally:
        fr.mv[sl], fr.refi[sl], fr.mvdec[sl], fr.pid0[sl] = save
    # residual quantization + true CBP
    cbp, levels, cdc, cac = _quant_inter_residual(
        src, fr, mbx, mby, qp, coff, predY, predCb, predCr)
    if kind == "p16" and cbp == 0 and ref16 == 0 and skipmv is not None \
            and int(mv16[0]) == int(skipmv[0]) \
            and int(mv16[1]) == int(skipmv[1]):
        return "", True
    # emit (§7.3.5): mb_type, [sub types], [ref_idx], mvds, cbp,
    # qp_delta, residuals
    bw = _StrBits()
    bw.ue(mb_type)
    if subs is not None:
        for s_ in subs:
            bw.ue(s_)
    if nref > 1:
        to_signal = [quad_ref[b8] for b8 in range(4)] if subs is not None \
            else ridx
        for r in to_signal:
            if nref == 2:
                bw.u(1 - r, 1)  # te(v), cMax = 1
            else:
                bw.ue(r)
    for dx, dy in mvds:
        bw.se(dx)
        bw.se(dy)
    _emit_inter_cbp_residuals(bw, fr, mbx, mby, cbp, levels, cdc, cac)
    return bw.bits(), False


def _quant_inter_residual(src, fr: _Frame, mbx: int, mby: int, qp: int,
                          coff: int, predY, predCb, predCr):
    """Quantize one inter MB's residual against its prediction and derive
    the TRUE coded_block_pattern.  Returns (cbp, luma levels, chroma DC
    levels, chroma AC levels) — shared by the P and B fixture encoders."""
    sy, scb, scr = src
    px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
    resY = sy[py:py + 16, px:px + 16].astype(np.int64) - predY
    levels = []
    for i in range(16):
        x, y = _BLK_XY[i]
        levels.append(_enforce_t1(scan_order(
            quant4x4(transform4x4(resY[y:y + 4, x:x + 4]), qp))))
    cbp_luma = 0
    for g in range(4):
        if any(np.any(levels[i]) for i in range(4 * g, 4 * g + 4)):
            cbp_luma |= 1 << g
    qpc = _chroma_qp(qp, coff)
    cdc, cac = [], []
    for plane, pred in ((scb, predCb), (scr, predCr)):
        res = plane[cy:cy + 8, cx:cx + 8].astype(np.int64) - pred
        dcg = np.zeros((2, 2), np.int64)
        acs = []
        for i in range(4):
            bx, by = 4 * (i & 1), 4 * (i >> 1)
            W = transform4x4(res[by:by + 4, bx:bx + 4])
            dcg[i >> 1, i & 1] = W[0, 0]
            q = quant4x4(W, qpc)
            q[0, 0] = 0
            acs.append(_enforce_t1(scan_order(q)[1:]))
        fdc = _H2 @ dcg @ _H2
        cdc.append(_enforce_t1(_quant_dc(fdc, qpc).reshape(-1)))
        cac.append(acs)
    any_ac = any(np.any(a) for acs in cac for a in acs)
    any_dc = any(np.any(d) for d in cdc)
    cbp_chroma = 2 if any_ac else (1 if any_dc else 0)
    return cbp_luma | (cbp_chroma << 4), levels, cdc, cac


def _emit_inter_cbp_residuals(bw, fr: _Frame, mbx: int, mby: int, cbp: int,
                              levels, cdc, cac) -> None:
    """Emit coded_block_pattern, mb_qp_delta and the CAVLC residual
    blocks of one inter MB (the shared §7.3.5 tail of P and B MBs)."""
    bx0, by0 = 4 * mbx, 4 * mby
    cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
    bw.ue(_CBP_INTER_INV[cbp])
    if cbp:
        bw.se(0)  # mb_qp_delta
    tcY = fr.tcY.copy()
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        if cbp_luma & (1 << (i // 4)):
            nc = fr.nc(tcY, gby, gbx)
            encode_residual_block(_BWAdapter(bw), levels[i], nc)
            tcY[gby, gbx] = int(np.count_nonzero(levels[i]))
        else:
            tcY[gby, gbx] = 0
    if cbp_chroma:
        for dc_lv in cdc:
            encode_residual_block(_BWAdapter(bw), dc_lv, -1)
    if cbp_chroma == 2:
        cbx, cby = 2 * mbx, 2 * mby
        for acs, tc in zip(cac, (fr.tcCb.copy(), fr.tcCr.copy())):
            for i in range(4):
                gbx, gby = cbx + (i & 1), cby + (i >> 1)
                nc = fr.nc(tc, gby, gbx, shift=1)
                encode_residual_block(_BWAdapter(bw), acs[i], nc)
                tc[gby, gbx] = int(np.count_nonzero(acs[i]))


def encode_pframe_slice(src, sps: dict, pps: dict, qp: int, refs: list,
                        kind_fn, frame_num: int, first_mb: int = 0,
                        n_mbs: "int | None" = None,
                        fr: "_Frame | None" = None,
                        deblock_idc: int = 1, nref: int = 1,
                        wp: "list | None" = None,
                        poc_lsb: int = 0) -> bytes:
    """One non-IDR P slice RBSP.  ``kind_fn(mbx, mby) -> 'p16' | 'p16x8' |
    'p8x16' | 'p8x8' | 'i16' | 'i4'``; 'p16' MBs collapse to P_Skip when
    the searched MV equals the P_Skip MV and the residual quantizes to
    zero.  ``refs``: [_RefPic] (single reference; SPS/PPS signal 1).

    Same self-checking construction as encode_iframe_slice: every emitted
    span (mb_skip_run + macroblock) is immediately re-parsed by the real
    decoder (_decode_mb_p; skips advance through the decoder's own
    _recon_pskip at decision time), asserting bit-exact consumption."""
    hb = _StrBits()
    hb.ue(first_mb)               # first_mb_in_slice
    hb.ue(5)                      # slice_type = P (all slices in pic)
    hb.ue(pps["pps_id"])
    hb.u(frame_num & ((1 << sps["log2_max_frame_num"]) - 1),
         sps["log2_max_frame_num"])
    if sps.get("poc_type", 2) == 0:
        hb.u(poc_lsb & ((1 << sps["log2_max_poc_lsb"]) - 1),
             sps["log2_max_poc_lsb"])
    nref = max(1, min(nref, len(refs)))
    if nref != pps.get("num_ref_idx_l0_default", 1):
        hb.u(1, 1)                # num_ref_idx_active_override_flag
        hb.ue(nref - 1)
    else:
        hb.u(0, 1)
    hb.u(0, 1)                    # ref_pic_list_modification_flag_l0
    if pps.get("weighted_pred"):
        # pred_weight_table — one shared denom pair, per-ref weights
        if wp is None:
            wp = [(0, 1, 0, 0, 1, 0, 1, 0)] * nref  # identity
        if len(wp) < nref or len({(e[0], e[3]) for e in wp[:nref]}) != 1:
            raise ValueError("wp must cover nref refs with one denom pair")
        wp = list(wp[:nref])
        ld, cd = wp[0][0], wp[0][3]
        hb.ue(ld)
        hb.ue(cd)
        for dY, wY, oY, dC, wCb, oCb, wCr, oCr in wp:
            if (wY, oY) != (1 << ld, 0):
                hb.u(1, 1)
                hb.se(wY)
                hb.se(oY)
            else:
                hb.u(0, 1)
            if (wCb, oCb, wCr, oCr) != (1 << cd, 0, 1 << cd, 0):
                hb.u(1, 1)
                hb.se(wCb)
                hb.se(oCb)
                hb.se(wCr)
                hb.se(oCr)
            else:
                hb.u(0, 1)
    else:
        wp = None
    hb.u(0, 1)                    # adaptive_ref_pic_marking_mode_flag
    hb.se(qp - pps["pic_init_qp"])
    if pps["deblocking_control"]:
        hb.ue(deblock_idc)
        if deblock_idc != 1:
            hb.se(0)
            hb.se(0)
    bits = hb.bits()
    if fr is None:
        fr = _Frame(sps["w_mbs"], sps["h_mbs"])
    total = sps["w_mbs"] * sps["h_mbs"]
    if n_mbs is None:
        n_mbs = total - first_mb
    cur_qp = qp
    pending = 0
    coff = pps["chroma_qp_index_offset"]
    for mb_i in range(first_mb, first_mb + n_mbs):
        mbx, mby = mb_i % sps["w_mbs"], mb_i // sps["w_mbs"]
        kind = kind_fn(mbx, mby)
        if kind in ("i16", "i4"):
            mb_bits = _encode_mb_bits(src, fr, mbx, mby, cur_qp, coff, kind,
                                      mbtype_offset=5)
            skip_ok = False
        else:
            mb_bits, skip_ok = _encode_mb_bits_inter(
                src, fr, mbx, mby, cur_qp, coff, kind, refs, nref=nref,
                wp=wp)
        if skip_ok:
            pending += 1
            _recon_pskip(fr, refs, mbx, mby, cur_qp, wp)
            continue
        run = _StrBits()
        run.ue(pending)
        start = len(bits)
        bits += run.bits() + mb_bits
        br = BitReader(_bits_to_bytes(bits))
        br.pos = start
        assert br.ue() == pending, "skip-run drift"
        pending = 0
        cur_qp = _decode_mb_p(br, fr, mbx, mby, cur_qp, coff, refs, nref,
                              wp=wp)
        assert br.pos == len(bits), (
            f"encoder/decoder bit drift at MB ({mbx},{mby}): "
            f"{br.pos} != {len(bits)}"
        )
    if pending:  # trailing skip run closes the slice (§7.3.4)
        tail = _StrBits()
        tail.ue(pending)
        bits += tail.bits()
    bw = BitWriter()
    bw.put_str(bits)
    bw.rbsp_trailing()
    return bw.getvalue()


def _default_b_lists(dpb: list, poc: int) -> tuple:
    """§8.2.4.2.3 default B reference lists over short-term frames:
    list0 = past (POC descending) then future (ascending); list1 = the
    mirror; when the lists come out identical with >= 2 entries the first
    two of list1 swap.  Shared by GopDecoder and the fixture encoder."""
    past = sorted((r for r in dpb if r.poc < poc), key=lambda r: -r.poc)
    fut = sorted((r for r in dpb if r.poc > poc), key=lambda r: r.poc)
    l0 = past + fut
    l1 = fut + past
    if len(l1) >= 2 and l1 == l0:
        l1 = [l1[1], l1[0]] + l1[2:]
    return l0, l1


def _plan_b_list(fr: _Frame, src, mbx, mby, ox, oy, w4, h4, kind_arg,
                 lst: int, refs: list, nref: int, wp,
                 fixed_r: "int | None" = None):
    """Best (cost, r, mv, mvp, predY) over the first ``nref`` entries of
    one B reference list for a partition (SAD against the — optionally
    weighted — luma prediction; deterministic like the P planner).
    ``fixed_r`` pins the reference (a B_8x8 quadrant signals ONE ref_idx
    shared by all its sub-partitions)."""
    sy = src[0]
    bx0, by0 = 4 * mbx, 4 * mby
    px, py = 16 * mbx + 4 * ox, 16 * mby + 4 * oy
    p = _RefPic.PAD
    tgt = sy[py:py + 4 * h4, px:px + 4 * w4].astype(np.int64)
    best = None
    for r in ((fixed_r,) if fixed_r is not None else range(nref)):
        wpl = (wp[r][0], wp[r][1], wp[r][2]) if wp else None
        mvp = _mv_pred(fr, bx0 + ox, by0 + oy, w4, h4, r, kind_arg,
                       lst=lst)
        mv = _search_mv(refs[r], sy, px, py, 4 * w4, 4 * h4, mvp,
                        wp_luma=wpl)
        pred = _mc_luma(refs[r].Y, px + p, py + p, 4 * w4, 4 * h4,
                        int(mv[0]), int(mv[1]))
        if wpl is not None:
            pred = _apply_wp(pred, wpl[1], wpl[2], wpl[0])
        c = int(np.abs(pred - tgt).sum())
        if best is None or c < best[0]:
            best = (c, r, mv, mvp, pred)
    return best


def _encode_mb_bits_b(src, fr: _Frame, mbx: int, mby: int, qp: int,
                      coff: int, kind: str, refs0: list, refs1: list,
                      dctx: dict, nref0: int = 1, nref1: int = 1,
                      wp0=None, wp1=None, wimp=None):
    """(bitstring, skip_ok) for one B-slice inter MB against the CURRENT
    recon state.  ``kind``: 'bdirect' (B_Direct_16x16, collapsing to
    B_Skip when the residual quantizes to zero), 'b16' (cost-picked
    L0/L1/BI 16x16), 'b16bi' (forced BI 16x16), 'b16x8' / 'b8x16'
    (cost-picked per-partition modes), or 'b8x8' (deterministically
    cycled sub_mb_types including B_Direct_8x8).  Same self-checking
    stance as the P planner: the scratch plan mutates and restores the
    MV window; the caller's decoder drive is the one true state
    advance."""
    bx0, by0 = 4 * mbx, 4 * mby
    fr.slice_no[mby, mbx] = fr.cur_slice
    sl = np.s_[by0:by0 + 4, bx0:bx0 + 4]
    save = (fr.mv[sl].copy(), fr.refi[sl].copy(), fr.mvdec[sl].copy(),
            fr.pid0[sl].copy(), fr.mv1[sl].copy(), fr.refi1[sl].copy(),
            fr.pid1[sl].copy())
    try:
        subs = None
        ridx = {}   # (lst, key) -> ref idx, keyed like the parser
        mvds = {}   # (lst, part index) -> (dx, dy)
        if kind == "bdirect":
            mb_type = 0
            parts = []
            _set_direct(fr, refs0, refs1, mbx, mby, dctx)
        elif kind == "b8x8":
            mb_type = 22
            sub_cycle = (0, 1, 2, 3, 4, 5, 9, 11)
            subs = [sub_cycle[(mbx + 2 * mby + b8) % len(sub_cycle)]
                    for b8 in range(4)]
            parts = []
            for b8 in range(4):
                obx, oby = 2 * (b8 & 1), 2 * (b8 >> 1)
                if subs[b8] == 0:
                    parts.append((obx, oby, 2, 2, b8, "DIRECT"))
                    continue
                mode, shp = _B_SUB[subs[b8]]
                for ox, oy, w4, h4 in _SUB_PARTS[shp]:
                    parts.append((obx + ox, oby + oy, w4, h4, b8, mode))
        else:
            shapes = {"b16": [(0, 0, 4, 4, None)],
                      "b16bi": [(0, 0, 4, 4, None)],
                      "b16x8": list(_P_PARTS[1]),
                      "b8x16": list(_P_PARTS[2])}
            if kind not in shapes:
                raise ValueError(f"unknown B MB kind {kind!r}")
            geom = shapes[kind]
            modes = []
            parts = [g + ("?",) for g in geom]  # modes decided in-plan
        # --- sequential plan: partitions in order, both lists each ---
        for i, part in enumerate(parts):
            ox, oy, w4, h4, pk, mode = part
            if mode == "DIRECT":
                _set_direct(fr, refs0, refs1, mbx, mby, dctx,
                            quads=(pk,))
                continue
            kind_arg = pk if isinstance(pk, str) else None
            key = pk if isinstance(pk, int) else (ox, oy)
            b0 = _plan_b_list(fr, src, mbx, mby, ox, oy, w4, h4, kind_arg,
                              0, refs0, nref0, wp0,
                              fixed_r=ridx.get((0, key))) \
                if mode in ("?", "L0", "BI") else None
            b1 = _plan_b_list(fr, src, mbx, mby, ox, oy, w4, h4, kind_arg,
                              1, refs1, nref1, wp1,
                              fixed_r=ridx.get((1, key))) \
                if mode in ("?", "L1", "BI") else None
            if mode == "?":
                if kind == "b16bi":
                    mode = "BI"
                else:
                    sy = src[0]
                    px, py = 16 * mbx + 4 * ox, 16 * mby + 4 * oy
                    tgt = sy[py:py + 4 * h4,
                             px:px + 4 * w4].astype(np.int64)
                    if wimp is not None:
                        w0, w1 = wimp[(b0[1], b1[1])]
                        bi = np.clip((b0[4] * w0 + b1[4] * w1 + 32) >> 6,
                                     0, 255)
                    elif wp0 is not None or wp1 is not None:
                        e0 = wp0[b0[1]] if wp0 else (0, 1, 0, 0, 1, 0, 1, 0)
                        e1 = wp1[b1[1]] if wp1 else (0, 1, 0, 0, 1, 0, 1, 0)
                        bi = _apply_wp_bi(b0[4], b1[4], e0[1], e0[2],
                                          e1[1], e1[2], e0[0])
                    else:
                        bi = (b0[4] + b1[4] + 1) >> 1
                    cbi = int(np.abs(bi - tgt).sum())
                    mode = min(((b0[0], "L0"), (b1[0], "L1"), (cbi, "BI")),
                               key=lambda t: (t[0], ("L0", "L1",
                                                     "BI").index(t[1])))[1]
                parts[i] = part[:5] + (mode,)
                modes.append(mode)
            if mode in ("L0", "BI"):
                _, r, mv, mvp, _ = b0
                ridx[(0, key)] = r
                mvds[(0, i)] = (int(mv[0] - mvp[0]), int(mv[1] - mvp[1]))
                _set_part(fr, bx0 + ox, by0 + oy, w4, h4, r, mv,
                          pid=refs0[r].serial, lst=0)
            if mode in ("L1", "BI"):
                _, r, mv, mvp, _ = b1
                ridx[(1, key)] = r
                mvds[(1, i)] = (int(mv[0] - mvp[0]), int(mv[1] - mvp[1]))
                _set_part(fr, bx0 + ox, by0 + oy, w4, h4, r, mv,
                          pid=refs1[r].serial, lst=1)
        if kind in ("b16", "b16bi"):
            mb_type = {"L0": 1, "L1": 2, "BI": 3}[modes[0]]
        elif kind in ("b16x8", "b8x16"):
            mb_type = 4 + 2 * _B_COMBO.index((modes[0], modes[1])) \
                + (0 if kind == "b16x8" else 1)
        predY, predCb, predCr = _mc_mb(fr, refs0, mbx, mby, wp0,
                                       refs1=refs1, wp1=wp1, wimp=wimp)
    finally:
        (fr.mv[sl], fr.refi[sl], fr.mvdec[sl], fr.pid0[sl],
         fr.mv1[sl], fr.refi1[sl], fr.pid1[sl]) = save
    cbp, levels, cdc, cac = _quant_inter_residual(
        src, fr, mbx, mby, qp, coff, predY, predCb, predCr)
    if kind == "bdirect" and cbp == 0:
        return "", True  # B_Skip reconstructs identically
    # emit in §7.3.5.1 field order: mb_type, [subs], ref_idx_l0s,
    # ref_idx_l1s, mvd_l0s, mvd_l1s, cbp, qp_delta, residuals
    bw = _StrBits()
    bw.ue(mb_type)
    if subs is not None:
        for s_ in subs:
            bw.ue(s_)
    for lst, nref in ((0, nref0), (1, nref1)):
        if nref <= 1:
            continue
        want = "L1" if lst == 0 else "L0"
        done_b8 = set()
        for ox, oy, w4, h4, pk, mode in parts:
            if mode in ("DIRECT", want):
                continue
            if isinstance(pk, int):
                if pk in done_b8:
                    continue
                done_b8.add(pk)
            key = pk if isinstance(pk, int) else (ox, oy)
            r = ridx[(lst, key)]
            if nref == 2:
                bw.u(1 - r, 1)  # te(v), cMax = 1
            else:
                bw.ue(r)
    for lst in (0, 1):
        want = "L1" if lst == 0 else "L0"
        for i, (ox, oy, w4, h4, pk, mode) in enumerate(parts):
            if mode in ("DIRECT", want):
                continue
            dx, dy = mvds[(lst, i)]
            bw.se(dx)
            bw.se(dy)
    _emit_inter_cbp_residuals(bw, fr, mbx, mby, cbp, levels, cdc, cac)
    return bw.bits(), False


def encode_bframe_slice(src, sps: dict, pps: dict, qp: int, refs0: list,
                        refs1: list, kind_fn, frame_num: int,
                        poc_lsb: int, first_mb: int = 0,
                        n_mbs: "int | None" = None,
                        fr: "_Frame | None" = None,
                        deblock_idc: int = 1, nref0: int = 1,
                        nref1: int = 1, wp0: "list | None" = None,
                        wp1: "list | None" = None,
                        direct: str = "spatial") -> bytes:
    """One non-IDR B slice RBSP (``direct``: 'spatial' or 'temporal').
    ``kind_fn(mbx, mby) -> 'bdirect' | 'b16' | 'b16bi' | 'b16x8' |
    'b8x16' | 'b8x8' | 'i16' | 'i4'``; 'bdirect' MBs collapse to B_Skip
    when the residual quantizes to zero.  ``poc_lsb`` carries the FULL
    POC (masked on emission; the unmasked value drives temporal/implicit
    POC scaling).  Same self-checking construction as the P writer:
    every emitted span is immediately re-parsed by the real decoder
    (_decode_mb_b; skips advance through _recon_bskip at decision
    time)."""
    if direct not in ("spatial", "temporal"):
        raise ValueError(f"direct must be spatial|temporal, got {direct!r}")
    hb = _StrBits()
    hb.ue(first_mb)               # first_mb_in_slice
    hb.ue(6)                      # slice_type = B (all slices in pic)
    hb.ue(pps["pps_id"])
    hb.u(frame_num & ((1 << sps["log2_max_frame_num"]) - 1),
         sps["log2_max_frame_num"])
    if sps.get("poc_type", 2) == 0:
        hb.u(poc_lsb & ((1 << sps["log2_max_poc_lsb"]) - 1),
             sps["log2_max_poc_lsb"])
    hb.u(1 if direct == "spatial" else 0, 1)  # direct_spatial_mv_pred
    nref0 = max(1, min(nref0, len(refs0)))
    nref1 = max(1, min(nref1, len(refs1)))
    if (nref0, nref1) != (pps.get("num_ref_idx_l0_default", 1),
                          pps.get("num_ref_idx_l1_default", 1)):
        hb.u(1, 1)                # num_ref_idx_active_override_flag
        hb.ue(nref0 - 1)
        hb.ue(nref1 - 1)
    else:
        hb.u(0, 1)
    hb.u(0, 1)                    # ref_pic_list_modification_flag_l0
    hb.u(0, 1)                    # ref_pic_list_modification_flag_l1
    wimp = None
    if pps.get("weighted_bipred", 0) == 2:
        wimp = _implicit_weights(refs0, refs1, poc_lsb)
        wp0 = wp1 = None
    elif pps.get("weighted_bipred", 0) == 1:
        if wp0 is None:
            wp0 = [(0, 1, 0, 0, 1, 0, 1, 0)] * nref0
        if wp1 is None:
            wp1 = [(wp0[0][0], 1 << wp0[0][0], 0, wp0[0][3],
                    1 << wp0[0][3], 0, 1 << wp0[0][3], 0)] * nref1
        wp0, wp1 = list(wp0[:nref0]), list(wp1[:nref1])
        denoms = {(e[0], e[3]) for e in wp0 + wp1}
        if len(wp0) < nref0 or len(wp1) < nref1 or len(denoms) != 1:
            raise ValueError("wp0/wp1 must cover both lists with one "
                             "denom pair")
        ld, cd = wp0[0][0], wp0[0][3]
        hb.ue(ld)
        hb.ue(cd)
        for row in (wp0, wp1):
            for dY, wY, oY, dC, wCb, oCb, wCr, oCr in row:
                if (wY, oY) != (1 << ld, 0):
                    hb.u(1, 1)
                    hb.se(wY)
                    hb.se(oY)
                else:
                    hb.u(0, 1)
                if (wCb, oCb, wCr, oCr) != (1 << cd, 0, 1 << cd, 0):
                    hb.u(1, 1)
                    hb.se(wCb)
                    hb.se(oCb)
                    hb.se(wCr)
                    hb.se(oCr)
                else:
                    hb.u(0, 1)
    else:
        wp0 = wp1 = None
    # non-reference B pictures carry no dec_ref_pic_marking
    hb.se(qp - pps["pic_init_qp"])
    if pps["deblocking_control"]:
        hb.ue(deblock_idc)
        if deblock_idc != 1:
            hb.se(0)
            hb.se(0)
    bits = hb.bits()
    if fr is None:
        fr = _Frame(sps["w_mbs"], sps["h_mbs"])
    total = sps["w_mbs"] * sps["h_mbs"]
    if n_mbs is None:
        n_mbs = total - first_mb
    dctx = {"mode": direct,
            "inference": bool(sps.get("direct_8x8_inference", 1)),
            "poc": poc_lsb}
    cur_qp = qp
    pending = 0
    coff = pps["chroma_qp_index_offset"]
    for mb_i in range(first_mb, first_mb + n_mbs):
        mbx, mby = mb_i % sps["w_mbs"], mb_i // sps["w_mbs"]
        kind = kind_fn(mbx, mby)
        if kind in ("i16", "i4"):
            mb_bits = _encode_mb_bits(src, fr, mbx, mby, cur_qp, coff,
                                      kind, mbtype_offset=23)
            skip_ok = False
        else:
            mb_bits, skip_ok = _encode_mb_bits_b(
                src, fr, mbx, mby, cur_qp, coff, kind, refs0, refs1,
                dctx, nref0=nref0, nref1=nref1, wp0=wp0, wp1=wp1,
                wimp=wimp)
        if skip_ok:
            pending += 1
            _recon_bskip(fr, refs0, refs1, mbx, mby, cur_qp, dctx,
                         wp0, wp1, wimp)
            continue
        run = _StrBits()
        run.ue(pending)
        start = len(bits)
        bits += run.bits() + mb_bits
        br = BitReader(_bits_to_bytes(bits))
        br.pos = start
        assert br.ue() == pending, "skip-run drift"
        pending = 0
        cur_qp = _decode_mb_b(br, fr, mbx, mby, cur_qp, coff, refs0,
                              refs1, nref0, nref1, dctx,
                              wp0=wp0, wp1=wp1, wimp=wimp)
        assert br.pos == len(bits), (
            f"encoder/decoder bit drift at MB ({mbx},{mby}): "
            f"{br.pos} != {len(bits)}"
        )
    if pending:  # trailing skip run closes the slice (§7.3.4)
        tail = _StrBits()
        tail.ue(pending)
        bits += tail.bits()
    bw = BitWriter()
    bw.put_str(bits)
    bw.rbsp_trailing()
    return bw.getvalue()


def write_sps(w_mbs: int, h_mbs: int, width: int, height: int,
              profile: int = 66, num_ref_frames: int = 0,
              poc_type: int = 2, log2_max_poc_lsb: int = 8) -> bytes:
    bw = BitWriter()
    bw.u(profile, 8)  # 66 Baseline (CAVLC), 77 Main (CABAC), 100 High (8x8)
    bw.u(0, 8)    # constraint flags
    bw.u(20, 8)   # level 2.0
    bw.ue(0)      # sps_id
    if profile == 100:
        bw.ue(1)  # chroma_format_idc 4:2:0
        bw.ue(0)  # bit_depth_luma_minus8
        bw.ue(0)  # bit_depth_chroma_minus8
        bw.u(0, 1)  # qpprime_y_zero_transform_bypass
        bw.u(0, 1)  # seq_scaling_matrix_present
    bw.ue(0)      # log2_max_frame_num_minus4
    bw.ue(poc_type)  # pic_order_cnt_type: 2 (no POC fields) or 0 (lsb)
    if poc_type == 0:
        bw.ue(log2_max_poc_lsb - 4)
    bw.ue(num_ref_frames)  # max_num_ref_frames
    bw.u(0, 1)    # gaps_in_frame_num
    bw.ue(w_mbs - 1)
    bw.ue(h_mbs - 1)
    bw.u(1, 1)    # frame_mbs_only
    bw.u(1, 1)    # direct_8x8_inference
    crop_r = (16 * w_mbs - width) // 2
    crop_b = (16 * h_mbs - height) // 2
    if crop_r or crop_b:
        bw.u(1, 1)
        bw.ue(0)
        bw.ue(crop_r)
        bw.ue(0)
        bw.ue(crop_b)
    else:
        bw.u(0, 1)
    bw.u(0, 1)    # vui
    bw.rbsp_trailing()
    return bw.getvalue()


def write_pps(entropy: int = 0, transform_8x8: int = 0,
              weighted_pred: int = 0, weighted_bipred: int = 0) -> bytes:
    bw = BitWriter()
    bw.ue(0)      # pps_id
    bw.ue(0)      # sps_id
    bw.u(entropy, 1)  # entropy_coding_mode: 0 = CAVLC, 1 = CABAC
    bw.u(0, 1)    # bottom_field_pic_order
    bw.ue(0)      # num_slice_groups_minus1
    bw.ue(0)      # num_ref_idx_l0
    bw.ue(0)      # num_ref_idx_l1
    bw.u(weighted_pred, 1)
    bw.u(weighted_bipred, 2)  # 0 default, 1 explicit, 2 implicit
    bw.se(0)      # pic_init_qp_minus26
    bw.se(0)      # pic_init_qs_minus26
    bw.se(0)      # chroma_qp_index_offset
    bw.u(1, 1)    # deblocking_filter_control_present
    bw.u(0, 1)    # constrained_intra_pred
    bw.u(0, 1)    # redundant_pic_cnt_present
    if transform_8x8:
        bw.u(1, 1)  # transform_8x8_mode_flag
        bw.u(0, 1)  # pic_scaling_matrix_present
        bw.se(0)    # second_chroma_qp_index_offset
    bw.rbsp_trailing()
    return bw.getvalue()


def _nal(nal_type: int, rbsp: bytes, ref_idc: int = 3) -> bytes:
    return bytes([(ref_idc << 5) | nal_type]) + ebsp_from_rbsp(rbsp)


def rgb_to_yuv420(frame: np.ndarray):
    """(h, w, 3) uint8 RGB -> MB-grid-padded (Y, Cb, Cr) uint8 planes
    (full-range BT.601, same matrix as stages/jpeg.py; chroma = 2x2 mean)."""
    from iresearch_ray.stages.jpeg import _rgb_to_ycbcr

    h, w = frame.shape[:2]
    ph, pw = -h % 16, -w % 16
    fx = np.pad(frame, ((0, ph), (0, pw), (0, 0)), mode="edge")
    ycc = _rgb_to_ycbcr(fx.astype(np.float64))
    Y = np.round(ycc[..., 0]).clip(0, 255).astype(np.uint8)
    cb = ycc[..., 1].reshape(Y.shape[0] // 2, 2, Y.shape[1] // 2, 2).mean((1, 3))
    cr = ycc[..., 2].reshape(Y.shape[0] // 2, 2, Y.shape[1] // 2, 2).mean((1, 3))
    return Y, np.round(cb).clip(0, 255).astype(np.uint8), \
        np.round(cr).clip(0, 255).astype(np.uint8)


def encode_h264_annexb(frames: list, qp: int = 26, kinds: str = "mixed",
                       slices: int = 1, deblock_idc: int = 1,
                       entropy: str = "cavlc", gop: str = "i",
                       p_kinds: str = "pmix", n_refs: int = 1,
                       p_weights: "list | None" = None,
                       b_kinds: str = "bmix",
                       b_weights: "tuple | str | None" = None,
                       b_direct: str = "spatial",
                       poc_bits: int = 8) -> bytes:
    """RGB frames -> Annex-B H.264 stream.  ``kinds`` (I pictures): 'pcm'
    (lossless planes), 'i16', 'i4', 'i8' (High-profile 8x8
    transform), 'mixed' (cycles i16/i4/pcm) or 'mixed8' (cycles
    i16/i4/i8/pcm — the widest-coverage fixture).  ``slices`` > 1 splits
    each picture into that many contiguous MB bands, one NAL each
    (the shape real encoders emit for intra-picture parallelism) —
    slice-boundary availability rules apply on both sides.
    ``deblock_idc`` is signalled per slice: 1 = loop filter off (the
    roundtrip-exact fixtures), 0 = on, 2 = on but never across slice
    boundaries.  ``entropy``: 'cavlc' (Baseline profile) or 'cabac'
    (Main profile, §9.3; I_PCM rides the engine-re-init path).  Any
    8x8 kind forces High profile + a transform_8x8_mode PPS.

    ``gop``: a pattern over {'i', 'p', 'r', 'b'} cycled across frames IN
    DISPLAY ORDER (frame 0 is always IDR) — e.g. 'ippp' emits an IDR then
    three P pictures per cycle; 'r' emits a NON-IDR intra picture (intra
    refresh: nal_type 1, I slices, keeps the reference chain instead of
    resetting it); 'b' emits a NON-REFERENCE B picture (CAVLC, spatial
    direct) that is REORDERED after its future anchor in decode order,
    with pic_order_cnt_type 0 POC carrying the display order (lsb width
    ``poc_bits``).  Trailing 'b' frames with no future anchor encode as
    P.  P pictures are CAVLC-only, referencing the last ``n_refs``
    decoded pictures (post-loop-filter, as the spec requires; each
    partition signals ref_idx_l0 as te(v) when n_refs > 1);
    ``p_kinds``: 'pmix' (cycles p16/p16x8/p8x16/p8x8/intra-in-P) or one
    explicit P MB kind.  ``b_kinds``: 'bmix' (cycles
    bdirect/b16/b16bi/b16x8/b8x16/b8x8/intra-in-B) or one explicit B MB
    kind.  ``p_weights``: per-ref explicit weighted-pred tuples
    (denY, wY, oY, denC, wCb, oCb, wCr, oCr) — sets the PPS
    weighted_pred flag and writes a pred_weight_table on every P slice.
    ``b_weights``: (wp_l0, wp_l1) per-list tuples — sets
    weighted_bipred_idc 1 and writes both halves on every B slice — or
    the string 'implicit' for weighted_bipred_idc 2 (POC-distance
    weights, no tables).  ``b_direct``: 'spatial' (§8.4.1.2.2) or
    'temporal' (§8.4.1.2.3 POC-scaled co-located motion)."""
    if not frames:
        raise ValueError("need at least one frame")
    if entropy not in ("cavlc", "cabac"):
        raise ValueError(f"entropy must be cavlc|cabac, got {entropy!r}")
    cabac = entropy == "cabac"
    pattern = (gop or "i").lower()
    if set(pattern) - {"i", "p", "r", "b"}:
        raise ValueError(f"gop pattern must use only i/p/r/b, got {gop!r}")
    has_p = "p" in pattern
    has_b = "b" in pattern
    has_ref_chain = has_p or has_b or "r" in pattern
    if (has_p or has_b) and cabac:
        raise ValueError("CABAC P/B pictures not supported (PyAV seam)")
    t8 = kinds in ("i8", "mixed8")  # High profile: 8x8 transform
    if (has_p or has_b) and t8:
        raise ValueError("8x8 transform not supported with P/B pictures")
    h, w = frames[0].shape[:2]
    if h % 2 or w % 2:
        raise ValueError("even dimensions required (4:2:0)")
    w_mbs, h_mbs = (w + 15) // 16, (h + 15) // 16
    profile = 100 if t8 else (77 if cabac else 66)
    dpb_cap = max(n_refs, 2 if has_b else 1)
    sps_rbsp = write_sps(w_mbs, h_mbs, w, h, profile=profile,
                         num_ref_frames=dpb_cap if has_ref_chain else 0,
                         poc_type=0 if has_b else 2,
                         log2_max_poc_lsb=poc_bits)
    implicit_b = b_weights == "implicit"
    pps_rbsp = write_pps(entropy=1 if cabac else 0,
                         transform_8x8=1 if t8 else 0,
                         weighted_pred=1 if p_weights else 0,
                         weighted_bipred=2 if implicit_b
                         else (1 if b_weights else 0))
    sps = parse_sps(sps_rbsp)
    pps = parse_pps(pps_rbsp)
    cycle = ("i16", "i4", "pcm")
    cycle8 = ("i16", "i4", "i8", "pcm")
    p_cycle = ("p16", "p16x8", "p8x16", "p8x8", "i16", "p16", "i4", "p16")
    b_cycle = ("bdirect", "b16", "b16bi", "b16x8", "b8x16", "b8x8",
               "i16", "bdirect", "b16")

    def kind_fn(mbx, mby):
        if kinds == "mixed":
            return cycle[(mbx + mby) % 3]
        if kinds == "mixed8":
            return cycle8[(mbx + mby) % 4]
        return kinds

    def kind_fn_p(mbx, mby):
        if p_kinds == "pmix":
            return p_cycle[(mbx + 2 * mby) % len(p_cycle)]
        return p_kinds

    def kind_fn_b(mbx, mby):
        if b_kinds == "bmix":
            return b_cycle[(mbx + 2 * mby) % len(b_cycle)]
        return b_kinds

    slice_fn = encode_iframe_slice_cabac if cabac else encode_iframe_slice
    total = w_mbs * h_mbs
    n_slices = max(1, min(int(slices), total))
    bounds = [round(i * total / n_slices) for i in range(n_slices + 1)]
    out = [b"\x00\x00\x00\x01" + _nal(7, sps_rbsp),
           b"\x00\x00\x00\x01" + _nal(8, pps_rbsp)]
    # display-order picture types; 'b' without a FUTURE anchor becomes P
    types = ["i" if fi == 0 else pattern[fi % len(pattern)]
             for fi in range(len(frames))]
    last_anchor = max(i for i, t in enumerate(types) if t != "b")
    for i in range(last_anchor + 1, len(types)):
        types[i] = "p"
    # decode order: each anchor first, then the display-earlier B run
    # that references it as its future (list-1) anchor
    order = []
    held_b: list = []
    for fi, t in enumerate(types):
        if t == "b":
            held_b.append(fi)
        else:
            order.append(fi)
            order.extend(held_b)
            held_b = []
    dpb: list = []
    frame_num = 0
    for fi in order:
        ftype = types[fi]
        poc = 2 * fi  # display order; IDR resets the decoder's POC state
        src = rgb_to_yuv420(frames[fi])
        fr = _Frame(w_mbs, h_mbs)
        if ftype in ("i", "r"):
            idr = ftype == "i"
            if idr:
                frame_num = 0
            for si in range(n_slices):
                rbsp = slice_fn(
                    src, sps, pps, qp, kind_fn,
                    first_mb=bounds[si], n_mbs=bounds[si + 1] - bounds[si],
                    fr=fr, deblock_idc=deblock_idc, idr=idr,
                    frame_num=frame_num, poc_lsb=poc)
                fr.cur_slice += 1  # mirror the decoder's per-slice increment
                out.append(b"\x00\x00\x00\x01"
                           + _nal(5 if idr else 1, rbsp,
                                  ref_idc=3 if idr else 2))
        elif ftype == "b":
            refs0, refs1 = _default_b_lists(dpb, poc)
            for si in range(n_slices):
                rbsp = encode_bframe_slice(
                    src, sps, pps, qp, refs0, refs1, kind_fn_b, frame_num,
                    poc, first_mb=bounds[si],
                    n_mbs=bounds[si + 1] - bounds[si], fr=fr,
                    deblock_idc=deblock_idc,
                    nref0=min(n_refs, len(refs0)),
                    nref1=min(n_refs, len(refs1)),
                    wp0=b_weights[0] if (b_weights and not implicit_b)
                    else None,
                    wp1=b_weights[1] if (b_weights and not implicit_b)
                    else None,
                    direct=b_direct)
                fr.cur_slice += 1
                out.append(b"\x00\x00\x00\x01" + _nal(1, rbsp, ref_idc=0))
        else:
            for si in range(n_slices):
                rbsp = encode_pframe_slice(
                    src, sps, pps, qp, dpb, kind_fn_p, frame_num,
                    first_mb=bounds[si], n_mbs=bounds[si + 1] - bounds[si],
                    fr=fr, deblock_idc=deblock_idc,
                    nref=min(n_refs, len(dpb)), wp=p_weights,
                    poc_lsb=poc)
                fr.cur_slice += 1
                out.append(b"\x00\x00\x00\x01" + _nal(1, rbsp, ref_idc=2))
        if has_ref_chain and ftype != "b":
            # the DPB holds the picture the DECODER will hold: recon after
            # the in-loop filter (encoder-side fr.deblock mirrors the
            # headers it just wrote); its motion grids feed B spatial
            # direct's co-located lookup
            for si in range(n_slices):
                fr.deblock[si] = (deblock_idc, 0, 0)
            if deblock_idc != 1:
                deblock_picture(fr, pps)
            if ftype == "i":
                dpb = []
            rp = _RefPic(fr.Y, fr.Cb, fr.Cr, poc=poc)
            rp.attach_motion(fr, l0s0=dpb[0].serial if dpb else None)
            dpb.insert(0, rp)
            del dpb[max(1, dpb_cap):]
            frame_num = (frame_num + 1) % (1 << sps["log2_max_frame_num"])
    return b"".join(out)


# ---------------------------------------------------------------------------
# in-loop deblocking filter (§8.7).  Boundary strength per 4x4 edge
# segment (§8.7.2.1): intra ⇒ 4 on MB edges / 3 internal; else 2 when
# either side has coefficients, 1 on ref/MV discontinuity (≥ 1 full pel),
# 0 otherwise.  Filter order is normative: per MB in raster order, all
# vertical edges left→right, then all horizontal edges top→bottom, each
# operating on the progressively filtered picture.  Prediction already
# used the UNfiltered samples (the filter runs after the whole picture
# reconstructs — legal because intra prediction within a picture is
# specified on unfiltered samples and inter prediction reads REFERENCE
# pictures, which are stored post-filter).
# ---------------------------------------------------------------------------

_ALPHA = np.array(
    [0] * 16
    + [4, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 17, 20, 22, 25, 28, 32, 36,
       40, 45, 50, 56, 63, 71, 80, 90, 101, 113, 127, 144, 162, 182, 203,
       226, 255, 255],
    dtype=np.int64,
)
_BETA = np.array(
    [0] * 16
    + [2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11,
       11, 12, 12, 13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18],
    dtype=np.int64,
)
# Table 8-17 t'C0 rows, indexed [bS - 1][indexA].  Transcribed to agree
# with the JM reference CLIP_TAB (first nonzero at indexA 17, bS=3 maxes
# at 25) — the earlier single-row transcription drifted at both ends.
# Same conformance caveat as the CABAC init tables: encoder and decoder
# share this table, so in-repo round-trips cannot catch a transcription
# slip; only third-party-stream parity would.
_TC0 = np.array([
    [0] * 17 + [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2,
                2, 3, 3, 3, 4, 4, 4, 5, 6, 6, 7, 8, 9, 10, 11, 13],
    [0] * 17 + [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3,
                3, 3, 4, 4, 5, 5, 6, 7, 8, 8, 10, 11, 12, 13, 15, 17],
    [0] * 17 + [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4,
                4, 5, 6, 6, 7, 8, 9, 10, 11, 13, 14, 16, 18, 20, 23, 25],
], dtype=np.int64)


def _filter_lines(p3, p2, p1, p0, q0, q1, q2, q3, bs4: bool, alpha: int,
                  beta: int, tc0: int, chroma: bool):
    """Vectorized §8.7.2.3/8.7.2.4 filtering of N parallel lines across one
    edge.  Inputs int64 arrays; returns the (possibly) modified sample
    arrays (p2..q2)."""
    filt = (np.abs(p0 - q0) < alpha) & (np.abs(p1 - p0) < beta) \
        & (np.abs(q1 - q0) < beta)
    if not filt.any():
        return p2, p1, p0, q0, q1, q2
    ap = np.abs(p2 - p0) < beta
    aq = np.abs(q2 - q0) < beta
    clip255 = lambda x: np.clip(x, 0, 255)
    if bs4:
        if chroma:
            np0 = np.where(filt, (2 * p1 + p0 + q1 + 2) >> 2, p0)
            nq0 = np.where(filt, (2 * q1 + q0 + p1 + 2) >> 2, q0)
            return p2, p1, np0, nq0, q1, q2
        small = np.abs(p0 - q0) < ((alpha >> 2) + 2)
        strong_p = filt & ap & small
        strong_q = filt & aq & small
        np0 = np.where(
            strong_p, (p2 + 2 * p1 + 2 * p0 + 2 * q0 + q1 + 4) >> 3,
            np.where(filt, (2 * p1 + p0 + q1 + 2) >> 2, p0))
        np1 = np.where(strong_p, (p2 + p1 + p0 + q0 + 2) >> 2, p1)
        np2 = np.where(strong_p, (2 * p3 + 3 * p2 + p1 + p0 + q0 + 4) >> 3, p2)
        nq0 = np.where(
            strong_q, (q2 + 2 * q1 + 2 * q0 + 2 * p0 + p1 + 4) >> 3,
            np.where(filt, (2 * q1 + q0 + p1 + 2) >> 2, q0))
        nq1 = np.where(strong_q, (q2 + q1 + q0 + p0 + 2) >> 2, q1)
        nq2 = np.where(strong_q, (2 * q3 + 3 * q2 + q1 + q0 + p0 + 4) >> 3, q2)
        return np2, np1, np0, nq0, nq1, nq2
    # bS < 4 (here always 3)
    if chroma:
        tc = np.full(p0.shape, tc0 + 1, dtype=np.int64)
    else:
        tc = tc0 + ap.astype(np.int64) + aq.astype(np.int64)
    delta = np.clip((((q0 - p0) << 2) + (p1 - q1) + 4) >> 3, -tc, tc)
    np0 = np.where(filt, clip255(p0 + delta), p0)
    nq0 = np.where(filt, clip255(q0 - delta), q0)
    np1, nq1 = p1, q1
    if not chroma:
        dp1 = np.clip((p2 + ((p0 + q0 + 1) >> 1) - 2 * p1) >> 1, -tc0, tc0)
        dq1 = np.clip((q2 + ((p0 + q0 + 1) >> 1) - 2 * q1) >> 1, -tc0, tc0)
        np1 = np.where(filt & ap, p1 + dp1, p1)
        nq1 = np.where(filt & aq, q1 + dq1, q1)
    return p2, np1, np0, nq0, nq1, q2


def _edge_qp(fr: _Frame, mby: int, mbx: int, nby: int, nbx: int,
             chroma_off: int, chroma: bool) -> int:
    qa = int(fr.mb_qp[nby, nbx])
    qb = int(fr.mb_qp[mby, mbx])
    if chroma:
        qa, qb = _chroma_qp(qa, chroma_off), _chroma_qp(qb, chroma_off)
    return (qa + qb + 1) >> 1


def _deblock_edge(plane, x0, y0, n, vertical, bs, qp, a_off, b_off, chroma):
    """Filter one edge of ``n`` lines at (x0, y0) in ``plane`` with
    boundary strength ``bs`` (1..4)."""
    ia = max(0, min(51, qp + a_off))
    ib = max(0, min(51, qp + b_off))
    alpha, beta = int(_ALPHA[ia]), int(_BETA[ib])
    if alpha == 0 or beta == 0:
        return
    bs4 = bs == 4
    tc0 = int(_TC0[bs - 1][ia]) if not bs4 else 0
    if vertical:
        cols = [plane[y0:y0 + n, x0 + k] for k in (-4, -3, -2, -1, 0, 1, 2, 3)]
    else:
        cols = [plane[y0 + k, x0:x0 + n] for k in (-4, -3, -2, -1, 0, 1, 2, 3)]
    p3, p2, p1, p0, q0, q1, q2, q3 = [c.astype(np.int64) for c in cols]
    np2, np1, np0, nq0, nq1, nq2 = _filter_lines(
        p3, p2, p1, p0, q0, q1, q2, q3, bs4, alpha, beta, tc0, chroma)
    outs = (np2, np1, np0, nq0, nq1, nq2)
    offs = (-3, -2, -1, 0, 1, 2)
    for off, arr in zip(offs, outs):
        if vertical:
            plane[y0:y0 + n, x0 + off] = arr
        else:
            plane[y0 + off, x0:x0 + n] = arr


def _mv_far(a, b) -> bool:
    """True when two quarter-pel MVs differ by >= 1 luma sample in any
    component (§8.7.2.1 motion condition)."""
    return abs(int(a[0]) - int(b[0])) >= 4 or abs(int(a[1]) - int(b[1])) >= 4


def _bs_seg(fr: _Frame, pby: int, pbx: int, qby: int, qbx: int,
            mb_edge: bool) -> int:
    """§8.7.2.1 boundary strength between 4x4 luma blocks p and q (frame
    pictures).  A block with both list refi < 0 is intra-coded (I paths
    never touch the grids, so all-intra reduces to the classic 4/3).
    Inter blocks compare as (picture, mv) sets: different pictures or a
    different prediction count → 1; same single picture → the quarter-pel
    distance test; same two pictures → pair by picture, and when BOTH
    lists hold the SAME picture bS is 1 only if both pairings fail."""
    p_preds = []
    if fr.refi[pby, pbx] >= 0:
        p_preds.append((int(fr.pid0[pby, pbx]), fr.mv[pby, pbx]))
    if fr.refi1[pby, pbx] >= 0:
        p_preds.append((int(fr.pid1[pby, pbx]), fr.mv1[pby, pbx]))
    q_preds = []
    if fr.refi[qby, qbx] >= 0:
        q_preds.append((int(fr.pid0[qby, qbx]), fr.mv[qby, qbx]))
    if fr.refi1[qby, qbx] >= 0:
        q_preds.append((int(fr.pid1[qby, qbx]), fr.mv1[qby, qbx]))
    if not p_preds or not q_preds:
        return 4 if mb_edge else 3
    if fr.tcY[pby, pbx] > 0 or fr.tcY[qby, qbx] > 0:
        return 2
    if len(p_preds) != len(q_preds) \
            or sorted(p for p, _ in p_preds) != sorted(q for q, _ in q_preds):
        return 1
    if len(p_preds) == 1:
        return 1 if _mv_far(p_preds[0][1], q_preds[0][1]) else 0
    (pa, mpa), (pb, mpb) = p_preds
    (qa, mqa), (qb, mqb) = q_preds
    if pa != pb:  # two distinct pictures: pair by picture identity
        if qa != pa:
            mqa, mqb = mqb, mqa
        return 1 if (_mv_far(mpa, mqa) or _mv_far(mpb, mqb)) else 0
    # both predictions from ONE picture: either pairing may satisfy
    straight = not (_mv_far(mpa, mqa) or _mv_far(mpb, mqb))
    crossed = not (_mv_far(mpa, mqb) or _mv_far(mpb, mqa))
    return 0 if (straight or crossed) else 1


def _run_edge(plane, x0, y0, bs_list, vertical, qp, a_off, b_off, chroma,
              seg):
    """Filter one MB-width edge whose 4 segments carry per-segment bS;
    contiguous equal-bS runs collapse into one vectorized call (``seg``
    lines per segment: 4 luma, 2 chroma)."""
    i = 0
    while i < 4:
        j = i
        while j < 4 and bs_list[j] == bs_list[i]:
            j += 1
        bs = bs_list[i]
        if bs:
            if vertical:
                _deblock_edge(plane, x0, y0 + seg * i, seg * (j - i), True,
                              bs, qp, a_off, b_off, chroma)
            else:
                _deblock_edge(plane, x0 + seg * i, y0, seg * (j - i), False,
                              bs, qp, a_off, b_off, chroma)
        i = j


def deblock_picture(fr: _Frame, pps: dict) -> None:
    """§8.7 over a decoded picture (intra and/or inter MBs).  idc per
    slice: 0 = filter, 1 = off, 2 = filter but never across slice
    boundaries.  Chroma edges reuse the corresponding luma bS (4:2:0)."""
    coff = pps["chroma_qp_index_offset"]
    for mby in range(fr.h_mbs):
        for mbx in range(fr.w_mbs):
            sl = int(fr.slice_no[mby, mbx])
            idc, a_off, b_off = fr.deblock.get(sl, (1, 0, 0))
            if idc == 1:
                continue
            px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
            bx0, by0 = 4 * mbx, 4 * mby
            # vertical edges, left -> right
            if mbx > 0 and not (idc == 2 and int(fr.slice_no[mby, mbx - 1]) != sl):
                bs = [_bs_seg(fr, by0 + i, bx0 - 1, by0 + i, bx0, True)
                      for i in range(4)]
                qp = _edge_qp(fr, mby, mbx, mby, mbx - 1, coff, False)
                _run_edge(fr.Y, px, py, bs, True, qp, a_off, b_off, False, 4)
                qpc = _edge_qp(fr, mby, mbx, mby, mbx - 1, coff, True)
                _run_edge(fr.Cb, cx, cy, bs, True, qpc, a_off, b_off, True, 2)
                _run_edge(fr.Cr, cx, cy, bs, True, qpc, a_off, b_off, True, 2)
            qp_in = int(fr.mb_qp[mby, mbx])
            qpc_in = _chroma_qp(qp_in, coff)
            # 8x8-transform MBs have no 4x4 transform edges at 4/12 (§8.7)
            inner = (8,) if fr.t8[mby, mbx] else (4, 8, 12)
            for k in inner:
                bc = bx0 + k // 4
                bs = [_bs_seg(fr, by0 + i, bc - 1, by0 + i, bc, False)
                      for i in range(4)]
                _run_edge(fr.Y, px + k, py, bs, True, qp_in,
                          a_off, b_off, False, 4)
                if k == 8:
                    _run_edge(fr.Cb, cx + 4, cy, bs, True, qpc_in,
                              a_off, b_off, True, 2)
                    _run_edge(fr.Cr, cx + 4, cy, bs, True, qpc_in,
                              a_off, b_off, True, 2)
            # horizontal edges, top -> bottom
            if mby > 0 and not (idc == 2 and int(fr.slice_no[mby - 1, mbx]) != sl):
                bs = [_bs_seg(fr, by0 - 1, bx0 + i, by0, bx0 + i, True)
                      for i in range(4)]
                qp = _edge_qp(fr, mby, mbx, mby - 1, mbx, coff, False)
                _run_edge(fr.Y, px, py, bs, False, qp, a_off, b_off, False, 4)
                qpc = _edge_qp(fr, mby, mbx, mby - 1, mbx, coff, True)
                _run_edge(fr.Cb, cx, cy, bs, False, qpc, a_off, b_off, True, 2)
                _run_edge(fr.Cr, cx, cy, bs, False, qpc, a_off, b_off, True, 2)
            for k in inner:
                brow = by0 + k // 4
                bs = [_bs_seg(fr, brow - 1, bx0 + i, brow, bx0 + i, False)
                      for i in range(4)]
                _run_edge(fr.Y, px, py + k, bs, False, qp_in,
                          a_off, b_off, False, 4)
                if k == 8:
                    _run_edge(fr.Cb, cx, cy + 4, bs, False, qpc_in,
                              a_off, b_off, True, 2)
                    _run_edge(fr.Cr, cx, cy + 4, bs, False, qpc_in,
                              a_off, b_off, True, 2)


# ---------------------------------------------------------------------------
# inter prediction (§8.4) + P-slice decode (§7.3.5) — CAVLC entropy,
# frame pictures, list-0 only.  Scope, stated plainly:
#   - P slices with P_L0_16x16 / 16x8 / 8x16 / P_8x8(ref0) partitions,
#     P_Skip, intra MBs inside P slices, multiple short-term references
#     (default list order = most recent first; no reordering, no MMCO,
#     no long-term), quarter-pel luma (§8.4.2.2.1 6-tap) and eighth-pel
#     bilinear chroma MC, unrestricted MVs via edge padding, and
#     explicit weighted prediction (§7.3.3.2 pred_weight_table +
#     §8.4.2.3.2 — fades).
#   - CAVLC B slices live in their own section further down
#     (bi-prediction + spatial direct; see the B header comment).
#   - NOT here (raise into the documented PyAV seam): SP/SI slices,
#     CABAC-coded P/B slices, ref-list modification, adaptive marking,
#     8x8 transform on inter MBs, interlace.
# Verification stance is the same as CAVLC-I: the fixture encoder drives
# the decoder's own parse+recon body per MB, plus full-stream decode-back
# asserts and analytic cases (static scene ⇒ all-skip identity; integer
# translation ⇒ exact shift; half-pel on a linear ramp ⇒ exact values,
# since the symmetric 6-tap reproduces affine signals).
# ---------------------------------------------------------------------------

_MV0 = np.zeros(2, dtype=np.int32)


class _RefPic:
    """One decoded reference picture, edge-padded for unrestricted MVs
    (§8.4.2.2: samples addressed outside the picture clamp to the edge).
    PAD bounds the supported MV excursion beyond the picture; the MC
    kernels raise past it rather than corrupt.

    ``serial`` is a process-global identity used by the deblocker's
    §8.7.2.1 picture comparison; ``poc`` orders B reference lists
    (§8.2.4.2.3).  ``attach_motion`` stores the picture's own decoded
    motion grids, needed as the CO-LOCATED source of the B spatial-direct
    colZeroFlag (§8.4.1.2.2)."""

    PAD = 32  # full luma pels (chroma planes use PAD // 2)
    _next_serial = 0

    def __init__(self, Y, Cb, Cr, poc: int = 0):
        p = self.PAD
        self.Y = np.pad(np.asarray(Y, dtype=np.int64), p, mode="edge")
        self.Cb = np.pad(np.asarray(Cb, dtype=np.int64), p // 2, mode="edge")
        self.Cr = np.pad(np.asarray(Cr, dtype=np.int64), p // 2, mode="edge")
        self.poc = int(poc)
        self.mv0 = self.refi0 = self.mv1g = self.refi1g = None
        self.pid0g = self.pid1g = None
        # serial of this picture's own RefPicList0[0] (temporal direct's
        # intra-co-located fallback refers to colPic's list-0 head)
        self.l0s0 = None
        _RefPic._next_serial += 1
        self.serial = _RefPic._next_serial

    def attach_motion(self, fr: "_Frame",
                      l0s0: "int | None" = None) -> None:
        self.mv0 = fr.mv.copy()
        self.refi0 = fr.refi.copy()
        self.mv1g = fr.mv1.copy()
        self.refi1g = fr.refi1.copy()
        self.pid0g = fr.pid0.copy()
        self.pid1g = fr.pid1.copy()
        self.l0s0 = l0s0


def _h6u(R: np.ndarray, w: int) -> np.ndarray:
    """Unrounded horizontal 6-tap [1,-5,20,20,-5,1] (×32): w columns out
    of w+5 in."""
    return (R[:, 0:w] - 5 * R[:, 1:w + 1] + 20 * R[:, 2:w + 2]
            + 20 * R[:, 3:w + 3] - 5 * R[:, 4:w + 4] + R[:, 5:w + 5])


def _v6u(R: np.ndarray, h: int) -> np.ndarray:
    return (R[0:h, :] - 5 * R[1:h + 1, :] + 20 * R[2:h + 2, :]
            + 20 * R[3:h + 3, :] - 5 * R[4:h + 4, :] + R[5:h + 5, :])


def _mc_luma(ref: np.ndarray, x0: int, y0: int, w: int, h: int,
             mvx: int, mvy: int) -> np.ndarray:
    """§8.4.2.2.1 quarter-pel luma MC of a w×h block whose full-pel anchor
    in the PADDED reference plane is (x0, y0)."""
    xi = x0 + (mvx >> 2)
    yi = y0 + (mvy >> 2)
    fx, fy = mvx & 3, mvy & 3
    if yi - 2 < 0 or xi - 2 < 0 or yi + h + 3 > ref.shape[0] \
            or xi + w + 3 > ref.shape[1]:
        raise ValueError("motion vector outside the supported padded range")
    if fx == 0 and fy == 0:
        return ref[yi:yi + h, xi:xi + w]
    R = ref[yi - 2:yi + h + 3, xi - 2:xi + w + 3]  # (h+5, w+5)
    G = R[2:2 + h, 2:2 + w]
    if fy == 0:  # a / b / c row
        b = np.clip((_h6u(R[2:2 + h, :], w) + 16) >> 5, 0, 255)
        if fx == 1:
            return (G + b + 1) >> 1
        if fx == 2:
            return b
        return (b + R[2:2 + h, 3:3 + w] + 1) >> 1
    if fx == 0:  # d / h / n column
        hh = np.clip((_v6u(R[:, 2:2 + w], h) + 16) >> 5, 0, 255)
        if fy == 1:
            return (G + hh + 1) >> 1
        if fy == 2:
            return hh
        return (hh + R[3:3 + h, 2:2 + w] + 1) >> 1
    # both components fractional: e f g / i j k / p q r
    bq = hq = j = None
    if fy in (1, 3):  # b (row 2) or s (row 3)
        row = 2 if fy == 1 else 3
        bq = np.clip((_h6u(R[row:row + h, :], w) + 16) >> 5, 0, 255)
    if fx in (1, 3):  # h (col 2) or m (col 3)
        col = 2 if fx == 1 else 3
        hq = np.clip((_v6u(R[:, col:col + w], h) + 16) >> 5, 0, 255)
    if fx == 2 or fy == 2:  # j from UNROUNDED horizontal intermediates
        j = np.clip((_v6u(_h6u(R, w), h) + 512) >> 10, 0, 255)
    if fx == 2 and fy == 2:
        return j
    if fx == 2:
        return (j + bq + 1) >> 1  # f (fy=1) / q (fy=3)
    if fy == 2:
        return (j + hq + 1) >> 1  # i (fx=1) / k (fx=3)
    return (bq + hq + 1) >> 1     # e / g / p / r


def _mc_chroma(ref: np.ndarray, x0: int, y0: int, w: int, h: int,
               mvx: int, mvy: int) -> np.ndarray:
    """§8.4.2.2.2 eighth-pel bilinear chroma MC (4:2:0: the luma
    quarter-pel MV addresses the half-resolution grid at 1/8 precision)."""
    xi = x0 + (mvx >> 3)
    yi = y0 + (mvy >> 3)
    fx, fy = mvx & 7, mvy & 7
    if yi < 0 or xi < 0 or yi + h + 1 > ref.shape[0] \
            or xi + w + 1 > ref.shape[1]:
        raise ValueError("motion vector outside the supported padded range")
    A = ref[yi:yi + h, xi:xi + w]
    B = ref[yi:yi + h, xi + 1:xi + w + 1]
    C = ref[yi + 1:yi + h + 1, xi:xi + w]
    D = ref[yi + 1:yi + h + 1, xi + 1:xi + w + 1]
    return ((8 - fx) * (8 - fy) * A + fx * (8 - fy) * B
            + (8 - fx) * fy * C + fx * fy * D + 32) >> 6


def _pred_inter_block(refpic: _RefPic, bx: int, by: int, w4: int, h4: int,
                      mv) -> tuple:
    """(Y, Cb, Cr) prediction for a partition at 4x4-block coords (bx, by)
    spanning w4×h4 blocks, all from one L0 reference."""
    p = _RefPic.PAD
    y = _mc_luma(refpic.Y, 4 * bx + p, 4 * by + p, 4 * w4, 4 * h4,
                 int(mv[0]), int(mv[1]))
    cb = _mc_chroma(refpic.Cb, 2 * bx + p // 2, 2 * by + p // 2,
                    2 * w4, 2 * h4, int(mv[0]), int(mv[1]))
    cr = _mc_chroma(refpic.Cr, 2 * bx + p // 2, 2 * by + p // 2,
                    2 * w4, 2 * h4, int(mv[0]), int(mv[1]))
    return y, cb, cr


def _nbr(fr: _Frame, by: int, bx: int, lst: int = 0):
    """(mb_avail, refIdxN, mvN) of 4x4 block (by, bx) per §8.4.1.3.2 for
    reference list ``lst``: unavailable (outside picture, other slice, or
    not yet decoded in PARSE order) → (False, -1, 0);
    available-but-intra-or-other-list → (True, -1, 0)."""
    refi = fr.refi if lst == 0 else fr.refi1
    H, W = refi.shape
    if by < 0 or bx < 0 or by >= H or bx >= W:
        return False, -1, _MV0
    if not fr.same_slice(by >> 2, bx >> 2):
        return False, -1, _MV0
    if not (fr.mvdec[by, bx] or fr.mb_done[by >> 2, bx >> 2]):
        return False, -1, _MV0
    r = int(refi[by, bx])
    if r < 0:
        return True, -1, _MV0
    return True, r, (fr.mv if lst == 0 else fr.mv1)[by, bx]


def _mv_pred(fr: _Frame, bx: int, by: int, w4: int, h4: int, refidx: int,
             kind: "str | None" = None, lst: int = 0) -> np.ndarray:
    """§8.4.1.3 luma MV predictor for the partition whose top-left 4x4
    block is (bx, by), spanning w4×h4 blocks, in list ``lst``.  ``kind``
    selects the 16x8/8x16 directional shortcuts (MB partitions only)."""
    aA, rA, mA = _nbr(fr, by, bx - 1, lst)
    aB, rB, mB = _nbr(fr, by - 1, bx, lst)
    aC, rC, mC = _nbr(fr, by - 1, bx + w4, lst)
    if not aC:
        aC, rC, mC = _nbr(fr, by - 1, bx - 1, lst)  # D subst (§6.4.11.7)
    if kind == "16x8_top" and rB == refidx:
        return np.array(mB, dtype=np.int32)
    if kind == "16x8_bot" and rA == refidx:
        return np.array(mA, dtype=np.int32)
    if kind == "8x16_left" and rA == refidx:
        return np.array(mA, dtype=np.int32)
    if kind == "8x16_right" and rC == refidx:
        return np.array(mC, dtype=np.int32)
    matches = [m for r, m in ((rA, mA), (rB, mB), (rC, mC)) if r == refidx]
    if len(matches) == 1:
        return np.array(matches[0], dtype=np.int32)
    if not aB and not aC and aA:
        return np.array(mA, dtype=np.int32)
    return np.array([sorted((int(mA[0]), int(mB[0]), int(mC[0])))[1],
                     sorted((int(mA[1]), int(mB[1]), int(mC[1])))[1]],
                    dtype=np.int32)


def _skip_mv(fr: _Frame, bx: int, by: int) -> np.ndarray:
    """§8.4.1.1 P_Skip luma MV: zero when a 16x16 edge condition holds,
    else the 16x16 predictor with refIdx 0."""
    aA, rA, mA = _nbr(fr, by, bx - 1)
    aB, rB, mB = _nbr(fr, by - 1, bx)
    if (not aA) or (not aB) \
            or (rA == 0 and mA[0] == 0 and mA[1] == 0) \
            or (rB == 0 and mB[0] == 0 and mB[1] == 0):
        return np.zeros(2, dtype=np.int32)
    return _mv_pred(fr, bx, by, 4, 4, 0)


def _set_part(fr: _Frame, bx: int, by: int, w4: int, h4: int,
              refidx: int, mv, pid: int = -1, lst: int = 0) -> None:
    if lst == 0:
        fr.mv[by:by + h4, bx:bx + w4] = mv
        fr.refi[by:by + h4, bx:bx + w4] = refidx
        fr.pid0[by:by + h4, bx:bx + w4] = pid
    else:
        fr.mv1[by:by + h4, bx:bx + w4] = mv
        fr.refi1[by:by + h4, bx:bx + w4] = refidx
        fr.pid1[by:by + h4, bx:bx + w4] = pid
    fr.mvdec[by:by + h4, bx:bx + w4] = True


def _te(br: BitReader, cmax: int) -> int:
    """Truncated exp-golomb (te(v), §9.1.1): a single inverted bit when
    the value range is [0, 1], plain ue(v) otherwise."""
    if cmax == 1:
        return 1 - br.u(1)
    return br.ue()


# Table 7-13 P partitions / Table 7-17 sub-partitions, in 4x4-block units
# (offset_x, offset_y, width, height[, mvp kind])
_P_PARTS = {
    0: ((0, 0, 4, 4, None),),
    1: ((0, 0, 4, 2, "16x8_top"), (0, 2, 4, 2, "16x8_bot")),
    2: ((0, 0, 2, 4, "8x16_left"), (2, 0, 2, 4, "8x16_right")),
}
_SUB_PARTS = {
    0: ((0, 0, 2, 2),),
    1: ((0, 0, 2, 1), (0, 1, 2, 1)),
    2: ((0, 0, 1, 2), (1, 0, 1, 2)),
    3: ((0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)),
}


def _apply_wp(pred: np.ndarray, w: int, o: int, den: int) -> np.ndarray:
    """§8.4.2.3.2 explicit weighted sample prediction (single list)."""
    if den:
        return np.clip(((pred * w + (1 << (den - 1))) >> den) + o, 0, 255)
    return np.clip(pred * w + o, 0, 255)


def _apply_wp_bi(p0: np.ndarray, p1: np.ndarray, w0: int, o0: int,
                 w1: int, o1: int, den: int) -> np.ndarray:
    """§8.4.2.3.2 explicit weighted BI prediction (logWD = den)."""
    return np.clip(((p0 * w0 + p1 * w1 + (1 << den)) >> (den + 1))
                   + ((o0 + o1 + 1) >> 1), 0, 255)


def _implicit_weights(refs0: list, refs1: list, cur_poc: int) -> dict:
    """§8.4.2.3.1 IMPLICIT bi-prediction weights per (refIdxL0, refIdxL1)
    pair: w1 = DistScaleFactor >> 2, w0 = 64 - w1 at logWD 5, falling
    back to 32/32 when the anchors share a POC or the scale leaves
    [-64, 128] (all references here are short-term)."""
    out = {}
    for i0, r0 in enumerate(refs0):
        for i1, r1 in enumerate(refs1):
            td = max(-128, min(127, r1.poc - r0.poc))
            tb = max(-128, min(127, cur_poc - r0.poc))
            if td == 0:
                out[(i0, i1)] = (32, 32)
                continue
            tx = _tdiv(16384 + abs(td) // 2, td)
            dsf = max(-1024, min(1023, (tb * tx + 32) >> 6))
            w1 = dsf >> 2
            if w1 < -64 or w1 > 128:
                out[(i0, i1)] = (32, 32)
            else:
                out[(i0, i1)] = (64 - w1, w1)
    return out


def _mc_mb(fr: _Frame, refs: list, mbx: int, mby: int,
           wp: "list | None" = None, refs1: "list | None" = None,
           wp1: "list | None" = None, wimp: "dict | None" = None):
    """Motion-compensate one inter MB from its per-4x4 mv/refi grids
    (both lists when ``refs1`` is given — B slices; default BI prediction
    is the §8.4.2.3.1 rounding average of the two clipped single-list
    predictions).  Per-4x4 MC equals per-partition MC exactly —
    interpolation is per-sample separable — so partition shapes need no
    special casing.  ``wp``/``wp1``: per-ref explicit weights
    (denY, wY, oY, denC, wCb, oCb, wCr, oCr) or None (default pred).
    ``wimp``: the IMPLICIT weight map from _implicit_weights — applies
    to BI blocks only (single-list implicit prediction is default)."""
    bx0, by0 = 4 * mbx, 4 * mby
    predY = np.empty((16, 16), dtype=np.int64)
    predCb = np.empty((8, 8), dtype=np.int64)
    predCr = np.empty((8, 8), dtype=np.int64)
    for yb in range(4):
        for xb in range(4):
            r0 = int(fr.refi[by0 + yb, bx0 + xb])
            r1 = int(fr.refi1[by0 + yb, bx0 + xb]) if refs1 is not None \
                else -1
            p0 = p1 = None
            if r0 >= 0:
                p0 = _pred_inter_block(refs[r0], bx0 + xb, by0 + yb, 1, 1,
                                       fr.mv[by0 + yb, bx0 + xb])
            if r1 >= 0:
                p1 = _pred_inter_block(refs1[r1], bx0 + xb, by0 + yb, 1, 1,
                                       fr.mv1[by0 + yb, bx0 + xb])
            if p0 is not None and p1 is not None:
                if wimp is not None:
                    w0, w1 = wimp[(r0, r1)]
                    pY = np.clip((p0[0] * w0 + p1[0] * w1 + 32) >> 6,
                                 0, 255)
                    pCb = np.clip((p0[1] * w0 + p1[1] * w1 + 32) >> 6,
                                  0, 255)
                    pCr = np.clip((p0[2] * w0 + p1[2] * w1 + 32) >> 6,
                                  0, 255)
                elif wp is not None or wp1 is not None:
                    e0 = wp[r0] if wp is not None else (0, 1, 0, 0, 1, 0, 1, 0)
                    e1 = wp1[r1] if wp1 is not None else (0, 1, 0, 0, 1, 0, 1, 0)
                    pY = _apply_wp_bi(p0[0], p1[0], e0[1], e0[2],
                                      e1[1], e1[2], e0[0])
                    pCb = _apply_wp_bi(p0[1], p1[1], e0[4], e0[5],
                                       e1[4], e1[5], e0[3])
                    pCr = _apply_wp_bi(p0[2], p1[2], e0[6], e0[7],
                                       e1[6], e1[7], e0[3])
                else:
                    pY = (p0[0] + p1[0] + 1) >> 1
                    pCb = (p0[1] + p1[1] + 1) >> 1
                    pCr = (p0[2] + p1[2] + 1) >> 1
            else:
                pY, pCb, pCr = p0 if p0 is not None else p1
                wpl = wp if p0 is not None else wp1
                if wpl is not None:
                    dY, wYv, oY, dC, wCb, oCb, wCr, oCr = \
                        wpl[r0 if p0 is not None else r1]
                    pY = _apply_wp(pY, wYv, oY, dY)
                    pCb = _apply_wp(pCb, wCb, oCb, dC)
                    pCr = _apply_wp(pCr, wCr, oCr, dC)
            predY[4 * yb:4 * yb + 4, 4 * xb:4 * xb + 4] = pY
            predCb[2 * yb:2 * yb + 2, 2 * xb:2 * xb + 2] = pCb
            predCr[2 * yb:2 * yb + 2, 2 * xb:2 * xb + 2] = pCr
    return predY, predCb, predCr


def _recon_inter(fr: _Frame, mbx: int, mby: int, predY, predCb, predCr,
                 luma_coeffs: list, chroma, qp: int, coff: int) -> None:
    px, py = 16 * mbx, 16 * mby
    bx0, by0 = 4 * mbx, 4 * mby
    for i in range(16):
        x, y = _BLK_XY[i]
        res = itransform4x4(dequant4x4(np.asarray(luma_coeffs[i]), qp))
        fr.Y[py + y:py + y + 4, px + x:px + x + 4] = np.clip(
            predY[y:y + 4, x:x + 4] + res, 0, 255)
    _recon_chroma_resid(fr, mbx, mby, predCb, predCr, chroma, qp, coff)
    fr.recon[by0:by0 + 4, bx0:bx0 + 4] = True
    fr.i4[by0:by0 + 4, bx0:bx0 + 4] = 2  # inter neighbor ⇒ DC (§8.3.1.1)
    fr.mb_done[mby, mbx] = True
    fr.mb_qp[mby, mbx] = qp


def _recon_pskip(fr: _Frame, refs: list, mbx: int, mby: int,
                 qp: int, wp: "list | None" = None) -> None:
    """Reconstruct one P_Skip MB (§8.4.1.1 MV, refIdx 0, no residual;
    weighted prediction applies to skip MBs too) — shared verbatim by
    the decoder loop and the fixture encoder."""
    fr.slice_no[mby, mbx] = fr.cur_slice
    bx0, by0 = 4 * mbx, 4 * mby
    mv = _skip_mv(fr, bx0, by0)
    _set_part(fr, bx0, by0, 4, 4, 0, mv, pid=refs[0].serial)
    pY, pCb, pCr = _mc_mb(fr, refs, mbx, mby, wp)
    px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
    fr.Y[py:py + 16, px:px + 16] = pY
    fr.Cb[cy:cy + 8, cx:cx + 8] = pCb
    fr.Cr[cy:cy + 8, cx:cx + 8] = pCr
    fr.tcY[by0:by0 + 4, bx0:bx0 + 4] = 0
    fr.tcCb[2 * mby:2 * mby + 2, 2 * mbx:2 * mbx + 2] = 0
    fr.tcCr[2 * mby:2 * mby + 2, 2 * mbx:2 * mbx + 2] = 0
    fr.i4[by0:by0 + 4, bx0:bx0 + 4] = 2
    fr.recon[by0:by0 + 4, bx0:bx0 + 4] = True
    fr.mb_done[mby, mbx] = True
    fr.mb_qp[mby, mbx] = qp


def _decode_mb_p(br: BitReader, fr: _Frame, mbx: int, mby: int, qp: int,
                 coff: int, refs: list, nref: int,
                 t8_allowed: bool = False,
                 wp: "list | None" = None) -> int:
    """Parse + reconstruct one non-skip P-slice macroblock (§7.3.5,
    CAVLC).  Returns the updated QP."""
    mb_type = br.ue()
    if mb_type >= 5:  # intra MB inside a P slice (Table 7-13 offset)
        return _decode_mb(br, fr, mbx, mby, qp, coff,
                          t8_allowed=t8_allowed, mb_type=mb_type - 5)
    if t8_allowed:
        raise ValueError("8x8 transform on inter MBs not supported: "
                         "needs the PyAV seam")
    fr.slice_no[mby, mbx] = fr.cur_slice
    bx0, by0 = 4 * mbx, 4 * mby
    if mb_type <= 2:
        parts = _P_PARTS[mb_type]
        ridx = [(_te(br, nref - 1) if nref > 1 else 0) for _ in parts]
        for (ox, oy, w4, h4, kind), r in zip(parts, ridx):
            if r >= len(refs):
                raise ValueError("ref_idx beyond DPB")
            mvd = np.array([br.se(), br.se()], dtype=np.int32)
            mvp = _mv_pred(fr, bx0 + ox, by0 + oy, w4, h4, r, kind)
            _set_part(fr, bx0 + ox, by0 + oy, w4, h4, r, mvp + mvd,
                      pid=refs[r].serial)
    elif mb_type in (3, 4):  # P_8x8 / P_8x8ref0
        subs = [br.ue() for _ in range(4)]
        if any(s_ > 3 for s_ in subs):
            raise ValueError(f"bad sub_mb_type {subs}")
        ridx = [(_te(br, nref - 1) if (mb_type == 3 and nref > 1) else 0)
                for _ in range(4)]
        if any(r >= len(refs) for r in ridx):
            raise ValueError("ref_idx beyond DPB")
        for b8 in range(4):
            obx, oby = 2 * (b8 & 1), 2 * (b8 >> 1)
            for ox, oy, w4, h4 in _SUB_PARTS[subs[b8]]:
                mvd = np.array([br.se(), br.se()], dtype=np.int32)
                mvp = _mv_pred(fr, bx0 + obx + ox, by0 + oby + oy,
                               w4, h4, ridx[b8])
                _set_part(fr, bx0 + obx + ox, by0 + oby + oy,
                          w4, h4, ridx[b8], mvp + mvd,
                          pid=refs[ridx[b8]].serial)
    else:
        raise ValueError(f"bad P-slice mb_type {mb_type}")
    predY, predCb, predCr = _mc_mb(fr, refs, mbx, mby, wp)
    cbp = _map_cbp(CBP_INTER, br.ue())
    cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
    if cbp:
        qp = (qp + br.se() + 52) % 52
    luma_coeffs = _parse_luma_residuals(br, fr, bx0, by0, cbp_luma)
    chroma = _parse_chroma_residuals(br, fr, 2 * mbx, 2 * mby, cbp_chroma)
    _recon_inter(fr, mbx, mby, predY, predCb, predCr, luma_coeffs, chroma,
                 qp, coff)
    return qp


# ---------------------------------------------------------------------------
# B slices (CAVLC): bi-prediction + SPATIAL direct (§8.4.1.2.2).
#
# Scope mirrors the P layer: frame pictures, CAVLC entropy, default or
# EXPLICIT weighted prediction (weighted_bipred_idc 0/1; implicit — idc 2
# — raises into the PyAV seam, as do temporal direct and CABAC B).  The
# reference lists are built by the caller per §8.2.4.2.3 (POC order);
# spatial direct includes the full colZeroFlag refinement against
# RefPicList1[0]'s stored motion (all references here are short-term).
# ---------------------------------------------------------------------------

# Table 7-14 (mb_type in B slices), 16x16 and two-partition shapes:
# value 0 = B_Direct_16x16, 1..3 = 16x16 L0/L1/BI, 4..21 = 16x8/8x16
# pairs over the combo sequence below, 22 = B_8x8, >= 23 intra.
_B_MODES16 = {1: "L0", 2: "L1", 3: "BI"}
_B_COMBO = [("L0", "L0"), ("L1", "L1"), ("L0", "L1"), ("L1", "L0"),
            ("L0", "BI"), ("L1", "BI"), ("BI", "L0"), ("BI", "L1"),
            ("BI", "BI")]
# Table 7-18 (sub_mb_type in B slices): value -> (pred mode, _SUB_PARTS
# shape key); 0 = B_Direct_8x8
_B_SUB = {1: ("L0", 0), 2: ("L1", 0), 3: ("BI", 0),
          4: ("L0", 1), 5: ("L0", 2), 6: ("L1", 1), 7: ("L1", 2),
          8: ("BI", 1), 9: ("BI", 2),
          10: ("L0", 3), 11: ("L1", 3), 12: ("BI", 3)}


def _col_zero(col: "_RefPic | None", gy: int, gx: int) -> bool:
    """§8.4.1.2.2 colZeroFlag of the co-located 4x4 block (gy, gx) in
    RefPicList1[0]: its refIdxCol (L0, else L1) is 0 and |mvCol| <= 1
    quarter-pel in both components.  A co-located intra block — or a
    reference with no stored motion (an I picture) — gives False."""
    if col is None or col.refi0 is None:
        return False
    rc = int(col.refi0[gy, gx])
    if rc >= 0:
        mvc = col.mv0[gy, gx]
    elif int(col.refi1g[gy, gx]) >= 0:
        rc = int(col.refi1g[gy, gx])
        mvc = col.mv1g[gy, gx]
    else:
        return False
    return rc == 0 and abs(int(mvc[0])) <= 1 and abs(int(mvc[1])) <= 1


def _tdiv(a: int, b: int) -> int:
    """C-style integer division truncating toward zero (the spec's '/')."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _temporal_block(col: "_RefPic", refs0: list, gy: int, gx: int,
                    cur_poc: int):
    """§8.4.1.2.3 temporal direct for one co-located 4x4: (refIdxL0,
    mvL0, mvL1).  refIdxL0 maps the co-located block's reference PICTURE
    into the current list 0 (lowest index); mvL0 scales mvCol by the POC
    distance ratio, mvL1 = mvL0 - mvCol.  An intra (or motion-less)
    co-located block falls back to colPic's own list-0 head with zero
    mvCol, per the spec's refIdxCol = 0 rule."""
    mvCol = _MV0
    pid = -1
    if col.refi0 is not None:
        if int(col.refi0[gy, gx]) >= 0:
            mvCol = col.mv0[gy, gx]
            pid = int(col.pid0g[gy, gx])
        elif int(col.refi1g[gy, gx]) >= 0:
            mvCol = col.mv1g[gy, gx]
            pid = int(col.pid1g[gy, gx])
    if pid < 0:
        pid = col.l0s0 if col.l0s0 is not None else -1
        mvCol = _MV0
    if pid < 0:
        r0 = 0  # colPic had no list 0 (an intra anchor): zero-mv head
    else:
        r0 = next((i for i, r in enumerate(refs0) if r.serial == pid),
                  None)
        if r0 is None:
            raise ValueError("temporal direct: co-located reference "
                             "picture is not in the current list 0")
    td = max(-128, min(127, col.poc - refs0[r0].poc))
    tb = max(-128, min(127, cur_poc - refs0[r0].poc))
    if td == 0:
        return r0, np.array(mvCol, dtype=np.int32), np.zeros(2, np.int32)
    tx = _tdiv(16384 + abs(td) // 2, td)
    dsf = max(-1024, min(1023, (tb * tx + 32) >> 6))
    mvL0 = np.array([(dsf * int(mvCol[0]) + 128) >> 8,
                     (dsf * int(mvCol[1]) + 128) >> 8], dtype=np.int32)
    return r0, mvL0, mvL0 - np.asarray(mvCol, dtype=np.int32)


def _direct_mb_base(fr: _Frame, mbx: int, mby: int):
    """MB-level part of §8.4.1.2.2: (refIdxL0, refIdxL1, mvpL0, mvpL1,
    zero_pred).  refIdxLX = MinPositive over the 16x16 neighbors A/B/C
    per list; both lists empty -> directZeroPrediction (refIdx 0/0, zero
    MVs).  All neighbors sit OUTSIDE the MB, so the result is stable no
    matter which quadrant asks first."""
    bx0, by0 = 4 * mbx, 4 * mby
    ref = []
    for lst in (0, 1):
        _, rA, _ = _nbr(fr, by0, bx0 - 1, lst)
        _, rB, _ = _nbr(fr, by0 - 1, bx0, lst)
        aC, rC, _ = _nbr(fr, by0 - 1, bx0 + 4, lst)
        if not aC:
            _, rC, _ = _nbr(fr, by0 - 1, bx0 - 1, lst)
        cand = [r for r in (rA, rB, rC) if r >= 0]
        ref.append(min(cand) if cand else -1)
    r0, r1 = ref
    if r0 < 0 and r1 < 0:
        return 0, 0, np.zeros(2, np.int32), np.zeros(2, np.int32), True
    mvp0 = _mv_pred(fr, bx0, by0, 4, 4, r0, lst=0) if r0 >= 0 else None
    mvp1 = _mv_pred(fr, bx0, by0, 4, 4, r1, lst=1) if r1 >= 0 else None
    return r0, r1, mvp0, mvp1, False


def _set_direct(fr: _Frame, refs0: list, refs1: list, mbx: int, mby: int,
                dctx: dict, quads: "tuple | None" = None) -> None:
    """Fill the motion grids of the MB's direct-predicted region (whole
    MB for B_Skip / B_Direct_16x16; the listed 8x8 ``quads`` for
    B_Direct_8x8).  ``dctx``: {'mode': 'spatial' | 'temporal',
    'inference': bool, 'poc': current picture POC}.  With
    direct_8x8_inference each 8x8 takes its OUTER-CORNER co-located 4x4
    (§8.4.1.2.2 colZeroFlag / §8.4.1.2.3 mvCol alike)."""
    temporal = dctx["mode"] == "temporal"
    inference = dctx["inference"]
    col = refs1[0] if refs1 else None
    if not temporal:
        r0, r1, mvp0, mvp1, zero_pred = _direct_mb_base(fr, mbx, mby)
    bx0, by0 = 4 * mbx, 4 * mby
    for q in (quads if quads is not None else (0, 1, 2, 3)):
        qx, qy = 2 * (q & 1), 2 * (q >> 1)
        for sy in range(2):
            for sx in range(2):
                gx, gy = bx0 + qx + sx, by0 + qy + sy
                if inference:
                    cgy = by0 + 3 * (q >> 1)
                    cgx = bx0 + 3 * (q & 1)
                else:
                    cgy, cgx = gy, gx
                if temporal:
                    rt, mv0, mv1 = _temporal_block(col, refs0, cgy, cgx,
                                                   dctx["poc"])
                    _set_part(fr, gx, gy, 1, 1, rt, mv0,
                              pid=refs0[rt].serial, lst=0)
                    _set_part(fr, gx, gy, 1, 1, 0, mv1,
                              pid=refs1[0].serial, lst=1)
                    continue
                czf = _col_zero(col, cgy, cgx)
                if zero_pred:
                    _set_part(fr, gx, gy, 1, 1, 0, _MV0,
                              pid=refs0[0].serial, lst=0)
                    _set_part(fr, gx, gy, 1, 1, 0, _MV0,
                              pid=refs1[0].serial, lst=1)
                    continue
                if r0 >= 0:
                    mv = _MV0 if (r0 == 0 and czf) else mvp0
                    _set_part(fr, gx, gy, 1, 1, r0, mv,
                              pid=refs0[r0].serial, lst=0)
                if r1 >= 0:
                    mv = _MV0 if (r1 == 0 and czf) else mvp1
                    _set_part(fr, gx, gy, 1, 1, r1, mv,
                              pid=refs1[r1].serial, lst=1)


def _recon_bskip(fr: _Frame, refs0: list, refs1: list, mbx: int, mby: int,
                 qp: int, dctx: dict, wp0=None, wp1=None,
                 wimp=None) -> None:
    """Reconstruct one B_Skip MB (direct motion, no residual; explicit
    or implicit weighted prediction applies) — shared verbatim by the
    decoder loop and the fixture encoder."""
    fr.slice_no[mby, mbx] = fr.cur_slice
    bx0, by0 = 4 * mbx, 4 * mby
    _set_direct(fr, refs0, refs1, mbx, mby, dctx)
    pY, pCb, pCr = _mc_mb(fr, refs0, mbx, mby, wp0, refs1=refs1, wp1=wp1,
                          wimp=wimp)
    px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
    fr.Y[py:py + 16, px:px + 16] = pY
    fr.Cb[cy:cy + 8, cx:cx + 8] = pCb
    fr.Cr[cy:cy + 8, cx:cx + 8] = pCr
    fr.tcY[by0:by0 + 4, bx0:bx0 + 4] = 0
    fr.tcCb[2 * mby:2 * mby + 2, 2 * mbx:2 * mbx + 2] = 0
    fr.tcCr[2 * mby:2 * mby + 2, 2 * mbx:2 * mbx + 2] = 0
    fr.i4[by0:by0 + 4, bx0:bx0 + 4] = 2
    fr.recon[by0:by0 + 4, bx0:bx0 + 4] = True
    fr.mb_done[mby, mbx] = True
    fr.mb_qp[mby, mbx] = qp


def _parse_b_motion(br: BitReader, fr: _Frame, mbx: int, mby: int,
                    mb_type: int, refs0: list, refs1: list,
                    nref0: int, nref1: int, dctx: dict) -> None:
    """Parse ref_idx/mvd for one non-direct, non-intra B macroblock in
    §7.3.5.1/.2 field order (all ref_idx_l0, all ref_idx_l1, all mvd_l0,
    all mvd_l1), then derive and assign MVs in partition order (the
    §8.4.1.3.2 parse-order availability chain)."""
    bx0, by0 = 4 * mbx, 4 * mby
    if mb_type <= 3:
        parts = [(0, 0, 4, 4, None, _B_MODES16[mb_type])]
        subs = None
    elif mb_type <= 21:
        k, shape = divmod(mb_type - 4, 2)
        m0, m1 = _B_COMBO[k]
        pl = _P_PARTS[1 + shape]  # 16x8 (shape 0) / 8x16 (shape 1)
        parts = [pl[0] + (m0,), pl[1] + (m1,)]
        subs = None
    else:  # B_8x8
        subs = [br.ue() for _ in range(4)]
        if any(s_ > 12 for s_ in subs):
            raise ValueError(f"bad B sub_mb_type {subs}")
        parts = []
        for b8 in range(4):
            if subs[b8] == 0:  # B_Direct_8x8: no ref/mvd fields
                parts.append((2 * (b8 & 1), 2 * (b8 >> 1), 2, 2, b8,
                              "DIRECT"))
                continue
            mode, shp = _B_SUB[subs[b8]]
            obx, oby = 2 * (b8 & 1), 2 * (b8 >> 1)
            for ox, oy, w4, h4 in _SUB_PARTS[shp]:
                parts.append((obx + ox, oby + oy, w4, h4, b8, mode))
    # --- parse phase (§7.3.5.1 order) ---
    ridx = {}
    for lst, nref in ((0, nref0), (1, nref1)):
        want = "L1" if lst == 0 else "L0"
        done_b8 = set()
        for ox, oy, w4, h4, pk, mode in parts:
            if mode in ("DIRECT", want):
                continue
            if isinstance(pk, int):  # one ref_idx per 8x8 quadrant
                if pk in done_b8:
                    continue
                done_b8.add(pk)
            key = pk if isinstance(pk, int) else (ox, oy)
            ridx[(lst, key)] = _te(br, nref - 1) if nref > 1 else 0
    mvds = {}
    for lst in (0, 1):
        want = "L1" if lst == 0 else "L0"
        for i, (ox, oy, w4, h4, pk, mode) in enumerate(parts):
            if mode in ("DIRECT", want):
                continue
            mvds[(lst, i)] = np.array([br.se(), br.se()], dtype=np.int32)
    # --- derive + assign phase, partition order ---
    for i, (ox, oy, w4, h4, pk, mode) in enumerate(parts):
        if mode == "DIRECT":
            _set_direct(fr, refs0, refs1, mbx, mby, dctx, quads=(pk,))
            continue
        kind_arg = pk if isinstance(pk, str) else None
        key = pk if isinstance(pk, int) else (ox, oy)
        for lst, refs in ((0, refs0), (1, refs1)):
            if mode == ("L1" if lst == 0 else "L0"):
                continue
            r = ridx[(lst, key)]
            if r >= len(refs):
                raise ValueError("ref_idx beyond reference list")
            mvp = _mv_pred(fr, bx0 + ox, by0 + oy, w4, h4, r, kind_arg,
                           lst=lst)
            _set_part(fr, bx0 + ox, by0 + oy, w4, h4, r,
                      mvp + mvds[(lst, i)], pid=refs[r].serial, lst=lst)


def _decode_mb_b(br: BitReader, fr: _Frame, mbx: int, mby: int, qp: int,
                 coff: int, refs0: list, refs1: list, nref0: int,
                 nref1: int, dctx: dict, t8_allowed: bool = False,
                 wp0=None, wp1=None, wimp=None) -> int:
    """Parse + reconstruct one non-skip B-slice macroblock (§7.3.5,
    CAVLC).  Returns the updated QP."""
    mb_type = br.ue()
    if mb_type >= 23:  # intra MB inside a B slice (Table 7-14 offset)
        return _decode_mb(br, fr, mbx, mby, qp, coff,
                          t8_allowed=t8_allowed, mb_type=mb_type - 23)
    if t8_allowed:
        raise ValueError("8x8 transform on inter MBs not supported: "
                         "needs the PyAV seam")
    if mb_type > 22:
        raise ValueError(f"bad B-slice mb_type {mb_type}")
    fr.slice_no[mby, mbx] = fr.cur_slice
    bx0, by0 = 4 * mbx, 4 * mby
    if mb_type == 0:  # B_Direct_16x16 (residual follows)
        _set_direct(fr, refs0, refs1, mbx, mby, dctx)
    else:
        _parse_b_motion(br, fr, mbx, mby, mb_type, refs0, refs1,
                        nref0, nref1, dctx)
    predY, predCb, predCr = _mc_mb(fr, refs0, mbx, mby, wp0,
                                   refs1=refs1, wp1=wp1, wimp=wimp)
    cbp = _map_cbp(CBP_INTER, br.ue())
    cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
    if cbp:
        qp = (qp + br.se() + 52) % 52
    luma_coeffs = _parse_luma_residuals(br, fr, bx0, by0, cbp_luma)
    chroma = _parse_chroma_residuals(br, fr, 2 * mbx, 2 * mby, cbp_chroma)
    _recon_inter(fr, mbx, mby, predY, predCb, predCr, luma_coeffs, chroma,
                 qp, coff)
    return qp


def _parse_pred_weight_table(br: BitReader, nref: int) -> tuple:
    """(luma_denom, chroma_denom, [per-ref weight tuples]) — §7.3.3.2
    shared by the P and B header paths (the caller hands each list's
    nref and pairs the denominators)."""
    ld = br.ue()
    cd = br.ue()
    wp = []
    for _ in range(nref):
        wY, oY = 1 << ld, 0
        wCb = wCr = 1 << cd
        oCb = oCr = 0
        if br.u(1):
            wY, oY = br.se(), br.se()
        if br.u(1):
            wCb, oCb = br.se(), br.se()
            wCr, oCr = br.se(), br.se()
        wp.append((ld, wY, oY, cd, wCb, oCb, wCr, oCr))
    return ld, cd, wp


def _parse_wp_list(br: BitReader, nref: int, ld: int, cd: int) -> list:
    """The l1 half of a B pred_weight_table (denominators already read)."""
    wp = []
    for _ in range(nref):
        wY, oY = 1 << ld, 0
        wCb = wCr = 1 << cd
        oCb = oCr = 0
        if br.u(1):
            wY, oY = br.se(), br.se()
        if br.u(1):
            wCb, oCb = br.se(), br.se()
            wCr, oCr = br.se(), br.se()
        wp.append((ld, wY, oY, cd, wCb, oCb, wCr, oCr))
    return wp


def _decode_bslice_into(fr: _Frame, br: BitReader, rbsp: bytes, sps: dict,
                        pps: dict, first_mb: int, refs0: list, refs1: list,
                        nal_ref_idc: int, cur_poc: int = 0) -> int:
    """Decode one non-IDR B slice (header tail + CAVLC slice data with
    mb_skip_run interleaving, §7.3.4).  ``refs0``/``refs1`` are the POC-
    ordered reference lists built by the caller (§8.2.4.2.3);
    ``cur_poc`` is this picture's POC (temporal direct and implicit
    weighting scale by POC distances)."""
    if pps.get("entropy"):
        raise ValueError("CABAC B slices not supported: needs the PyAV "
                         "seam")
    if not refs0 or not refs1:
        raise ValueError("B slice without both reference lists")
    br.ue()  # pps id
    br.u(sps["log2_max_frame_num"])  # frame_num
    if sps.get("poc_type", 2) == 0:
        br.u(sps["log2_max_poc_lsb"])  # pic_order_cnt_lsb
    spatial = bool(br.u(1))  # direct_spatial_mv_pred_flag
    nref0 = pps.get("num_ref_idx_l0_default", 1)
    nref1 = pps.get("num_ref_idx_l1_default", 1)
    if br.u(1):  # num_ref_idx_active_override_flag
        nref0 = br.ue() + 1
        nref1 = br.ue() + 1
    if br.u(1):  # ref_pic_list_modification_flag_l0
        raise ValueError("ref_pic_list_modification not supported")
    if br.u(1):  # ref_pic_list_modification_flag_l1
        raise ValueError("ref_pic_list_modification not supported")
    wp0 = wp1 = wimp = None
    wbi = pps.get("weighted_bipred", 0)
    if wbi == 1:
        ld, cd, wp0 = _parse_pred_weight_table(br, nref0)
        wp1 = _parse_wp_list(br, nref1, ld, cd)
    elif wbi == 2:
        wimp = _implicit_weights(refs0, refs1, cur_poc)
    if nal_ref_idc:
        if br.u(1):  # adaptive_ref_pic_marking_mode_flag
            raise ValueError("adaptive ref-pic marking (MMCO) not "
                             "supported")
    if nref0 > len(refs0) or nref1 > len(refs1):
        raise ValueError(f"slice wants {nref0}/{nref1} references, lists "
                         f"have {len(refs0)}/{len(refs1)}")
    qp = pps["pic_init_qp"] + br.se()
    idc, a_off, b_off = 0, 0, 0
    if pps["deblocking_control"]:
        idc = br.ue()
        if idc != 1:
            a_off = 2 * br.se()
            b_off = 2 * br.se()
    fr.deblock[fr.cur_slice] = (idc, a_off, b_off)
    dctx = {"mode": "spatial" if spatial else "temporal",
            "inference": bool(sps.get("direct_8x8_inference", 1)),
            "poc": cur_poc}
    total = sps["w_mbs"] * sps["h_mbs"]
    W = sps["w_mbs"]
    end = _rbsp_data_end(rbsp)
    mb = first_mb
    while mb < total and br.pos < end:
        skip_run = br.ue()
        for _ in range(skip_run):
            if mb >= total:
                raise ValueError("mb_skip_run past end of picture")
            _recon_bskip(fr, refs0, refs1, mb % W, mb // W, qp, dctx,
                         wp0, wp1, wimp)
            mb += 1
        if mb >= total or br.pos >= end:
            break
        qp = _decode_mb_b(br, fr, mb % W, mb // W, qp,
                          pps["chroma_qp_index_offset"], refs0, refs1,
                          nref0, nref1, dctx,
                          t8_allowed=bool(pps.get("transform_8x8")),
                          wp0=wp0, wp1=wp1, wimp=wimp)
        mb += 1
    fr.cur_slice += 1
    return first_mb


# ---------------------------------------------------------------------------
# CABAC entropy layer (§9.3) — I-slice scope, 4x4 transform.
#
# The arithmetic engine (§9.3.3.2 decode, §9.3.4 encode) and the I-slice
# context-init column (Tables 9-12 .. 9-23) are transcribed from the public
# ITU-T H.264 spec, the same stance as the CAVLC tables above.  Conformance
# caveat, stated plainly: this sandbox has no third-party H.264
# implementation or reference streams, so the init constants cannot be
# differentially validated here — validation is (a) engine round-trip
# (encode->decode bit-exact over fuzzed decision/bypass/terminate mixes on
# every context), (b) full-stream round-trip where the fixture encoder and
# the decoder share ONE parse+recon path (_mb_cabac) so reconstruction
# parity is structural, and (c) behavioural checks (context adaptation
# compresses, streams parse deterministically).  A transcription slip in an
# init pair would shift compression slightly and break third-party-stream
# parity, but cannot break in-repo round-trips — treat third-party CABAC
# decode as best-effort until differentially tested outside the sandbox.
#
# CABAC P/B slices are skipped upstream by the sampler (CAVLC P/B decode
# fully; the CABAC inter layer stays a PyAV seam).
# I_PCM inside CABAC slices IS handled (post-terminate byte realignment +
# engine re-init with contexts preserved), as is the High-profile 8x8
# transform (ctxBlockCat 5) — see the 8x8 section below.
# ---------------------------------------------------------------------------

# Table 9-44: rangeTabLPS[pStateIdx][ (codIRange >> 6) & 3 ]
_LPS_RANGE = np.array([
    [128, 176, 208, 240], [128, 167, 197, 227], [128, 158, 187, 216],
    [123, 150, 178, 205], [116, 142, 169, 195], [111, 135, 160, 185],
    [105, 128, 152, 175], [100, 122, 144, 166], [95, 116, 137, 158],
    [90, 110, 130, 150], [85, 104, 123, 142], [81, 99, 117, 135],
    [77, 94, 111, 128], [73, 89, 105, 122], [69, 85, 100, 116],
    [66, 80, 95, 110], [62, 76, 90, 104], [59, 72, 86, 99],
    [56, 69, 81, 94], [53, 65, 77, 89], [51, 62, 73, 85],
    [48, 59, 69, 80], [46, 56, 66, 76], [43, 53, 63, 72],
    [41, 50, 59, 69], [39, 48, 56, 65], [37, 45, 54, 62],
    [35, 43, 51, 59], [33, 41, 48, 56], [32, 39, 46, 53],
    [30, 37, 43, 50], [28, 35, 41, 48], [27, 33, 39, 45],
    [26, 31, 37, 43], [24, 30, 35, 41], [23, 28, 33, 39],
    [22, 27, 32, 37], [21, 26, 30, 35], [20, 24, 29, 33],
    [19, 23, 27, 31], [18, 22, 26, 30], [17, 21, 25, 28],
    [16, 20, 23, 27], [15, 19, 22, 25], [14, 18, 21, 24],
    [14, 17, 20, 23], [13, 16, 19, 22], [12, 15, 18, 21],
    [12, 14, 17, 20], [11, 14, 16, 19], [11, 13, 15, 18],
    [10, 12, 15, 17], [10, 12, 14, 16], [9, 11, 13, 15],
    [9, 11, 12, 14], [8, 10, 12, 14], [8, 9, 11, 13],
    [7, 9, 11, 12], [7, 9, 10, 12], [7, 8, 10, 11],
    [6, 8, 9, 11], [6, 7, 9, 10], [6, 7, 8, 9], [2, 2, 2, 2],
], dtype=np.int32)

# Table 9-45: transIdxLPS (MPS transition is min(pStateIdx + 1, 62))
_LPS_TRANS = np.array([
    0, 0, 1, 2, 2, 4, 4, 5, 6, 7, 8, 9, 9, 11, 11, 12, 13, 13, 15, 15,
    16, 16, 18, 18, 19, 19, 21, 21, 23, 22, 23, 24, 24, 25, 26, 26, 27,
    27, 28, 29, 29, 30, 30, 30, 31, 32, 32, 33, 33, 33, 34, 34, 35, 35,
    35, 36, 36, 36, 37, 37, 37, 38, 38, 63,
], dtype=np.int32)

# I-slice context init (m, n) pairs, ctxIdx 0..275 (Tables 9-12 .. 9-23,
# intra column).  ctxIdx 11..59 are P/B-only syntax (never referenced in an
# I slice) — filled with the neutral (0, 64).
_NEUTRAL = [(0, 64)]
_INIT_I = (
    # 0..10: mb_type (SI prefix 0..2 shares the I values), Table 9-12
    [(20, -15), (2, 54), (3, 74), (20, -15), (2, 54), (3, 74),
     (-28, 127), (-23, 104), (-6, 53), (-1, 54), (7, 51)]
    + _NEUTRAL * 49                                   # 11..59 P/B-only
    # 60..63: mb_qp_delta
    + [(0, 41), (0, 63), (0, 63), (0, 63)]
    # 64..67: intra_chroma_pred_mode
    + [(-9, 83), (4, 86), (0, 97), (-7, 72)]
    # 68: prev_intra4x4_pred_mode_flag, 69: rem_intra4x4_pred_mode
    + [(13, 41), (3, 62)]
    # 70..72: mb_field_decoding_flag (frame_mbs_only here; kept for parity)
    + [(0, 45), (-4, 78), (-3, 96)]
    # 73..76: coded_block_pattern luma
    + [(-27, 126), (-28, 98), (-25, 101), (-23, 67)]
    # 77..84: coded_block_pattern chroma
    + [(-28, 82), (-20, 94), (-16, 83), (-22, 110),
       (-21, 91), (-18, 102), (-13, 93), (-29, 127)]
    # 85..104: coded_block_flag, ctxBlockCat 0..4
    + [(-7, 92), (-5, 89), (-7, 96), (-13, 108),
       (-3, 46), (-1, 65), (-1, 57), (-9, 93),
       (-3, 74), (-9, 92), (-8, 87), (-23, 126),
       (5, 54), (6, 60), (6, 59), (6, 69),
       (-1, 48), (0, 68), (-4, 69), (-8, 88)]
    # 105..165: significant_coeff_flag (frame-coded)
    + [(-2, 85), (-6, 78), (-1, 75), (-7, 77), (2, 54), (5, 50),
       (-3, 68), (1, 50), (6, 42), (-4, 81), (1, 63), (-4, 70),
       (0, 67), (2, 57), (-2, 76), (11, 35), (4, 64), (1, 61),
       (11, 35), (18, 25), (12, 24), (13, 29), (13, 36), (-10, 93),
       (-7, 73), (-2, 73), (13, 46), (9, 49), (-7, 100), (9, 53),
       (2, 53), (5, 53), (-2, 61), (0, 56), (0, 56), (-13, 63),
       (-5, 60), (-1, 62), (4, 57), (-6, 69), (4, 57), (14, 39),
       (4, 51), (13, 68), (3, 64), (1, 61), (9, 63), (7, 50),
       (16, 39), (5, 44), (4, 52), (11, 48), (-5, 60), (-1, 59),
       (0, 59), (22, 33), (5, 44), (14, 43), (-1, 78), (0, 60),
       (9, 69)]
    # 166..226: last_significant_coeff_flag (frame-coded)
    + [(11, 28), (2, 40), (3, 44), (0, 49), (0, 46), (2, 44),
       (2, 51), (0, 47), (4, 39), (2, 62), (6, 46), (0, 54),
       (3, 54), (2, 58), (4, 63), (6, 51), (6, 57), (7, 53),
       (6, 52), (6, 55), (11, 45), (14, 36), (8, 53), (-1, 82),
       (7, 55), (-3, 78), (15, 46), (22, 31), (-1, 84), (25, 7),
       (30, -7), (28, 3), (28, 4), (32, 0), (34, -1), (30, 6),
       (30, 6), (32, 9), (31, 19), (26, 27), (26, 30), (37, 20),
       (28, 34), (17, 70), (1, 67), (5, 59), (9, 67), (16, 30),
       (18, 32), (18, 35), (22, 29), (24, 31), (23, 38), (18, 43),
       (20, 41), (11, 63), (9, 59), (9, 64), (-1, 94), (-2, 89),
       (-9, 108)]
    # 227..275: coeff_abs_level_minus1
    + [(-6, 76), (-2, 44), (0, 45), (0, 52), (-3, 64), (-2, 59),
       (-4, 70), (-4, 75), (-8, 82), (-17, 102), (-9, 77), (3, 24),
       (0, 42), (0, 48), (0, 55), (-6, 59), (-7, 71), (-12, 83),
       (-11, 87), (-30, 119), (1, 58), (-3, 29), (-1, 36), (1, 38),
       (2, 43), (-6, 55), (0, 58), (0, 64), (-3, 74), (-10, 90),
       (0, 70), (-4, 29), (5, 31), (7, 42), (1, 59), (-2, 58),
       (-3, 72), (-3, 81), (-11, 97), (0, 58), (8, 5), (10, 14),
       (14, 18), (13, 27), (2, 40), (0, 58), (-3, 70), (-6, 79),
       (-8, 85)]
    # 276..398: end_of_slice placeholder + field-coded sig/last (never
    # referenced by this frame-only decoder) — neutral
    + _NEUTRAL * 123
    # 399..401: transform_size_8x8_flag
    + [(31, 21), (31, 31), (25, 50)]
    # 402..416: significant_coeff_flag, ctxBlockCat 5 (frame)
    + [(-17, 120), (-20, 112), (-18, 114), (-11, 85), (-15, 92),
       (-14, 89), (-26, 71), (-15, 81), (-14, 80), (0, 68),
       (-14, 70), (-24, 56), (-23, 68), (-24, 50), (-11, 74)]
    # 417..425: last_significant_coeff_flag, ctxBlockCat 5 (frame)
    + [(23, -13), (26, -13), (40, -15), (49, -14), (44, 3),
       (45, 6), (44, 34), (33, 54), (19, 82)]
    # 426..435: coeff_abs_level_minus1, ctxBlockCat 5
    + [(-3, 75), (-1, 23), (1, 34), (1, 43), (0, 54),
       (-2, 55), (0, 61), (1, 64), (0, 68), (-9, 92)]
)
assert len(_INIT_I) == 436

# Table 9-43: position -> ctxIdxInc maps for the 8x8 (cat 5) significance
# pass, frame-coded
_SIG8_MAP = (
    0, 1, 2, 3, 4, 5, 5, 4, 4, 3, 3, 4, 4, 4, 5, 5,
    4, 4, 4, 4, 3, 3, 6, 7, 7, 7, 8, 9, 10, 9, 8, 7,
    7, 6, 11, 12, 13, 11, 6, 7, 8, 9, 14, 10, 9, 8, 6, 11,
    12, 13, 11, 6, 9, 14, 10, 9, 11, 12, 13, 11, 14, 10, 12,
)
_LAST8_MAP = (0,) + (1,) * 31 + (2,) * 8 + (3,) * 8 + (4,) * 8 \
    + (5,) * 4 + (6,) * 3
assert len(_SIG8_MAP) == 63 and len(_LAST8_MAP) == 63

# per-ctxBlockCat bases inside the 61-context sig/last blocks and the
# 49-context abs-level block (§9.3.3.1.3)
_SIG_CAT_BASE = (0, 15, 29, 44, 47)
_LVL_CAT_BASE = (0, 10, 20, 30, 39)
# bins > 0 of the abs-level TU prefix: 5 + min(cap, numDecodAbsLevelGt1);
# chroma DC (cat 3) has one fewer context
_LVL_GT1_CAP = (4, 4, 4, 3, 4)


class CabacContexts:
    """pStateIdx / valMPS per ctxIdx, initialised from SliceQPY
    (§9.3.1.1)."""

    def __init__(self, slice_qp: int):
        q = max(0, min(51, slice_qp))
        m = np.array([p[0] for p in _INIT_I], dtype=np.int32)
        n = np.array([p[1] for p in _INIT_I], dtype=np.int32)
        pre = np.clip(((m * q) >> 4) + n, 1, 126)
        self.state = np.where(pre <= 63, 63 - pre, pre - 64).astype(np.int32)
        self.mps = (pre > 63).astype(np.int32)


class CabacDecoder:
    """§9.3.3.2 arithmetic decoding engine over an RBSP byte string,
    starting at a byte-aligned bit position.  Reads past the end return 0
    bits (the encoder zero-pads to the byte boundary)."""

    def __init__(self, data: bytes, start_bit: int):
        assert start_bit % 8 == 0, "CABAC data must start byte-aligned"
        self.data = data
        self.pos = start_bit
        self.range = 510
        self.offset = 0
        for _ in range(9):
            self.offset = (self.offset << 1) | self._bit()

    def _bit(self) -> int:
        byte_i = self.pos >> 3
        b = ((self.data[byte_i] >> (7 - (self.pos & 7))) & 1) \
            if byte_i < len(self.data) else 0
        self.pos += 1
        return b

    def decision(self, ctxs: CabacContexts, idx: int) -> int:
        state = int(ctxs.state[idx])
        mps = int(ctxs.mps[idx])
        lps = int(_LPS_RANGE[state, (self.range >> 6) & 3])
        self.range -= lps
        if self.offset >= self.range:
            bit = 1 - mps
            self.offset -= self.range
            self.range = lps
            if state == 0:
                ctxs.mps[idx] = 1 - mps
            ctxs.state[idx] = _LPS_TRANS[state]
        else:
            bit = mps
            if state < 62:
                ctxs.state[idx] = state + 1
        while self.range < 256:
            self.range <<= 1
            self.offset = (self.offset << 1) | self._bit()
        return bit

    def bypass(self) -> int:
        self.offset = (self.offset << 1) | self._bit()
        if self.offset >= self.range:
            self.offset -= self.range
            return 1
        return 0

    def terminate(self) -> int:
        self.range -= 2
        if self.offset >= self.range:
            return 1
        while self.range < 256:
            self.range <<= 1
            self.offset = (self.offset << 1) | self._bit()
        return 0


class CabacEncoder:
    """§9.3.4 arithmetic encoding engine (PutBit with bitsOutstanding and
    the discarded leading bit)."""

    def __init__(self):
        self.low = 0
        self.range = 510
        self.outstanding = 0
        self.first = True
        self.out: list = []

    def _put(self, b: int) -> None:
        if self.first:
            self.first = False
        else:
            self.out.append(b)
        while self.outstanding:
            self.out.append(1 - b)
            self.outstanding -= 1

    def _renorm(self) -> None:
        while self.range < 256:
            if self.low >= 512:
                self._put(1)
                self.low -= 512
            elif self.low < 256:
                self._put(0)
            else:
                self.outstanding += 1
                self.low -= 256
            self.low <<= 1
            self.range <<= 1

    def decision(self, ctxs: CabacContexts, idx: int, bit: int) -> int:
        state = int(ctxs.state[idx])
        mps = int(ctxs.mps[idx])
        lps = int(_LPS_RANGE[state, (self.range >> 6) & 3])
        self.range -= lps
        if bit != mps:
            self.low += self.range
            self.range = lps
            if state == 0:
                ctxs.mps[idx] = 1 - mps
            ctxs.state[idx] = _LPS_TRANS[state]
        else:
            if state < 62:
                ctxs.state[idx] = state + 1
        self._renorm()
        return bit

    def bypass(self, bit: int) -> int:
        self.low <<= 1
        if bit:
            self.low += self.range
        if self.low >= 1024:
            self._put(1)
            self.low -= 1024
        elif self.low < 512:
            self._put(0)
        else:
            self.outstanding += 1
            self.low -= 512
        return bit

    def terminate(self, bit: int) -> int:
        self.range -= 2
        if bit:
            self.low += self.range
        else:
            self._renorm()
        return bit

    def flush(self) -> None:
        """§9.3.4.1.2 EncodeFlush — call once, right after terminate(1)."""
        self.range = 2
        self._renorm()
        self._put((self.low >> 9) & 1)
        v = ((self.low >> 7) & 3) | 1  # ends in the rbsp stop bit
        self.out.append((v >> 1) & 1)
        self.out.append(v & 1)

    def getbits(self) -> str:
        return "".join("1" if b else "0" for b in self.out)


class _CabacSyntax:
    """I-slice syntax binarizations (§9.3.2) + context assignment
    (§9.3.3.1), written ONCE for both directions: every bin goes through
    ``_dec``/``_byp``/``_term``, whose read implementation decodes and
    whose write implementation encodes the bin derived from the planned
    value (``_plan_val`` returns None on the read side).  One body means
    the encoder can never disagree with the decoder about bin order or
    context selection."""

    def _dec(self, ctx: int, val):  # pragma: no cover - abstract
        raise NotImplementedError

    def _byp(self, val):  # pragma: no cover - abstract
        raise NotImplementedError

    def _term(self, val):  # pragma: no cover - abstract
        raise NotImplementedError

    def _plan_val(self, key):  # pragma: no cover - abstract
        raise NotImplementedError

    def mb_type(self, inc: int) -> int:
        """I-slice mb_type (Table 9-36 binarization, ctxIdxOffset 3)."""
        t = self._plan_val("mb_type")
        if not self._dec(3 + inc, None if t is None else (1 if t else 0)):
            return 0  # I_NxN
        if self._term(None if t is None else (1 if t == 25 else 0)):
            return 25  # I_PCM
        k = None if t is None else t - 1
        b_lu = self._dec(6, None if k is None else (1 if k >= 12 else 0))
        cc = None if k is None else (k // 4) % 3
        if self._dec(7, None if cc is None else (1 if cc else 0)):
            cchr = 1 + self._dec(8, None if cc is None else
                                 (1 if cc == 2 else 0))
        else:
            cchr = 0
        pv = None if k is None else k % 4
        p1 = self._dec(9, None if pv is None else (pv >> 1) & 1)
        p0 = self._dec(10, None if pv is None else pv & 1)
        return 1 + (2 * p1 + p0) + 4 * cchr + 12 * b_lu

    def i4_mode(self, pred: int) -> int:
        """prev_intra4x4_pred_mode_flag (ctx 68) + rem (3 FL bins, ctx 69,
        LSB-first — the bin order deployed decoders use)."""
        t = self._plan_val("i4_modes")
        if self._dec(68, None if t is None else (1 if t == pred else 0)):
            return pred
        rt = None if t is None else (t if t < pred else t - 1)
        b0 = self._dec(69, None if rt is None else rt & 1)
        b1 = self._dec(69, None if rt is None else (rt >> 1) & 1)
        b2 = self._dec(69, None if rt is None else (rt >> 2) & 1)
        rem = b0 | (b1 << 1) | (b2 << 2)
        return rem if rem < pred else rem + 1

    def chroma_mode(self, inc: int) -> int:
        """intra_chroma_pred_mode: TU cMax 3, ctx 64+inc then 67."""
        t = self._plan_val("chroma_mode")
        if not self._dec(64 + inc, None if t is None else (1 if t else 0)):
            return 0
        if not self._dec(67, None if t is None else (1 if t > 1 else 0)):
            return 1
        if not self._dec(67, None if t is None else (1 if t > 2 else 0)):
            return 2
        return 3

    def cbp(self, left, top) -> int:
        """coded_block_pattern: 4 luma FL bins (ctx 73 block, §9.3.3.1.1.4
        inverted-bit conditions) + TU-2 chroma (ctx 77 block).  ``left`` /
        ``top`` are the neighbor MBs' cbp values (I_PCM passed as 47) or
        None when unavailable."""
        t = self._plan_val("cbp")
        cur = 0
        for i in range(4):
            x8, y8 = i & 1, i >> 1
            if x8:
                cond_a = 0 if (cur >> (i - 1)) & 1 else 1
            elif left is None:
                cond_a = 0
            else:
                cond_a = 0 if (left >> (i + 1)) & 1 else 1
            if y8:
                cond_b = 0 if (cur >> (i - 2)) & 1 else 1
            elif top is None:
                cond_b = 0
            else:
                cond_b = 0 if (top >> (i + 2)) & 1 else 1
            bit = self._dec(73 + cond_a + 2 * cond_b,
                            None if t is None else (t >> i) & 1)
            cur |= bit << i
        ca = 0 if left is None else (1 if (left >> 4) else 0)
        cb = 0 if top is None else (1 if (top >> 4) else 0)
        tc = None if t is None else t >> 4
        chroma = 0
        if self._dec(77 + ca + 2 * cb,
                     None if tc is None else (1 if tc else 0)):
            ca2 = 0 if left is None else (1 if (left >> 4) == 2 else 0)
            cb2 = 0 if top is None else (1 if (top >> 4) == 2 else 0)
            chroma = 1 + self._dec(81 + ca2 + 2 * cb2,
                                   None if tc is None else
                                   (1 if tc == 2 else 0))
        return cur | (chroma << 4)

    def qp_delta(self, prev_nonzero: bool) -> int:
        """mb_qp_delta: unary of the se() mapping, ctx 60/61 then 62, 63."""
        t = self._plan_val("qp_delta")
        mt = None if t is None else (2 * t - 1 if t > 0 else -2 * t)
        if not self._dec(60 + (1 if prev_nonzero else 0),
                         None if mt is None else (1 if mt else 0)):
            return 0
        k = 1
        while self._dec(62 if k == 1 else 63,
                        None if mt is None else (1 if mt > k else 0)):
            k += 1
            if k > 90:
                raise ValueError("mb_qp_delta unary runaway")
        return (k + 1) // 2 if k & 1 else -(k // 2)

    def residual(self, cat: int, cbf_inc: int, maxc: int):
        """residual_block_cabac (§7.3.5.3.3 + §9.3.2.3): coded_block_flag,
        significance map, then levels in reverse scan order (UEG0 with
        uCoff 14).  Returns (coded_block_flag, scan-order coefficients)."""
        tgt = self._plan_val("coeffs")
        cbf = self._dec(85 + 4 * cat + cbf_inc,
                        None if tgt is None else
                        (1 if np.any(tgt) else 0))
        scan = np.zeros(maxc, dtype=np.int32)
        if not cbf:
            return 0, scan
        sbase = 105 + _SIG_CAT_BASE[cat]
        lbase = 166 + _SIG_CAT_BASE[cat]
        last_t = -1
        if tgt is not None:
            last_t = int(np.flatnonzero(tgt)[-1])
        positions = []
        i = 0
        while i < maxc - 1:
            s = self._dec(sbase + i, None if tgt is None else
                          (1 if tgt[i] else 0))
            if s:
                positions.append(i)
                if self._dec(lbase + i, None if tgt is None else
                             (1 if i == last_t else 0)):
                    break
            i += 1
        else:
            positions.append(maxc - 1)  # implied significant (§9.3.2.3)
        self._abs_levels(positions, scan, tgt,
                         227 + _LVL_CAT_BASE[cat], _LVL_GT1_CAP[cat])
        return 1, scan

    def _abs_levels(self, positions, scan, tgt, abase: int,
                    cap: int) -> None:
        """coeff_abs_level_minus1 (UEG0, uCoff 14) + sign for the
        significant positions, in reverse scan order."""
        eq1 = gt1 = 0
        for idx in reversed(positions):
            mt = None if tgt is None else abs(int(tgt[idx])) - 1
            ctx0 = abase + (0 if gt1 else min(4, 1 + eq1))
            if not self._dec(ctx0, None if mt is None else
                             (1 if mt > 0 else 0)):
                m = 0
            else:
                ctxg = abase + 5 + min(cap, gt1)
                m = 1
                while m < 14 and self._dec(ctxg, None if mt is None else
                                           (1 if mt > m else 0)):
                    m += 1
                if m == 14:  # UEG0 escape, bypass-coded
                    if mt is None:
                        big = 0
                        k = 0
                        while self._byp(None):
                            big += 1 << k
                            k += 1
                            if k > 40:
                                raise ValueError("EG0 runaway")
                        v = 0
                        for _ in range(k):
                            v = (v << 1) | self._byp(None)
                        m = 14 + big + v
                    else:
                        e = mt - 14
                        k = (e + 1).bit_length() - 1
                        for _ in range(k):
                            self._byp(1)
                        self._byp(0)
                        v = e - ((1 << k) - 1)
                        for j in range(k - 1, -1, -1):
                            self._byp((v >> j) & 1)
                        m = mt
            sign = self._byp(None if tgt is None else
                             (1 if tgt[idx] < 0 else 0))
            scan[idx] = -(m + 1) if sign else (m + 1)
            if m == 0:
                eq1 += 1
            else:
                gt1 += 1

    def residual8(self):
        """ctxBlockCat 5 residual (8x8 luma, High profile): no
        coded_block_flag bin (the cbp bit covers it), Table 9-43 position
        maps for the significance pass, abs levels at ctx 426."""
        tgt = self._plan_val("coeffs")
        scan = np.zeros(64, dtype=np.int32)
        last_t = -1
        if tgt is not None:
            last_t = int(np.flatnonzero(tgt)[-1])
        positions = []
        i = 0
        while i < 63:
            s = self._dec(402 + _SIG8_MAP[i], None if tgt is None else
                          (1 if tgt[i] else 0))
            if s:
                positions.append(i)
                if self._dec(417 + _LAST8_MAP[i], None if tgt is None else
                             (1 if i == last_t else 0)):
                    break
            i += 1
        else:
            positions.append(63)
        self._abs_levels(positions, scan, tgt, 426, 4)
        return scan

    def t8_flag(self, inc: int) -> int:
        """transform_size_8x8_flag (ctx 399 + neighbor-flag condition)."""
        return self._dec(399 + inc, self._plan_val("t8"))

    def end_of_slice(self, val=None) -> int:
        return self._term(val)


class _CabacRead(_CabacSyntax):
    def __init__(self, cd: CabacDecoder, ctxs: CabacContexts):
        self.cd, self.ctxs = cd, ctxs

    def _dec(self, ctx, val):
        return self.cd.decision(self.ctxs, ctx)

    def _byp(self, val):
        return self.cd.bypass()

    def _term(self, val):
        return self.cd.terminate()

    def _plan_val(self, key):
        return None

    def pcm_planes(self):
        """I_PCM under CABAC: after the terminate bin, the bits consumed
        (cd.pos) equal the bits the encoder has flushed — renorm shifts
        and bypass reads pair 1:1 with renorm writes, and the init-9 reads
        cover the flush's 7+1+2 — so pcm_alignment pads to the next byte
        boundary of cd.pos; raw planes follow; the engine re-initialises
        after them with CONTEXT STATE PRESERVED (§9.3.1.2)."""
        cd = self.cd
        pos = (cd.pos + 7) & ~7
        raw = bytes(cd.data[pos // 8: pos // 8 + 384])
        if len(raw) < 384:
            raise ValueError("truncated I_PCM payload in CABAC slice")
        y = np.frombuffer(raw[:256], np.uint8).reshape(16, 16)
        cb = np.frombuffer(raw[256:320], np.uint8).reshape(8, 8)
        cr = np.frombuffer(raw[320:], np.uint8).reshape(8, 8)
        self.cd = CabacDecoder(cd.data, pos + 384 * 8)
        return (y.astype(np.int64), cb.astype(np.int64),
                cr.astype(np.int64))


class _CabacWrite(_CabacSyntax):
    def __init__(self, enc: CabacEncoder, ctxs: CabacContexts):
        self.enc, self.ctxs = enc, ctxs
        self.plan = None
        self.done_bits: list = []  # flushed segments (PCM splices)

    def set_plan(self, plan: dict) -> None:
        self.plan = dict(plan)
        self.plan["coeffs"] = list(plan.get("coeffs", ()))
        self.plan["_i4_i"] = 0

    def plan_done(self) -> bool:
        return not self.plan["coeffs"] and \
            self.plan["_i4_i"] == len(self.plan.get("i4_modes", ()))

    def _dec(self, ctx, val):
        assert val is not None, "write path needs a planned bin"
        return self.enc.decision(self.ctxs, ctx, val)

    def _byp(self, val):
        assert val is not None
        return self.enc.bypass(val)

    def _term(self, val):
        assert val is not None
        return self.enc.terminate(val)

    def _plan_val(self, key):
        if key == "coeffs":
            return self.plan["coeffs"].pop(0)
        if key == "i4_modes":
            v = self.plan["i4_modes"][self.plan["_i4_i"]]
            self.plan["_i4_i"] += 1
            return v
        return self.plan[key]

    def pcm_planes(self):
        """Write side of I_PCM: flush the engine (its total output now
        equals the decoder's consumed-bit count at the terminate bin),
        pad to the byte boundary, splice the raw planes, start a FRESH
        engine — contexts carry over (§9.3.1.2)."""
        y, cb, cr = self.plan["pcm_planes"]
        self.enc.flush()
        self.done_bits.append(self.enc.getbits())
        total = sum(len(s) for s in self.done_bits)
        self.done_bits.append("0" * ((-total) % 8))  # pcm_alignment_zero
        payload = np.concatenate([
            np.asarray(y, np.uint8).reshape(-1),
            np.asarray(cb, np.uint8).reshape(-1),
            np.asarray(cr, np.uint8).reshape(-1)])
        self.done_bits.append("".join(format(int(b), "08b")
                                      for b in payload))
        self.enc = CabacEncoder()
        return (np.asarray(y, np.int64), np.asarray(cb, np.int64),
                np.asarray(cr, np.int64))

    def collect(self) -> str:
        """All emitted bits: flushed segments + the live engine's output
        (call after the final flush)."""
        return "".join(self.done_bits) + self.enc.getbits()


def _mb_cabac(ent: _CabacSyntax, fr: _Frame, mbx: int, mby: int, qp: int,
              chroma_qp_off: int, t8_allowed: bool = False) -> int:
    """Parse + reconstruct one CABAC I-slice macroblock.  The SAME body
    runs under _CabacRead (decode) and _CabacWrite (fixture encode), so
    context selection, bin order and reconstruction cannot drift between
    the two sides.  ``t8_allowed`` mirrors the PPS transform_8x8_mode
    flag.  Returns the updated QP."""
    fr.slice_no[mby, mbx] = fr.cur_slice
    bx0, by0 = 4 * mbx, 4 * mby
    cbx, cby = 2 * mbx, 2 * mby

    def mbclass(my: int, mx: int) -> int:
        """Neighbor MB class, -1 when unavailable (edge or other slice)."""
        if mx < 0 or my < 0:
            return -1
        if not fr.same_slice(my, mx):
            return -1
        return int(fr.mb_class[my, mx])

    ca, cb = mbclass(mby, mbx - 1), mbclass(mby - 1, mbx)
    inc = (1 if ca in (2, 3) else 0) + (1 if cb in (2, 3) else 0)
    mb_type = ent.mb_type(inc)
    if mb_type == 25:  # I_PCM (§9.3.1.2 engine re-init around raw bytes)
        px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
        yb, cbb, crb = ent.pcm_planes()
        fr.Y[py:py + 16, px:px + 16] = yb
        fr.Cb[cy:cy + 8, cx:cx + 8] = cbb
        fr.Cr[cy:cy + 8, cx:cx + 8] = crb
        fr.tcY[by0:by0 + 4, bx0:bx0 + 4] = 16
        fr.tcCb[cby:cby + 2, cbx:cbx + 2] = 16
        fr.tcCr[cby:cby + 2, cbx:cbx + 2] = 16
        fr.i4[by0:by0 + 4, bx0:bx0 + 4] = 2
        fr.recon[by0:by0 + 4, bx0:bx0 + 4] = True
        fr.mb_done[mby, mbx] = True
        fr.mb_qp[mby, mbx] = 0  # §8.7.2: I_PCM deblocks with QPY = 0
        fr.mb_class[mby, mbx] = 3
        fr.prev_qp_delta = 0
        return qp

    def nb_cbp(my: int, mx: int):
        c = mbclass(my, mx)
        if c <= 0:
            return None
        return 47 if c == 3 else int(fr.cbp_arr[my, mx])

    def nb_cmode(my: int, mx: int) -> int:
        c = mbclass(my, mx)
        return 0 if c <= 0 or c == 3 else int(fr.cmode_arr[my, mx])

    # §9.3.3.1.1.9 condTermFlags (current MB is always intra here, so an
    # unavailable neighbor contributes 1)
    def cbf_inc_ldc() -> int:
        conds = []
        for my, mx in ((mby, mbx - 1), (mby - 1, mbx)):
            c = mbclass(my, mx)
            if c < 0 or c == 3:
                conds.append(1)
            elif c == 2:
                conds.append(int(fr.cbf_ldc[my, mx]))
            else:
                conds.append(0)  # neighbor MB has no luma-DC block
        return conds[0] + 2 * conds[1]

    def cbf_inc_l4(gby: int, gbx: int) -> int:
        conds = []
        for ny, nx in ((gby, gbx - 1), (gby - 1, gbx)):
            if ny < 0 or nx < 0 or not fr.same_slice(ny >> 2, nx >> 2):
                conds.append(1)
            elif int(fr.mb_class[ny >> 2, nx >> 2]) == 3:
                conds.append(1)
            else:
                conds.append(int(fr.cbf_l4[ny, nx]))
        return conds[0] + 2 * conds[1]

    def cbf_inc_cdc(comp: int) -> int:
        conds = []
        for my, mx in ((mby, mbx - 1), (mby - 1, mbx)):
            c = mbclass(my, mx)
            if c < 0 or c == 3:
                conds.append(1)
            else:
                conds.append(int(fr.cbf_cdc[comp, my, mx]))
        return conds[0] + 2 * conds[1]

    def cbf_inc_cac(comp: int, gby: int, gbx: int) -> int:
        conds = []
        for ny, nx in ((gby, gbx - 1), (gby - 1, gbx)):
            if ny < 0 or nx < 0 or not fr.same_slice(ny >> 1, nx >> 1):
                conds.append(1)
            elif int(fr.mb_class[ny >> 1, nx >> 1]) == 3:
                conds.append(1)
            else:
                conds.append(int(fr.cbf_cac[comp, ny, nx]))
        return conds[0] + 2 * conds[1]

    def chroma_residuals(cbp_chroma: int):
        dc = []
        for comp in (0, 1):
            if cbp_chroma:
                f, c = ent.residual(3, cbf_inc_cdc(comp), 4)
            else:
                f, c = 0, np.zeros(4, dtype=np.int32)
            fr.cbf_cdc[comp, mby, mbx] = f
            dc.append(c)
        acs = []
        for comp, tc in ((0, fr.tcCb), (1, fr.tcCr)):
            blocks = []
            for i in range(4):
                gbx, gby = cbx + (i & 1), cby + (i >> 1)
                if cbp_chroma == 2:
                    f, c = ent.residual(4, cbf_inc_cac(comp, gby, gbx), 15)
                else:
                    f, c = 0, np.zeros(15, dtype=np.int32)
                fr.cbf_cac[comp, gby, gbx] = f
                tc[gby, gbx] = int(np.count_nonzero(c))
                blocks.append(c)
            acs.append(blocks)
        return dc[0], dc[1], acs[0], acs[1]

    cm_inc = (1 if nb_cmode(mby, mbx - 1) else 0) \
        + 2 * (1 if nb_cmode(mby - 1, mbx) else 0)

    if mb_type == 0 and t8_allowed:
        inc8 = (1 if (mbclass(mby, mbx - 1) > 0
                      and fr.t8[mby, mbx - 1]) else 0) \
            + (1 if (mbclass(mby - 1, mbx) > 0
                     and fr.t8[mby - 1, mbx]) else 0)
        if ent.t8_flag(inc8):  # I_8x8
            fr.t8[mby, mbx] = 1
            modes8 = []
            for b in range(4):
                cx4, cy4 = bx0 + 2 * (b & 1), by0 + 2 * (b >> 1)
                mode = ent.i4_mode(_i8_pred_mode(fr, cx4, cy4))
                fr.i4[cy4:cy4 + 2, cx4:cx4 + 2] = mode
                modes8.append(mode)
            chroma_mode = ent.chroma_mode(cm_inc)
            cbp = ent.cbp(nb_cbp(mby, mbx - 1), nb_cbp(mby - 1, mbx))
            cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
            if cbp:
                delta = ent.qp_delta(fr.prev_qp_delta != 0)
                qp = (qp + delta + 52) % 52
                fr.prev_qp_delta = delta
            else:
                fr.prev_qp_delta = 0
            blocks64 = []
            for b in range(4):
                cx4, cy4 = bx0 + 2 * (b & 1), by0 + 2 * (b >> 1)
                if cbp_luma & (1 << b):
                    scan64 = ent.residual8()
                else:
                    scan64 = np.zeros(64, dtype=np.int32)
                blocks64.append(scan64)
                # a coded 8x8 has no own cbf bin: neighbors read its cbp
                # bit (§9.3.3.1.1.9 for 8x8-transform MBs)
                fr.cbf_l4[cy4:cy4 + 2, cx4:cx4 + 2] = \
                    1 if (cbp_luma >> b) & 1 else 0
                for k in range(4):
                    gbx, gby = cx4 + (k & 1), cy4 + (k >> 1)
                    fr.tcY[gby, gbx] = int(np.count_nonzero(scan64[k::4]))
            chroma = chroma_residuals(cbp_chroma)
            fr.mb_class[mby, mbx] = 1
            fr.cbp_arr[mby, mbx] = cbp
            fr.cmode_arr[mby, mbx] = chroma_mode
            _recon_i8_luma(fr, mbx, mby, modes8, blocks64, qp)
            _recon_chroma(fr, mbx, mby, chroma_mode, chroma, qp,
                          chroma_qp_off)
            fr.mb_done[mby, mbx] = True
            fr.mb_qp[mby, mbx] = qp
            return qp

    if mb_type == 0:  # I_NxN
        modes = []
        for i in range(16):
            x, y = _BLK_XY[i]
            gbx, gby = bx0 + x // 4, by0 + y // 4
            ma = int(fr.i4[gby, gbx - 1]) \
                if (gbx > 0 and fr.same_slice(gby >> 2, (gbx - 1) >> 2)) \
                else -1
            mb_ = int(fr.i4[gby - 1, gbx]) \
                if (gby > 0 and fr.same_slice((gby - 1) >> 2, gbx >> 2)) \
                else -1
            pred = 2 if (ma < 0 or mb_ < 0) else min(ma, mb_)
            mode = ent.i4_mode(pred)
            fr.i4[gby, gbx] = mode
            modes.append(mode)
        chroma_mode = ent.chroma_mode(cm_inc)
        cbp = ent.cbp(nb_cbp(mby, mbx - 1), nb_cbp(mby - 1, mbx))
        cbp_luma, cbp_chroma = cbp & 15, cbp >> 4
        if cbp:
            delta = ent.qp_delta(fr.prev_qp_delta != 0)
            qp = (qp + delta + 52) % 52
            fr.prev_qp_delta = delta
        else:
            fr.prev_qp_delta = 0  # inferred 0 (§7.4.5)
        luma_coeffs = []
        for i in range(16):
            x, y = _BLK_XY[i]
            gbx, gby = bx0 + x // 4, by0 + y // 4
            if cbp_luma & (1 << (i // 4)):
                f, c = ent.residual(2, cbf_inc_l4(gby, gbx), 16)
            else:
                f, c = 0, np.zeros(16, dtype=np.int32)
            fr.cbf_l4[gby, gbx] = f
            fr.tcY[gby, gbx] = int(np.count_nonzero(c))
            luma_coeffs.append(c)
        chroma = chroma_residuals(cbp_chroma)
        fr.mb_class[mby, mbx] = 1
        fr.cbp_arr[mby, mbx] = cbp
        fr.cmode_arr[mby, mbx] = chroma_mode
        _recon_i4_luma(fr, mbx, mby, modes, luma_coeffs, qp)
        _recon_chroma(fr, mbx, mby, chroma_mode, chroma, qp, chroma_qp_off)
        fr.mb_done[mby, mbx] = True
        fr.mb_qp[mby, mbx] = qp
        return qp

    # Intra_16x16
    k = mb_type - 1
    pred_mode = k % 4
    cbp_chroma = (k // 4) % 3
    cbp_luma = 15 if k >= 12 else 0
    chroma_mode = ent.chroma_mode(cm_inc)
    delta = ent.qp_delta(fr.prev_qp_delta != 0)
    qp = (qp + delta + 52) % 52
    fr.prev_qp_delta = delta
    f0, dc_scan = ent.residual(0, cbf_inc_ldc(), 16)
    fr.cbf_ldc[mby, mbx] = f0
    ac = []
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        if cbp_luma:
            f, c = ent.residual(1, cbf_inc_l4(gby, gbx), 15)
        else:
            f, c = 0, np.zeros(15, dtype=np.int32)
        fr.cbf_l4[gby, gbx] = f
        fr.tcY[gby, gbx] = int(np.count_nonzero(c))
        ac.append(c)
    chroma = chroma_residuals(cbp_chroma)
    fr.mb_class[mby, mbx] = 2
    fr.cbp_arr[mby, mbx] = cbp_luma | (cbp_chroma << 4)
    fr.cmode_arr[mby, mbx] = chroma_mode
    _recon_i16_luma(fr, mbx, mby, pred_mode, dc_scan, ac, qp)
    _recon_chroma(fr, mbx, mby, chroma_mode, chroma, qp, chroma_qp_off)
    fr.mb_done[mby, mbx] = True
    fr.mb_qp[mby, mbx] = qp
    return qp


def _plan_mb_cabac(src, fr: _Frame, mbx: int, mby: int, qp: int,
                   chroma_qp_off: int, kind: str, mb_i: int) -> dict:
    """Choose one CABAC MB's syntax values + quantized coefficients against
    the CURRENT recon state (scratch copies, no fr mutation beyond
    slice_no).  Deliberately varies qp_delta / cbp / modes by position so
    fixtures cover every binarization branch (qp_delta unary > 1 bins,
    cbp_luma 0, cbp_chroma 0/1/2, cbf 0 blocks, chroma_mode TU tails).
    Unlike the CAVLC planner there is no trailing-ones nudge — CABAC has
    no such stream invariant."""
    sy, scb, scr = src
    px, py, cx, cy = 16 * mbx, 16 * mby, 8 * mbx, 8 * mby
    bx0, by0 = 4 * mbx, 4 * mby
    fr.slice_no[mby, mbx] = fr.cur_slice  # _mb_cabac sets the same value
    if kind == "pcm":
        return {"mb_type": 25, "pcm_planes": (
            sy[py:py + 16, px:px + 16].astype(np.uint8),
            scb[cy:cy + 8, cx:cx + 8].astype(np.uint8),
            scr[cy:cy + 8, cx:cx + 8].astype(np.uint8))}
    av_t = mby > 0 and fr.mb_done[mby - 1, mbx] and fr.same_slice(mby - 1, mbx)
    av_l = mbx > 0 and fr.mb_done[mby, mbx - 1] and fr.same_slice(mby, mbx - 1)
    cmode = [0, 1, 2, 3][(mbx + mby) % 4] if (av_t and av_l) else 0
    qp_delta = [0, 2, -2, 0, 5][mb_i % 5]
    new_qp = (qp + qp_delta + 52) % 52
    qpc = _chroma_qp(new_qp, chroma_qp_off)

    def chroma_plan(cbp_chroma: int, coeffs: list) -> None:
        """Append chroma DC (and AC when cbp_chroma == 2) scan arrays in
        parse order (both DCs, then 4 Cb ACs, then 4 Cr ACs) — only the
        arrays the parser will actually request for this cbp_chroma."""
        if not cbp_chroma:
            return
        per_comp = []
        for plane, rplane in ((scb, fr.Cb), (scr, fr.Cr)):
            topc = rplane[cy - 1, cx:cx + 8] if av_t \
                else np.full(8, 128, np.int64)
            leftc = rplane[cy:cy + 8, cx - 1] if av_l \
                else np.full(8, 128, np.int64)
            tlc = int(rplane[cy - 1, cx - 1]) if (av_t and av_l) else 128
            predc = _pred_chroma(cmode, topc, leftc, tlc, av_t, av_l)
            res = plane[cy:cy + 8, cx:cx + 8].astype(np.int64) - predc
            dcg = np.zeros((2, 2), np.int64)
            acs = []
            for i in range(4):
                bx, by = 4 * (i & 1), 4 * (i >> 1)
                W = transform4x4(res[by:by + 4, bx:bx + 4])
                dcg[i >> 1, i & 1] = W[0, 0]
                q = quant4x4(W, qpc)
                q[0, 0] = 0
                acs.append(scan_order(q)[1:].astype(np.int32))
            fdc = _H2 @ dcg @ _H2
            per_comp.append((_quant_dc(fdc, qpc).reshape(-1).astype(np.int32),
                             acs))
        for dc_lv, _ in per_comp:
            coeffs.append(dc_lv)
        if cbp_chroma == 2:
            for _, acs in per_comp:
                coeffs.extend(acs)

    if kind == "i16":
        pred_mode = [2, 0, 1, 3][(mbx + 2 * mby) % 4]
        if pred_mode in (0, 3) and not av_t:
            pred_mode = 2
        if pred_mode in (1, 3) and not av_l:
            pred_mode = 2
        cbp_luma_on = 0 if mb_i % 6 == 5 else 1
        cbp_chroma = (2, 1, 0)[mb_i % 3] if av_t or av_l else 2
        coeffs = []
        top = fr.Y[py - 1, px:px + 16] if av_t else np.full(16, 128, np.int64)
        left = fr.Y[py:py + 16, px - 1] if av_l else np.full(16, 128, np.int64)
        tl = int(fr.Y[py - 1, px - 1]) if (av_t and av_l) else 128
        pred = _pred16x16(pred_mode, top, left, tl, av_t, av_l)
        res = sy[py:py + 16, px:px + 16].astype(np.int64) - pred
        dcg = np.zeros((4, 4), np.int64)
        acs = []
        for i in range(16):
            x, y = _BLK_XY[i]
            W = transform4x4(res[y:y + 4, x:x + 4])
            dcg[y // 4, x // 4] = W[0, 0]
            q = quant4x4(W, new_qp)
            q[0, 0] = 0
            acs.append(scan_order(q)[1:].astype(np.int32))
        fdc = hadamard4x4(dcg)
        fdc = np.sign(fdc) * (np.abs(fdc) >> 1)  # spec forward DC: /2
        coeffs.append(scan_order(
            _quant_dc(fdc, new_qp).reshape(4, 4)).astype(np.int32))
        if cbp_luma_on:
            coeffs.extend(acs)
        chroma_plan(cbp_chroma, coeffs)
        return {
            "mb_type": 1 + pred_mode + 4 * cbp_chroma + 12 * cbp_luma_on,
            "chroma_mode": cmode, "qp_delta": qp_delta, "coeffs": coeffs,
        }

    if kind == "i8":
        cbp_chroma = (2, 1, 0)[mb_i % 3] if av_t or av_l else 2
        scY = fr.Y.copy()
        rec_map = fr.recon.copy()
        modes8 = []
        blocks = []
        for b in range(4):
            cx4, cy4 = bx0 + 2 * (b & 1), by0 + 2 * (b >> 1)
            gx, gy = px + 8 * (b & 1), py + 8 * (b >> 1)
            at = cy4 > 0 and rec_map[cy4 - 1, cx4] \
                and rec_map[cy4 - 1, cx4 + 1] \
                and fr.same_slice((cy4 - 1) >> 2, cx4 >> 2)
            al = cx4 > 0 and rec_map[cy4, cx4 - 1] \
                and rec_map[cy4 + 1, cx4 - 1] \
                and fr.same_slice(cy4 >> 2, (cx4 - 1) >> 2)
            cand = _i4_avail_modes(at, al)
            mode = cand[(b + mbx + 3 * mby) % len(cand)]
            modes8.append(mode)
            sc = _Frame.__new__(_Frame)
            sc.Y, sc.recon = scY, rec_map
            sc.slice_no, sc.cur_slice = fr.slice_no, fr.cur_slice
            top, left, tl, eat, eal, eatl = _luma_edges8x8(sc, gx, gy)
            ft, fl, ftl = _filter_ref8x8(top, left, tl, eat, eal, eatl)
            p8 = _pred8x8(mode, ft, fl, ftl, eat, eal)
            res = sy[gy:gy + 8, gx:gx + 8].astype(np.int64) - p8
            scan64 = scan_order8(
                quant8x8(transform8x8(res), new_qp)).astype(np.int32)
            blocks.append(scan64)
            rec = p8 + itransform8x8(dequant8x8(scan64, new_qp))
            scY[gy:gy + 8, gx:gx + 8] = np.clip(rec, 0, 255)
            rec_map[cy4:cy4 + 2, cx4:cx4 + 2] = True
        # an 8x8 block has no cbf bin — the cbp bit IS the flag, so it
        # must reflect actual content
        cbp_luma = sum(1 << b for b in range(4) if np.any(blocks[b]))
        cbp = cbp_luma | (cbp_chroma << 4)
        if cbp == 0:
            qp_delta = 0  # mb_qp_delta absent
        coeffs = [blocks[b] for b in range(4) if (cbp_luma >> b) & 1]
        chroma_plan(cbp_chroma, coeffs)
        return {
            "mb_type": 0, "t8": 1, "i4_modes": modes8, "chroma_mode": cmode,
            "cbp": cbp, "qp_delta": qp_delta, "coeffs": coeffs,
        }

    # kind == "i4"
    variant = mb_i % 7
    cbp_luma = 0 if variant == 6 else 15
    cbp_chroma = 1 if variant == 4 else (0 if variant == 6 else 2)
    cbp = cbp_luma | (cbp_chroma << 4)
    if cbp == 0:
        qp_delta = 0  # mb_qp_delta absent, inferred 0
        new_qp = qp
        qpc = _chroma_qp(new_qp, chroma_qp_off)
    scY = fr.Y.copy()
    rec_map = fr.recon.copy()
    modes = []
    coeffs = []
    for i in range(16):
        x, y = _BLK_XY[i]
        gbx, gby = bx0 + x // 4, by0 + y // 4
        gx, gy = px + x, py + y
        at = gby > 0 and rec_map[gby - 1, gbx] \
            and fr.same_slice((gby - 1) >> 2, gbx >> 2)
        al = gbx > 0 and rec_map[gby, gbx - 1] \
            and fr.same_slice(gby >> 2, (gbx - 1) >> 2)
        cand = _i4_avail_modes(at, al)
        mode = cand[(i + mbx + 3 * mby) % len(cand)]
        modes.append(mode)
        sc = _Frame.__new__(_Frame)
        sc.Y, sc.recon = scY, rec_map
        sc.slice_no, sc.cur_slice = fr.slice_no, fr.cur_slice
        top, left, tl, eat, eal, eatr = _luma_edges4x4(sc, gx, gy)
        p4 = _pred4x4(mode, top, left, tl, eat, eal, eatr)
        res = sy[gy:gy + 4, gx:gx + 4].astype(np.int64) - p4
        q = scan_order(quant4x4(transform4x4(res), new_qp)).astype(np.int32) \
            if cbp_luma else np.zeros(16, np.int32)
        if cbp_luma:
            coeffs.append(q)
        rec = p4 + itransform4x4(dequant4x4(q, new_qp))
        scY[gy:gy + 4, gx:gx + 4] = np.clip(rec, 0, 255)
        rec_map[gby, gbx] = True
    chroma_plan(cbp_chroma, coeffs)
    return {
        "mb_type": 0, "t8": 0, "i4_modes": modes, "chroma_mode": cmode,
        "cbp": cbp, "qp_delta": qp_delta, "coeffs": coeffs,
    }


def encode_iframe_slice_cabac(src, sps: dict, pps: dict, qp: int, kind_fn,
                              first_mb: int = 0, n_mbs: int | None = None,
                              fr: "_Frame | None" = None,
                              deblock_idc: int = 1, idr: bool = True,
                              frame_num: int = 0, poc_lsb: int = 0) -> bytes:
    """One CABAC IDR slice RBSP.  The planner picks values; _mb_cabac —
    the decoder's own parse+recon body, running over a _CabacWrite — emits
    the bins and advances reconstruction, so encoder recon == decoder
    recon by construction (the CABAC analogue of the CAVLC encoder's
    decode-back self-check).  I_PCM MBs flush the engine, splice raw
    planes at the byte boundary and restart it (contexts preserved)."""
    hb = _StrBits()
    hb.ue(first_mb)
    hb.ue(7)                      # slice_type = I (all slices in pic)
    hb.ue(pps["pps_id"])
    hb.u(frame_num & ((1 << sps["log2_max_frame_num"]) - 1),
         sps["log2_max_frame_num"])
    if idr:
        hb.ue(0)                  # idr_pic_id
    if sps.get("poc_type", 2) == 0:
        hb.u(poc_lsb & ((1 << sps["log2_max_poc_lsb"]) - 1),
             sps["log2_max_poc_lsb"])
    if idr:
        hb.u(0, 1)                # no_output_of_prior_pics
        hb.u(0, 1)                # long_term_reference
    else:
        hb.u(0, 1)                # adaptive_ref_pic_marking_mode_flag
    hb.se(qp - pps["pic_init_qp"])
    if pps["deblocking_control"]:
        hb.ue(deblock_idc)
        if deblock_idc != 1:
            hb.se(0)
            hb.se(0)
    bits = hb.bits()
    bits += "1" * ((-len(bits)) % 8)  # cabac_alignment_one_bit
    if fr is None:
        fr = _Frame(sps["w_mbs"], sps["h_mbs"])
    fr.prev_qp_delta = 0
    enc = CabacEncoder()
    ent = _CabacWrite(enc, CabacContexts(qp))
    total = sps["w_mbs"] * sps["h_mbs"]
    if n_mbs is None:
        n_mbs = total - first_mb
    cur_qp = qp
    t8_allowed = bool(pps.get("transform_8x8"))
    for mb_i in range(first_mb, first_mb + n_mbs):
        mbx, mby = mb_i % sps["w_mbs"], mb_i // sps["w_mbs"]
        kind = kind_fn(mbx, mby)
        if kind == "i8" and not t8_allowed:
            raise ValueError("kind 'i8' needs a PPS with transform_8x8_mode")
        plan = _plan_mb_cabac(src, fr, mbx, mby, cur_qp,
                              pps["chroma_qp_index_offset"], kind, mb_i)
        ent.set_plan(plan)
        cur_qp = _mb_cabac(ent, fr, mbx, mby, cur_qp,
                           pps["chroma_qp_index_offset"],
                           t8_allowed=t8_allowed)
        assert ent.plan_done(), f"unconsumed plan at MB ({mbx},{mby})"
        ent.end_of_slice(1 if mb_i == first_mb + n_mbs - 1 else 0)
    ent.enc.flush()
    bits += ent.collect()
    bits += "0" * ((-len(bits)) % 8)
    return _bits_to_bytes(bits)


# ---------------------------------------------------------------------------
# High-profile 8x8 transform path — Intra_8x8 macroblocks (§8.3.2 prediction
# with reference filtering, §8.5.13 scaling, the exact §8.5.12.3-shaped 8x8
# inverse butterfly, transform_size_8x8_flag in both entropy coders; CAVLC
# codes each 8x8 as 4 interleaved 4x4 blocks, CABAC as ctxBlockCat 5 with
# the Table 9-43 position->context maps).  Same conformance stance as the
# CAVLC/CABAC tables above: constants transcribed from the public spec,
# validated structurally (the zigzag generator reproduces the file's own
# pinned ZIGZAG_4x4 at n=4) and behaviourally (exact encoder-recon ==
# decoder round-trips); no third-party implementation exists in this
# sandbox to differ against.
# ---------------------------------------------------------------------------


def _zigzag_order(n: int) -> list:
    """(row, col) zigzag scan for an n x n block — the classic diagonal
    walk (H.264 Table 8-8 frame scan at n=8; identical rule at n=4)."""
    out = []
    for d in range(2 * n - 1):
        cells = [(d - c, c) for c in range(max(0, d - n + 1),
                                           min(d, n - 1) + 1)]
        out.extend(cells if d % 2 == 0 else cells[::-1])
    return out


ZIGZAG_8x8 = _zigzag_order(8)
# structural anchor: the same generator must reproduce the hand-pinned 4x4
# scan used by everything above
assert _zigzag_order(4) == [tuple(rc) for rc in ZIGZAG_4x4], \
    "zigzag generator disagrees with the pinned 4x4 scan"

# §8.5.9 normAdjust8x8: 6 position classes; class of (i, j) depends only on
# (i & 3, j & 3)
_DEQ8_V = np.array([
    [20, 18, 32, 19, 25, 24],
    [22, 19, 35, 21, 28, 26],
    [26, 23, 42, 24, 33, 31],
    [28, 25, 45, 26, 35, 33],
    [32, 28, 51, 30, 40, 38],
    [36, 32, 58, 34, 43, 45],
], dtype=np.int64)
_DEQ8_CLASS4 = np.array([[0, 3, 4, 3],
                         [3, 1, 5, 1],
                         [4, 5, 2, 5],
                         [3, 1, 5, 1]], dtype=np.int64)
_DEQ8_CLASS = np.tile(_DEQ8_CLASS4, (2, 2))  # (8, 8) position classes

# encoder-side 8x8 quant multipliers (JM/x264 quant8 tables, same classes)
_MF8 = np.array([
    [13107, 11428, 20972, 12222, 16777, 15481],
    [11916, 10826, 19174, 11058, 14980, 14290],
    [10082, 8943, 15978, 9675, 12710, 11985],
    [9362, 8228, 14913, 8931, 11984, 11259],
    [8192, 7346, 13159, 7740, 10486, 9777],
    [7282, 6428, 11570, 6830, 9118, 8640],
], dtype=np.int64)


def dequant8x8(coeffs_scan: np.ndarray, qp: int) -> np.ndarray:
    """64 scan-order levels -> dequantized 8x8 block (§8.5.13.1 with flat
    weightScale8x8 = 16): qP >= 36 shifts left by qP/6-6, below that a
    rounded right shift by 6-qP/6.  The +32 >> 6 lives in itransform8x8."""
    blk = np.zeros((8, 8), dtype=np.int64)
    for i, (r, c) in enumerate(ZIGZAG_8x8[: coeffs_scan.size]):
        blk[r, c] = int(coeffs_scan[i])
    ls = 16 * _DEQ8_V[qp % 6][_DEQ8_CLASS]
    if qp >= 36:
        return (blk * ls) << (qp // 6 - 6)
    return (blk * ls + (1 << (5 - qp // 6))) >> (6 - qp // 6)


def _idct8_1d(d: np.ndarray) -> np.ndarray:
    """One §8.5.12.3 8-point inverse butterfly over the LAST axis of an
    (..., 8) int64 array."""
    d0, d1, d2, d3 = d[..., 0], d[..., 1], d[..., 2], d[..., 3]
    d4, d5, d6, d7 = d[..., 4], d[..., 5], d[..., 6], d[..., 7]
    a0 = d0 + d4
    a2 = d0 - d4
    a4 = (d2 >> 1) - d6
    a6 = (d6 >> 1) + d2
    b0 = a0 + a6
    b2 = a2 + a4
    b4 = a2 - a4
    b6 = a0 - a6
    a1 = -d3 + d5 - d7 - (d7 >> 1)
    a3 = d1 + d7 - d3 - (d3 >> 1)
    a5 = -d1 + d7 + d5 + (d5 >> 1)
    a7 = d3 + d5 + d1 + (d1 >> 1)
    b1 = (a7 >> 2) + a1
    b3 = a3 + (a5 >> 2)
    b5 = (a3 >> 2) - a5
    b7 = a7 - (a1 >> 2)
    return np.stack([b0 + b7, b2 + b5, b4 + b3, b6 + b1,
                     b6 - b1, b4 - b3, b2 - b5, b0 - b7], axis=-1)


def itransform8x8(d: np.ndarray) -> np.ndarray:
    """Exact 8x8 inverse core transform: row pass, column pass, +32 >> 6."""
    e = _idct8_1d(d.astype(np.int64))              # horizontal
    f = _idct8_1d(e.T).T                           # vertical
    return (f + 32) >> 6


def _dct8_1d(s: np.ndarray) -> np.ndarray:
    """Forward 8-point butterfly (encoder side, the standard integer DCT8
    matched to the inverse above) over the last axis."""
    s07, s16 = s[..., 0] + s[..., 7], s[..., 1] + s[..., 6]
    s25, s34 = s[..., 2] + s[..., 5], s[..., 3] + s[..., 4]
    a0, a1 = s07 + s34, s16 + s25
    a2, a3 = s07 - s34, s16 - s25
    d07, d16 = s[..., 0] - s[..., 7], s[..., 1] - s[..., 6]
    d25, d34 = s[..., 2] - s[..., 5], s[..., 3] - s[..., 4]
    a4 = d16 + d25 + (d07 + (d07 >> 1))
    a5 = d07 - d34 - (d25 + (d25 >> 1))
    a6 = d07 + d34 - (d16 + (d16 >> 1))
    a7 = d16 - d25 + (d34 + (d34 >> 1))
    return np.stack([
        a0 + a1, a4 + (a7 >> 2), a2 + (a3 >> 1), a5 + (a6 >> 2),
        a0 - a1, a6 - (a5 >> 2), (a2 >> 1) - a3, (a4 >> 2) - a7,
    ], axis=-1)


def transform8x8(res: np.ndarray) -> np.ndarray:
    r = res.astype(np.int64)
    return _dct8_1d(_dct8_1d(r).T).T


def quant8x8(w: np.ndarray, qp: int) -> np.ndarray:
    """Encoder quantization matched to dequant8x8 (qbits = 16 + qP/6,
    intra rounding f = 2^qbits / 3)."""
    mf = _MF8[qp % 6][_DEQ8_CLASS]
    qbits = 16 + qp // 6
    f = (1 << qbits) // 3
    sign = np.sign(w)
    return (sign * ((np.abs(w) * mf + f) >> qbits)).astype(np.int64)


def scan_order8(blk: np.ndarray) -> np.ndarray:
    return np.array([blk[r, c] for r, c in ZIGZAG_8x8], dtype=np.int64)


def _filter_ref8x8(top: np.ndarray, left: np.ndarray, tl: int,
                   avail_t: bool, avail_l: bool, avail_tl: bool):
    """§8.3.2.2.1 reference-sample filtering.  ``top`` is 16 raw samples
    (8 above + 8 above-right, above-right already substituted with top[7]
    when unavailable), ``left`` 8 raw samples.  Returns filtered copies."""
    t = top.astype(np.int64)
    l = left.astype(np.int64)
    ft, fl, ftl = t.copy(), l.copy(), int(tl)
    if avail_t:
        ft[0] = (tl + 2 * t[0] + t[1] + 2) >> 2 if avail_tl \
            else (3 * t[0] + t[1] + 2) >> 2
        ft[1:15] = (t[0:14] + 2 * t[1:15] + t[2:16] + 2) >> 2
        ft[15] = (t[14] + 3 * t[15] + 2) >> 2
    if avail_tl:
        if avail_t and avail_l:
            ftl = (t[0] + 2 * tl + l[0] + 2) >> 2
        elif avail_t:
            ftl = (3 * tl + t[0] + 2) >> 2
        elif avail_l:
            ftl = (3 * tl + l[0] + 2) >> 2
    if avail_l:
        fl[0] = (tl + 2 * l[0] + l[1] + 2) >> 2 if avail_tl \
            else (3 * l[0] + l[1] + 2) >> 2
        fl[1:7] = (l[0:6] + 2 * l[1:7] + l[2:8] + 2) >> 2
        fl[7] = (l[6] + 3 * l[7] + 2) >> 2
    return ft, fl, ftl


def _pred8x8(mode: int, top: np.ndarray, left: np.ndarray, tl: int,
             avail_t: bool, avail_l: bool) -> np.ndarray:
    """9 intra 8x8 modes (§8.3.2.2.2-.10) over FILTERED references —
    ``top`` 16 filtered samples, ``left`` 8, ``tl`` the filtered corner."""
    t = top.astype(np.int64)
    l = left.astype(np.int64)

    def T(i):
        return tl if i == -1 else int(t[i])

    def L(i):
        return tl if i == -1 else int(l[i])

    p = np.empty((8, 8), dtype=np.int64)
    if mode == 0:  # Vertical
        if not avail_t:
            raise ValueError("8x8 V pred needs top")
        p[:] = t[:8]
    elif mode == 1:  # Horizontal
        if not avail_l:
            raise ValueError("8x8 H pred needs left")
        p[:] = l[:, None]
    elif mode == 2:  # DC
        if avail_t and avail_l:
            dc = (int(t[:8].sum()) + int(l.sum()) + 8) >> 4
        elif avail_t:
            dc = (int(t[:8].sum()) + 4) >> 3
        elif avail_l:
            dc = (int(l.sum()) + 4) >> 3
        else:
            dc = 128
        p[:] = dc
    elif mode == 3:  # Diagonal Down-Left
        for y in range(8):
            for x in range(8):
                if x == 7 and y == 7:
                    p[y, x] = (t[14] + 3 * t[15] + 2) >> 2
                else:
                    i = x + y
                    p[y, x] = (t[i] + 2 * t[i + 1] + t[i + 2] + 2) >> 2
    elif mode == 4:  # Diagonal Down-Right
        for y in range(8):
            for x in range(8):
                if x > y:
                    i = x - y - 2
                    p[y, x] = (T(i) + 2 * T(i + 1) + T(i + 2) + 2) >> 2
                elif x < y:
                    i = y - x - 2
                    p[y, x] = (L(i) + 2 * L(i + 1) + L(i + 2) + 2) >> 2
                else:
                    p[y, x] = (t[0] + 2 * tl + l[0] + 2) >> 2
    elif mode == 5:  # Vertical-Right
        for y in range(8):
            for x in range(8):
                z = 2 * x - y
                if z >= 0 and z % 2 == 0:
                    i = x - (y >> 1) - 1
                    p[y, x] = (T(i) + T(i + 1) + 1) >> 1
                elif z >= 0:
                    i = x - (y >> 1) - 2
                    p[y, x] = (T(i) + 2 * T(i + 1) + T(i + 2) + 2) >> 2
                elif z == -1:
                    p[y, x] = (l[0] + 2 * tl + t[0] + 2) >> 2
                else:
                    j = y - 2 * x
                    p[y, x] = (L(j - 1) + 2 * L(j - 2) + L(j - 3) + 2) >> 2
    elif mode == 6:  # Horizontal-Down
        for y in range(8):
            for x in range(8):
                z = 2 * y - x
                if z >= 0 and z % 2 == 0:
                    i = y - (x >> 1) - 1
                    p[y, x] = (L(i) + L(i + 1) + 1) >> 1
                elif z >= 0:
                    i = y - (x >> 1) - 2
                    p[y, x] = (L(i) + 2 * L(i + 1) + L(i + 2) + 2) >> 2
                elif z == -1:
                    p[y, x] = (t[0] + 2 * tl + l[0] + 2) >> 2
                else:
                    j = x - 2 * y
                    p[y, x] = (T(j - 1) + 2 * T(j - 2) + T(j - 3) + 2) >> 2
    elif mode == 7:  # Vertical-Left
        for y in range(8):
            for x in range(8):
                i = x + (y >> 1)
                if y % 2 == 0:
                    p[y, x] = (t[i] + t[i + 1] + 1) >> 1
                else:
                    p[y, x] = (t[i] + 2 * t[i + 1] + t[i + 2] + 2) >> 2
    elif mode == 8:  # Horizontal-Up
        for y in range(8):
            for x in range(8):
                z = x + 2 * y
                if z > 13:
                    p[y, x] = l[7]
                elif z == 13:
                    p[y, x] = (l[6] + 3 * l[7] + 2) >> 2
                elif z % 2 == 0:
                    i = y + (x >> 1)
                    p[y, x] = (l[i] + l[i + 1] + 1) >> 1
                else:
                    i = y + (x >> 1)
                    p[y, x] = (l[i] + 2 * l[i + 1] + l[i + 2] + 2) >> 2
    else:
        raise ValueError(f"bad intra8x8 mode {mode}")
    return p


def _luma_edges8x8(fr: _Frame, gx: int, gy: int):
    """(top16_raw, left8_raw, tl, avail_t, avail_l, avail_tl) for the 8x8
    luma block at pixel (gx, gy); above-right already substituted with
    top[7] when unavailable (§8.3.2.1).  Availability reads the decoded
    RECONSTRUCTION bitmap, same rule as _luma_edges4x4."""
    bx, by = gx // 4, gy // 4

    def ok(b_y, b_x):
        return fr.recon[b_y, b_x] and fr.same_slice(b_y >> 2, b_x >> 2)

    av_t = by > 0 and ok(by - 1, bx) and ok(by - 1, bx + 1)
    av_l = bx > 0 and ok(by, bx - 1) and ok(by + 1, bx - 1)
    av_tl = by > 0 and bx > 0 and ok(by - 1, bx - 1)
    av_tr = by > 0 and bx + 3 < fr.recon.shape[1] \
        and ok(by - 1, bx + 2) and ok(by - 1, bx + 3)
    top = np.full(16, 128, dtype=np.int64)
    left = np.full(8, 128, dtype=np.int64)
    tl = 128
    if av_t:
        top[:8] = fr.Y[gy - 1, gx:gx + 8]
        if av_tr:
            top[8:] = fr.Y[gy - 1, gx + 8:gx + 16]
        else:
            top[8:] = top[7]
    if av_l:
        left[:] = fr.Y[gy:gy + 8, gx - 1]
    if av_tl:
        tl = int(fr.Y[gy - 1, gx - 1])
    return top, left, tl, av_t, av_l, av_tl


def _recon_i8_luma(fr: _Frame, mbx: int, mby: int, modes8: list,
                   blocks64: list, qp: int) -> None:
    """Reconstruct the 4 luma 8x8 blocks of an I_8x8 MB in z-order —
    shared by the CAVLC and CABAC parsers and the fixture planner's
    scratch pass."""
    px, py = 16 * mbx, 16 * mby
    for b in range(4):
        gx, gy = px + 8 * (b & 1), py + 8 * (b >> 1)
        top, left, tl, at, al, atl = _luma_edges8x8(fr, gx, gy)
        ft, fl, ftl = _filter_ref8x8(top, left, tl, at, al, atl)
        pred = _pred8x8(modes8[b], ft, fl, ftl, at, al)
        res = itransform8x8(dequant8x8(np.asarray(blocks64[b]), qp))
        fr.Y[gy:gy + 8, gx:gx + 8] = np.clip(pred + res, 0, 255)
        fr.recon[gy // 4:gy // 4 + 2, gx // 4:gx // 4 + 2] = True


def _i8_pred_mode(fr: _Frame, cx4: int, cy4: int) -> int:
    """min(A, B) predictor for an 8x8 block whose top-left 4x4 cell is
    (cx4, cy4) — the fr.i4 grid carries the neighbor's mode whether it was
    a 4x4 or an 8x8 MB (§8.3.2.1 Intra8x8PredMode derivation)."""
    ma = int(fr.i4[cy4, cx4 - 1]) \
        if (cx4 > 0 and fr.same_slice(cy4 >> 2, (cx4 - 1) >> 2)) else -1
    mb_ = int(fr.i4[cy4 - 1, cx4]) \
        if (cy4 > 0 and fr.same_slice((cy4 - 1) >> 2, cx4 >> 2)) else -1
    return 2 if (ma < 0 or mb_ < 0) else min(ma, mb_)
