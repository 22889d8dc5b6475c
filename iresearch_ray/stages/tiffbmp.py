"""From-scratch BMP and baseline-TIFF image codecs, dependency-free numpy.

Scanned-document corpora are dominated by TIFF, and BMP remains a common
interchange dump format; both are pure public specs (Microsoft
BITMAPINFOHEADER; Adobe TIFF 6.0).  Scope:

BMP (``decode_bmp`` / ``encode_bmp``):
- BITMAPFILEHEADER + BITMAPCOREHEADER(12) / BITMAPINFOHEADER(40) /
  V4(108) / V5(124) sizes;
- bit depths 1/4/8 (palette), 16 (555 default or BI_BITFIELDS masks),
  24, 32 (BGRA; alpha ignored), top-down and bottom-up rows, 4-byte row
  padding;
- BI_RLE8 and BI_RLE4 decompression (runs, absolute mode, EOL/EOF/delta
  escapes — deltas leave skipped pixels at palette entry 0, the
  convention real decoders follow).

TIFF (``decode_tiff`` / ``encode_tiff``), baseline + the two classic
compressions:
- II/MM byte orders, single-IFD strip-organized images (tiles raise);
- Compression 1 (none), 32773 (PackBits), 5 (LZW — MSB-first variable
  width codes WITH the spec's "early change", distinct from GIF's
  LSB-first LZW);
- PhotometricInterpretation 0 (WhiteIsZero) / 1 (BlackIsZero) / 2 (RGB)
  / 3 (palette, 16-bit ColorMap scaled >>8);
- BitsPerSample 1/4/8 gray and palette, 8x3 RGB, 8x4 RGBA, 16-bit
  samples scaled >>8; Predictor 2 (horizontal differencing);
- PlanarConfiguration 1 (chunky); 2 raises with a clear message.

Verification stance: no Pillow in this container, so parity is
(a) round-trip — the fixture encoders emit every branch the decoders
parse and tests assert exact pixel equality, and (b) analytic — the
fixed-header byte layouts are asserted against hand-computed offsets,
and hand-built tiny images (known palette indices, known RLE escapes,
known LZW code sequences) pin the wire formats independently of the
encoders.
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# BMP
# ---------------------------------------------------------------------------


def _bmp_palette(buf: bytes, off: int, n: int, entry: int) -> np.ndarray:
    """n palette entries of ``entry`` bytes (BGRX or BGR) -> (n, 3) RGB."""
    raw = np.frombuffer(buf, np.uint8, n * entry, off).reshape(n, entry)
    return raw[:, [2, 1, 0]].copy()


def _bmp_rle(data: bytes, w: int, h: int, four: bool) -> np.ndarray:
    """BI_RLE8 / BI_RLE4 -> (h, w) palette indices (top-down rows)."""
    out = np.zeros((h, w), np.uint8)
    x = y = 0
    i = 0
    n = len(data)
    while i + 1 < n:
        cnt, val = data[i], data[i + 1]
        i += 2
        if cnt:  # run
            if four:
                pix = [(val >> 4) & 15, val & 15]
                run = [pix[k & 1] for k in range(cnt)]
            else:
                run = [val] * cnt
            end = min(x + cnt, w)
            if y < h:
                out[y, x:end] = run[: end - x]
            x += cnt
            continue
        if val == 0:  # end of line
            x, y = 0, y + 1
        elif val == 1:  # end of bitmap
            break
        elif val == 2:  # delta: skipped pixels stay at index 0
            if i + 1 >= n:
                raise ValueError("BMP RLE truncated delta")
            x += data[i]
            y += data[i + 1]
            i += 2
        else:  # absolute mode: val literal pixels, word-aligned
            if four:
                nbytes = (val + 1) // 2
                lits = []
                for k in range(nbytes):
                    b = data[i + k]
                    lits += [(b >> 4) & 15, b & 15]
                lits = lits[:val]
            else:
                nbytes = val
                lits = list(data[i : i + val])
            if i + nbytes > n:
                raise ValueError("BMP RLE truncated absolute run")
            i += nbytes + (nbytes & 1)  # pad to word
            end = min(x + val, w)
            if y < h:
                out[y, x:end] = lits[: end - x]
            x += val
    return out


def decode_bmp(payload: bytes) -> np.ndarray:
    """BMP bytes -> (h, w, 3) uint8 RGB."""
    if len(payload) < 26 or payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    pix_off = struct.unpack_from("<I", payload, 10)[0]
    hdr_size = struct.unpack_from("<I", payload, 14)[0]
    if hdr_size == 12:  # BITMAPCOREHEADER
        w, h = struct.unpack_from("<HH", payload, 18)
        bpp = struct.unpack_from("<H", payload, 24)[0]
        comp, pal_n, entry, pal_off = 0, 0, 3, 14 + 12
        topdown = False
    elif hdr_size in (40, 52, 56, 108, 124):
        w, h = struct.unpack_from("<ii", payload, 18)
        bpp = struct.unpack_from("<H", payload, 28)[0]
        comp = struct.unpack_from("<I", payload, 30)[0]
        pal_n = struct.unpack_from("<I", payload, 46)[0]
        entry, pal_off = 4, 14 + hdr_size
        topdown = h < 0
        h = abs(h)
    else:
        raise ValueError(f"unsupported BMP header size {hdr_size}")
    if w <= 0 or h <= 0 or w > 1 << 16 or h > 1 << 16:
        raise ValueError("bad BMP dimensions")
    masks = None
    if comp == 3:  # BI_BITFIELDS: masks precede (or live in) the palette
        if hdr_size == 40:
            masks = struct.unpack_from("<III", payload, 14 + 40)
            pal_off += 12
        else:
            masks = struct.unpack_from("<III", payload, 54)
    elif comp not in (0, 1, 2):
        raise ValueError(f"unsupported BMP compression {comp}")

    if bpp in (1, 4, 8):
        n_pal = pal_n or (1 << bpp)
        if pal_off + n_pal * entry > len(payload):
            raise ValueError("BMP palette truncated")
        pal = _bmp_palette(payload, pal_off, n_pal, entry)
        if comp in (1, 2):  # RLE8 / RLE4 (always bottom-up per spec)
            if (comp == 1) != (bpp == 8):
                raise ValueError("BMP RLE/bpp mismatch")
            idx = _bmp_rle(payload[pix_off:], w, h, four=(comp == 2))
            idx = idx[::-1]
        else:
            stride = ((w * bpp + 31) // 32) * 4
            if pix_off + stride * h > len(payload):
                raise ValueError("BMP pixel data truncated")
            rows = np.frombuffer(payload, np.uint8, stride * h,
                                 pix_off).reshape(h, stride)
            if bpp == 8:
                idx = rows[:, :w]
            else:
                bits = np.unpackbits(rows, axis=1)
                if bpp == 1:
                    idx = bits[:, :w]
                else:  # 4bpp: regroup nibbles
                    nib = bits.reshape(h, -1, 4)
                    idx = (nib[:, :, 0] * 8 + nib[:, :, 1] * 4
                           + nib[:, :, 2] * 2 + nib[:, :, 3])[:, :w]
            if not topdown:
                idx = idx[::-1]
        if int(idx.max(initial=0)) >= len(pal):
            raise ValueError("BMP palette index out of range")
        return pal[idx]

    if bpp in (16, 24, 32):
        stride = ((w * bpp + 31) // 32) * 4
        if pix_off + stride * h > len(payload):
            raise ValueError("BMP pixel data truncated")
        rows = np.frombuffer(payload, np.uint8, stride * h,
                             pix_off).reshape(h, stride)
        if bpp == 24:
            px = rows[:, : 3 * w].reshape(h, w, 3)[:, :, ::-1]
        elif bpp == 32:
            px = rows[:, : 4 * w].reshape(h, w, 4)[:, :, [2, 1, 0]]
        else:  # 16bpp: 555 default or explicit BI_BITFIELDS masks
            v = rows[:, : 2 * w].copy().view("<u2").reshape(h, w)
            rm, gm, bm = masks if masks else (0x7C00, 0x03E0, 0x001F)
            chans = []
            for m in (rm, gm, bm):
                if not m:
                    raise ValueError("zero BMP channel mask")
                shift = (m & -m).bit_length() - 1
                width = int(m >> shift).bit_length()
                c = (v & m) >> shift
                # scale to 8 bits by bit replication
                c8 = (c * 255) // ((1 << width) - 1)
                chans.append(c8.astype(np.uint8))
            px = np.stack(chans, axis=-1)
        return (px if topdown else px[::-1]).astype(np.uint8)
    raise ValueError(f"unsupported BMP bit depth {bpp}")


def encode_bmp(px: np.ndarray, bpp: int = 24, rle: bool = False,
               topdown: bool = False) -> bytes:
    """(h, w, 3) uint8 RGB -> BMP bytes (fixture encoder covering the
    decoder's branches: 24/32-bit BI_RGB, 16-bit 565 BI_BITFIELDS,
    8/4/1-bit palette, BI_RLE8)."""
    px = np.asarray(px, np.uint8)
    h, w = px.shape[:2]
    if rle and bpp != 8:
        raise ValueError("RLE fixture is 8bpp")
    pal = b""
    masks = b""
    comp = 0
    if bpp in (1, 4, 8):
        # palette = unique colors (must fit)
        flat = px.reshape(-1, 3)
        uniq, inv = np.unique(flat, axis=0, return_inverse=True)
        if len(uniq) > (1 << bpp):
            raise ValueError(f"too many colors for {bpp}bpp palette")
        pal_arr = np.zeros((1 << bpp, 4), np.uint8)
        pal_arr[: len(uniq), 0] = uniq[:, 2]
        pal_arr[: len(uniq), 1] = uniq[:, 1]
        pal_arr[: len(uniq), 2] = uniq[:, 0]
        pal = pal_arr.tobytes()
        idx = inv.reshape(h, w).astype(np.uint8)
        if not topdown:
            idx = idx[::-1]
        if rle:
            comp = 1
            out = bytearray()
            for row in idx:
                x = 0
                while x < w:
                    run = 1
                    while x + run < w and run < 255 \
                            and row[x + run] == row[x]:
                        run += 1
                    out += bytes([run, int(row[x])])
                    x += run
                out += b"\x00\x00"  # EOL
            out[-2:] = b"\x00\x01"  # EOF replaces the last EOL
            data = bytes(out)
        else:
            stride = ((w * bpp + 31) // 32) * 4
            if bpp == 8:
                rows = np.zeros((h, stride), np.uint8)
                rows[:, :w] = idx
            else:
                bits = np.zeros((h, stride * 8), np.uint8)
                if bpp == 1:
                    bits[:, :w] = idx
                else:
                    bits[:, : 4 * w : 4] = (idx >> 3) & 1
                    bits[:, 1 : 4 * w : 4] = (idx >> 2) & 1
                    bits[:, 2 : 4 * w : 4] = (idx >> 1) & 1
                    bits[:, 3 : 4 * w : 4] = idx & 1
                rows = np.packbits(bits, axis=1)
            data = rows.tobytes()
    elif bpp == 16:
        comp = 3
        masks = struct.pack("<III", 0xF800, 0x07E0, 0x001F)  # 565
        v = ((px[:, :, 0].astype(np.uint16) >> 3) << 11) \
            | ((px[:, :, 1].astype(np.uint16) >> 2) << 5) \
            | (px[:, :, 2].astype(np.uint16) >> 3)
        if not topdown:
            v = v[::-1]
        stride = ((w * 16 + 31) // 32) * 4
        rows = np.zeros((h, stride), np.uint8)
        rows[:, : 2 * w] = v.astype("<u2").view(np.uint8).reshape(h, 2 * w)
        data = rows.tobytes()
    elif bpp in (24, 32):
        stride = ((w * bpp + 31) // 32) * 4
        rows = np.zeros((h, stride), np.uint8)
        if bpp == 24:
            rows[:, : 3 * w] = px[:, :, ::-1].reshape(h, 3 * w)
        else:
            bgra = np.zeros((h, w, 4), np.uint8)
            bgra[:, :, :3] = px[:, :, ::-1]
            bgra[:, :, 3] = 255
            rows[:, : 4 * w] = bgra.reshape(h, 4 * w)
        data = (rows if topdown else rows[::-1]).tobytes()
    else:
        raise ValueError(f"unsupported fixture bpp {bpp}")
    hdr_size = 40
    pix_off = 14 + hdr_size + len(masks) + len(pal)
    info = struct.pack("<IiiHHIIiiII", hdr_size, w, -h if topdown else h,
                       1, bpp, comp, len(data), 2835, 2835,
                       (1 << bpp) if pal else 0, 0)
    file_hdr = struct.pack("<2sIHHI", b"BM", pix_off + len(data), 0, 0,
                           pix_off)
    return file_hdr + info + masks + pal + data


# ---------------------------------------------------------------------------
# TIFF
# ---------------------------------------------------------------------------

_TIFF_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
                   10: 8, 11: 4, 12: 8}


def _packbits_decode(data: bytes, expected: int) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n and len(out) < expected:
        b = data[i]
        i += 1
        if b == 128:  # noop
            continue
        if b < 128:  # literal run of b+1
            out += data[i : i + b + 1]
            i += b + 1
        else:  # repeat next byte 257-b times
            if i >= n:
                raise ValueError("PackBits truncated")
            out += bytes([data[i]]) * (257 - b)
            i += 1
    if len(out) < expected:
        raise ValueError("PackBits underrun")
    return bytes(out[:expected])


def _packbits_encode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 2:
            out += bytes([257 - run, data[i]])
            i += run
            continue
        lit = i
        while i < n and i - lit < 128:
            run = 1
            while i + run < n and run < 3 and data[i + run] == data[i]:
                run += 1
            if run >= 3:
                break
            i += 1
        out += bytes([i - lit - 1]) + data[lit:i]
    return bytes(out)


def _tiff_lzw_decode(data: bytes, expected: int) -> bytes:
    """TIFF 6.0 §13 LZW: MSB-first variable-width codes, Clear=256,
    EOI=257, table grows from 258 with the spec's EARLY width change
    (the width bumps when the table reaches 2^w - 1, one entry before a
    late-change coder would)."""
    out = bytearray()
    acc = 0
    nacc = 0
    nbits = 9
    table: list = []
    prev = None
    i = 0
    n = len(data)
    while len(out) < expected:
        while nacc < nbits:
            if i >= n:
                raise ValueError("TIFF LZW truncated")
            acc = (acc << 8) | data[i]
            nacc += 8
            i += 1
        code = (acc >> (nacc - nbits)) & ((1 << nbits) - 1)
        nacc -= nbits
        if code == 256:  # Clear
            table = [bytes([k]) for k in range(256)] + [b"", b""]
            nbits = 9
            prev = None
            continue
        if code == 257:  # EOI
            break
        if prev is None:
            if not table or code >= len(table):
                raise ValueError("TIFF LZW code before Clear")
            entry = table[code]
        else:
            if code < len(table):
                entry = table[code]
            elif code == len(table):
                entry = prev + prev[:1]
            else:
                raise ValueError("TIFF LZW code out of range")
            table.append(prev + entry[:1])
        out += entry
        prev = entry
        # early change, decoder side: the decoder's table runs ONE entry
        # behind the encoder's (it learns an entry only from the NEXT
        # code), so it widens at 2^n - 2 where the encoder widens at
        # 2^n - 1 — both then read/write the next code at n+1 bits
        if len(table) >= (1 << nbits) - 2 and nbits < 12:
            nbits += 1
    if len(out) < expected:
        raise ValueError("TIFF LZW underrun")
    return bytes(out[:expected])


def _tiff_lzw_encode(data: bytes) -> bytes:
    """Matching early-change LZW coder (fixtures)."""
    out = bytearray()
    acc = 0
    nacc = 0
    nbits = 9

    def emit(code: int) -> None:
        nonlocal acc, nacc
        acc = (acc << nbits) | code
        nacc += nbits
        while nacc >= 8:
            out.append((acc >> (nacc - 8)) & 0xFF)
            nacc -= 8

    table = {bytes([k]): k for k in range(256)}
    nxt = 258
    emit(256)  # Clear
    cur = b""
    for byte in data:
        cand = cur + bytes([byte])
        if cand in table:
            cur = cand
            continue
        emit(table[cur])
        table[cand] = nxt
        nxt += 1
        if nxt >= (1 << nbits) - 1 and nbits < 12:  # early change
            nbits += 1
        if nxt > 4093:  # reset before the 12-bit table fills
            emit(256)
            table = {bytes([k]): k for k in range(256)}
            nxt = 258
            nbits = 9
        cur = bytes([byte])
    if cur:
        emit(table[cur])
    emit(257)  # EOI
    if nacc:
        out.append((acc << (8 - nacc)) & 0xFF)
    return bytes(out)


def _ifd_values(buf: bytes, e: str, typ: int, count: int, raw: bytes):
    size = _TIFF_TYPE_SIZE.get(typ)
    if size is None:
        return None
    total = size * count
    if total <= 4:
        data = raw[:total]
    else:
        off = struct.unpack(e + "I", raw)[0]
        if off + total > len(buf):
            raise ValueError("TIFF value offset out of range")
        data = buf[off : off + total]
    if typ in (3,):
        return list(struct.unpack(e + "H" * count, data))
    if typ in (4,):
        return list(struct.unpack(e + "I" * count, data))
    if typ in (1, 6, 7, 2):
        return list(data)
    if typ == 5:
        vals = struct.unpack(e + "II" * count, data)
        return [vals[2 * k] / max(1, vals[2 * k + 1]) for k in range(count)]
    return list(data)


def decode_tiff(payload: bytes) -> np.ndarray:
    """TIFF bytes -> (h, w) gray, (h, w, 3) RGB or (h, w, 4) RGBA uint8
    (first IFD; strips; compression none/PackBits/LZW; predictor 1/2)."""
    if len(payload) < 8:
        raise ValueError("not a TIFF payload")
    order = payload[:2]
    if order == b"II":
        e = "<"
    elif order == b"MM":
        e = ">"
    else:
        raise ValueError("not a TIFF payload")
    if struct.unpack(e + "H", payload[2:4])[0] != 42:
        raise ValueError("bad TIFF magic")
    ifd = struct.unpack(e + "I", payload[4:8])[0]
    if ifd + 2 > len(payload):
        raise ValueError("TIFF IFD out of range")
    n_ent = struct.unpack(e + "H", payload[ifd : ifd + 2])[0]
    tags = {}
    for k in range(n_ent):
        off = ifd + 2 + 12 * k
        if off + 12 > len(payload):
            raise ValueError("TIFF IFD truncated")
        tag, typ, count = struct.unpack(e + "HHI", payload[off : off + 8])
        tags[tag] = (typ, count, payload[off + 8 : off + 12])

    def get(tag, default=None):
        if tag not in tags:
            return default
        typ, count, raw = tags[tag]
        return _ifd_values(payload, e, typ, count, raw)

    if 322 in tags or 323 in tags:
        raise ValueError("tiled TIFF not supported (strips only)")
    w = get(256)
    h = get(257)
    if not w or not h:
        raise ValueError("TIFF missing dimensions")
    w, h = int(w[0]), int(h[0])
    spp = int(get(277, [1])[0])
    bps = get(258, [1] * spp)
    comp = int(get(259, [1])[0])
    photo = int(get(262, [1])[0])
    pred = int(get(317, [1])[0])
    planar = int(get(284, [1])[0])
    if planar != 1:
        raise ValueError("planar TIFF (PlanarConfiguration=2) not "
                         "supported")
    if comp not in (1, 5, 8, 32946, 32773):
        raise ValueError(f"unsupported TIFF compression {comp}")
    if len(set(bps)) != 1:
        raise ValueError("mixed BitsPerSample not supported")
    depth = int(bps[0])
    if depth not in (1, 4, 8, 16):
        raise ValueError(f"unsupported TIFF bit depth {depth}")
    if spp > 1 and depth not in (8, 16):
        raise ValueError("multi-sample TIFF needs 8/16-bit samples")
    offs = get(273)
    counts = get(279)
    rps = int(get(278, [h])[0]) or h
    if not offs or not counts or len(offs) != len(counts):
        raise ValueError("TIFF strips missing")
    row_bytes = (w * spp * depth + 7) // 8
    rows = []
    for si, (o, c) in enumerate(zip(offs, counts)):
        o, c = int(o), int(c)
        if o + c > len(payload):
            raise ValueError("TIFF strip out of range")
        nrows = min(rps, h - si * rps)
        if nrows <= 0:
            raise ValueError("TIFF has more strips than rows")
        raw = payload[o : o + c]
        want = row_bytes * nrows
        if comp == 1:
            if len(raw) < want:
                raise ValueError("TIFF strip truncated")
            data = raw[:want]
        elif comp == 32773:
            data = _packbits_decode(raw, want)
        elif comp in (8, 32946):  # Deflate (8 = Adobe, 32946 = legacy)
            import zlib

            try:
                data = zlib.decompress(raw)
            except zlib.error as exc:
                raise ValueError(f"TIFF deflate strip: {exc}") from exc
            if len(data) < want:
                raise ValueError("TIFF deflate underrun")
            data = data[:want]
        else:
            data = _tiff_lzw_decode(raw, want)
        rows.append(np.frombuffer(data, np.uint8).reshape(nrows, row_bytes))
    grid = np.concatenate(rows, axis=0)
    if grid.shape[0] != h:
        raise ValueError("TIFF row count mismatch")
    if depth == 8:
        img = grid[:, : w * spp].reshape(h, w, spp).astype(np.int64)
    elif depth == 16:
        img = grid[:, : 2 * w * spp].copy().view(e + "u2") \
            .reshape(h, w, spp).astype(np.int64)
    else:
        bits = np.unpackbits(grid, axis=1)
        if depth == 1:
            img = bits[:, :w].reshape(h, w, 1).astype(np.int64)
        else:
            nib = bits[:, : ((w + 1) // 2) * 8].reshape(h, -1, 4)
            vals = (nib[:, :, 0] * 8 + nib[:, :, 1] * 4
                    + nib[:, :, 2] * 2 + nib[:, :, 3])
            img = vals[:, :w].reshape(h, w, 1).astype(np.int64)
    if pred == 2:
        if depth not in (8, 16):
            raise ValueError("predictor 2 needs 8/16-bit samples")
        img = np.cumsum(img, axis=1) & ((1 << depth) - 1)
    elif pred != 1:
        raise ValueError(f"unsupported TIFF predictor {pred}")
    if depth == 16:
        img >>= 8  # scale to 8-bit output
        depth = 8
    if photo == 3:  # palette
        cmap = get(320)
        if not cmap or len(cmap) < 3 * (1 << int(bps[0])):
            raise ValueError("palette TIFF missing ColorMap")
        ncol = len(cmap) // 3
        pal = (np.array(cmap, np.int64).reshape(3, ncol).T >> 8) \
            .astype(np.uint8)
        idx = img[:, :, 0]
        if int(idx.max(initial=0)) >= ncol:
            raise ValueError("TIFF palette index out of range")
        return pal[idx]
    if photo in (0, 1):
        maxv = (1 << int(bps[0])) - 1 if int(bps[0]) < 8 else 255
        g = (img[:, :, 0] * 255) // maxv if maxv != 255 else img[:, :, 0]
        if photo == 0:  # WhiteIsZero
            g = 255 - g
        return g.astype(np.uint8)
    if photo == 2:
        if spp < 3:
            raise ValueError("RGB TIFF needs >= 3 samples")
        return img[:, :, : (4 if spp >= 4 else 3)].astype(np.uint8)
    raise ValueError(f"unsupported TIFF photometric {photo}")


def encode_tiff(px: np.ndarray, compression: str = "none",
                photometric: "str | None" = None, predictor: int = 1,
                rows_per_strip: int = 0, big_endian: bool = False,
                depth: int = 8) -> bytes:
    """Fixture TIFF writer covering the decoder's surface.  ``px``:
    (h, w) gray, (h, w, 3) RGB or (h, w, 4) RGBA uint8.
    ``photometric``: None (auto), 'gray', 'gray0' (WhiteIsZero),
    'palette' (gray input becomes indices into an identity gray
    ColorMap).  ``depth``: 8 or 16 (16 stores v<<8)."""
    px = np.asarray(px, np.uint8)
    e = ">" if big_endian else "<"
    if px.ndim == 2:
        spp = 1
        photo = {"gray0": 0, None: 1, "gray": 1, "palette": 3}[photometric]
    else:
        spp = px.shape[2]
        photo = 2
    h, w = px.shape[:2]
    comp_id = {"none": 1, "packbits": 32773, "lzw": 5,
               "deflate": 8}[compression]
    if depth not in (8, 16):
        raise ValueError("fixture depth is 8 or 16")
    samples = px.reshape(h, w, spp).astype(np.uint16)
    if photo == 0:  # WhiteIsZero stores the INVERTED intensity
        samples = 255 - samples
    if depth == 16:
        samples = samples << 8
    if predictor == 2:
        d = samples.astype(np.int64)
        d[:, 1:] = (d[:, 1:] - d[:, :-1]) & ((1 << depth) - 1)
        samples = d.astype(np.uint16)
    if depth == 8:
        raw_rows = samples.astype(np.uint8).reshape(h, w * spp)
    else:
        raw_rows = samples.astype(e + "u2").view(np.uint8) \
            .reshape(h, 2 * w * spp)
    rps = rows_per_strip or h
    strips = []
    for y0 in range(0, h, rps):
        chunk = raw_rows[y0 : y0 + rps].tobytes()
        if compression == "packbits":
            chunk = _packbits_encode(chunk)
        elif compression == "lzw":
            chunk = _tiff_lzw_encode(chunk)
        elif compression == "deflate":
            import zlib

            chunk = zlib.compress(chunk, 6)
        strips.append(chunk)

    entries = []  # (tag, type, count, value-bytes or int)
    extra = bytearray()
    data_off = [0]  # patched later

    def ent(tag, typ, vals):
        vals = vals if isinstance(vals, (list, tuple)) else [vals]
        fmt = {3: "H", 4: "I"}[typ]
        size = _TIFF_TYPE_SIZE[typ] * len(vals)
        packed = struct.pack(e + fmt * len(vals), *vals)
        entries.append((tag, typ, len(vals), packed, size))

    ent(256, 4, w)
    ent(257, 4, h)
    ent(258, 3, [depth] * spp)
    ent(259, 3, comp_id)
    ent(262, 3, photo)
    ent(273, 4, [0] * len(strips))  # patched
    ent(277, 3, spp)
    ent(278, 4, rps)
    ent(279, 4, [len(s) for s in strips])
    if predictor == 2:
        ent(317, 3, 2)
    if photo == 3:
        cmap = [v << 8 for v in range(256)] * 3
        ent(320, 3, cmap)
    entries.sort(key=lambda t: t[0])

    # layout: header(8) + IFD + next-ptr + overflow values + strip data
    ifd_off = 8
    ifd_size = 2 + 12 * len(entries) + 4
    overflow_off = ifd_off + ifd_size
    overflow = bytearray()
    fixed = []
    for tag, typ, count, packed, size in entries:
        if size <= 4:
            fixed.append((tag, typ, count, packed + b"\0" * (4 - size)))
        else:
            fixed.append((tag, typ, count,
                          struct.pack(e + "I", overflow_off + len(overflow))))
            overflow += packed
    strip_base = overflow_off + len(overflow)
    offs = []
    pos = strip_base
    for s in strips:
        offs.append(pos)
        pos += len(s)
    # patch StripOffsets (tag 273)
    out_entries = []
    for tag, typ, count, val in fixed:
        if tag == 273:
            packed = struct.pack(e + "I" * len(offs), *offs)
            if len(packed) <= 4:
                val = packed + b"\0" * (4 - len(packed))
            else:
                # the placeholder already reserved overflow space of the
                # same size (counts match), so overwrite it in place
                idx = None
                probe = 0
                for t2, ty2, c2, p2, s2 in entries:
                    if s2 > 4:
                        if t2 == 273:
                            idx = probe
                            break
                        probe += s2
                if idx is None:
                    raise AssertionError("strip offsets lost")
                overflow[idx : idx + len(packed)] = packed
        out_entries.append((tag, typ, count, val))
    buf = bytearray()
    buf += order_bytes(e) + struct.pack(e + "HI", 42, ifd_off)
    buf += struct.pack(e + "H", len(out_entries))
    for tag, typ, count, val in out_entries:
        buf += struct.pack(e + "HHI", tag, typ, count) + val
    buf += struct.pack(e + "I", 0)  # next IFD
    buf += overflow
    for s in strips:
        buf += s
    return bytes(buf)


def order_bytes(e: str) -> bytes:
    return b"II" if e == "<" else b"MM"
