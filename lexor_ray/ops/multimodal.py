"""Multimodal column plumbing: opaque binary payloads with typed
metadata, decoded and feature-extracted in one stateless-task stage,
:func:`media_pipeline`.

Two REAL pure-numpy codecs are implemented — 24-bit BMP
(:func:`decode_bmp`) and 8-bit RGB PNG with full five-filter
unfiltering (:func:`decode_png`, stdlib zlib inflate) — so the decode
stage genuinely decodes pixels for those media types. ``image/fake``
payloads are raw pixel bytes; JPEG-class formats (no codec library in
this container) raise ``NotImplementedError`` in :func:`decode_image`,
the one media-type dispatch. Either way the Ray-side plumbing is real
and tested: binary columns ride Arrow blocks zero-copy, batches are
sized small for wide rows, and the output layout (feature statistics
+ scalar metadata) is what a production decoder would produce.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pyarrow as pa

from .util import table_rows, tbl


def encode_bmp(pixels: np.ndarray) -> bytes:
    """Minimal 24-bit uncompressed BMP encoder (public format:
    BITMAPFILEHEADER + BITMAPINFOHEADER, BGR rows bottom-up, rows
    padded to 4 bytes). ``pixels`` is (h, w, 3) uint8 RGB."""
    h, w, _ = pixels.shape
    row_raw = w * 3
    pad = (4 - row_raw % 4) % 4
    img_size = (row_raw + pad) * h
    header = struct.pack("<2sIHHI", b"BM", 54 + img_size, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, img_size, 2835, 2835, 0, 0)
    bgr = pixels[::-1, :, ::-1]  # bottom-up rows, RGB→BGR
    if pad:
        rows = np.zeros((h, row_raw + pad), dtype=np.uint8)
        rows[:, :row_raw] = bgr.reshape(h, row_raw)
        body = rows.tobytes()
    else:
        body = bgr.tobytes()
    return header + info + body


def decode_bmp(data: bytes) -> np.ndarray:
    """Real decode of a 24-bit uncompressed BMP → (h, w, 3) uint8 RGB.
    Pure struct + numpy — no image library needed; raises ValueError
    on anything that isn't a plain 24bpp BMP."""
    if len(data) < 54 or data[:2] != b"BM":
        raise ValueError("not a BMP payload")
    offset = struct.unpack_from("<I", data, 10)[0]
    hdr_size, w, h = struct.unpack_from("<Iii", data, 14)
    planes, bpp = struct.unpack_from("<HH", data, 26)
    compression = struct.unpack_from("<I", data, 30)[0]
    if hdr_size < 40 or bpp != 24 or compression != 0 or h <= 0 or w <= 0:
        raise ValueError("unsupported BMP variant")
    row_raw = w * 3
    stride = (row_raw + 3) & ~3
    body = np.frombuffer(data, dtype=np.uint8, count=stride * h, offset=offset)
    rows = body.reshape(h, stride)[:, :row_raw].reshape(h, w, 3)
    return rows[::-1, :, ::-1]  # bottom-up → top-down, BGR→RGB


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data))
    )


def encode_png(pixels: np.ndarray) -> bytes:
    """Minimal 8-bit RGB PNG encoder (public format: RFC 2083 —
    IHDR/IDAT/IEND chunks, zlib-deflated scanlines, filter 0 per
    row). ``pixels`` is (h, w, 3) uint8 RGB. Pure struct+numpy+zlib,
    no image library."""
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = np.zeros((h, 1 + w * 3), dtype=np.uint8)
    rows[:, 1:] = pixels.reshape(h, w * 3)  # filter byte 0 + raw row
    idat = zlib.compress(rows.tobytes(), 6)
    return (
        _PNG_SIG
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", idat)
        + _png_chunk(b"IEND", b"")
    )


def decode_png(data: bytes) -> np.ndarray:
    """Real decode of an 8-bit RGB (color type 2, non-interlaced) PNG
    → (h, w, 3) uint8 RGB: chunk walk, zlib inflate, scanline
    UNFILTER for all five PNG filter types (None/Sub/Up/Average/
    Paeth). Pure struct+numpy+zlib; raises ValueError on any variant
    outside that profile."""
    if len(data) < 8 or data[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, w = 8, None
    idat = b""
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, ctype, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", body
            )
            if depth != 8 or ctype != 2 or comp != 0 or filt != 0 or interlace != 0:
                raise ValueError("unsupported PNG variant")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    raw = zlib.decompress(idat)
    stride = w * 3
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG scanline size mismatch")
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    filters = lines[:, 0]
    out = np.zeros((h, stride), dtype=np.uint8)
    bpp = 3
    for y in range(h):
        f = int(filters[y])
        cur = lines[y, 1:].copy()
        prev = out[y - 1] if y else np.zeros(stride, dtype=np.uint8)
        if f == 0:
            pass
        elif f == 1:  # Sub — per-channel prefix sum mod 256 (vectorized)
            cur = (
                lines[y, 1:]
                .reshape(w, bpp)
                .astype(np.int64)
                .cumsum(axis=0)
                .astype(np.uint8)
                .reshape(stride)
            )
        elif f == 2:  # Up — fully vectorized (uint8 wraparound)
            cur = cur + prev
        elif f == 3:  # Average — sequential in x, channel-vectorized
            cur2 = cur.reshape(w, bpp).astype(np.int64)
            prev2 = prev.reshape(w, bpp).astype(np.int64)
            left = np.zeros(bpp, dtype=np.int64)
            for x in range(w):
                left = (cur2[x] + ((left + prev2[x]) >> 1)) & 0xFF
                cur2[x] = left
            cur = cur2.astype(np.uint8).reshape(stride)
        elif f == 4:  # Paeth — sequential in x, channel-vectorized
            cur2 = cur.reshape(w, bpp).astype(np.int64)
            prev2 = prev.reshape(w, bpp).astype(np.int64)
            left = np.zeros(bpp, dtype=np.int64)
            ul = np.zeros(bpp, dtype=np.int64)
            for x in range(w):
                b = prev2[x]
                p = left + b - ul
                pa_, pb_, pc_ = abs(p - left), abs(p - b), abs(p - ul)
                pred = np.where(
                    (pa_ <= pb_) & (pa_ <= pc_),
                    left,
                    np.where(pb_ <= pc_, b, ul),
                )
                left = (cur2[x] + pred) & 0xFF
                cur2[x] = left
                ul = b
            cur = cur2.astype(np.uint8).reshape(stride)
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = cur
    return out.reshape(h, w, 3)


def _media_row(i: int):
    """(payload, media_type, w, h, pixels) for doc_id ``i`` — the
    single generation-side source of truth shared by
    :func:`synthesize_media` and the golden composer
    (:func:`media_golden_path`). ``pixels`` is the PRE-ENCODE array:
    (h, w, 3) for the real codecs, the raw bytes reshaped (h, w) for
    fake payloads — the golden derives every expected invariant from
    it without ever calling a decoder."""
    seed = hashlib.blake2b(f"{i}".encode(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(seed, "big"))
    w = int(8 + (i % 8))
    h = int(8 + (i % 5))
    if i % 5 == 0:
        pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        return encode_bmp(pix), "image/bmp", w, h, pix
    if i % 5 == 3:
        pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        return encode_png(pix), "image/png", w, h, pix
    raw = rng.integers(0, 256, w * h, dtype=np.uint8)
    return raw.tobytes(), "image/fake", w, h, raw.reshape(h, w)


def synthesize_media(sf_dir: str):
    """Derive a deterministic binary 'media' column from documents:
    payload + typed metadata columns (media_type, width, height).
    Every fifth document carries a REAL 24-bit BMP and every
    ``doc_id % 5 == 3`` document a REAL 8-bit RGB PNG (both formats
    decodable with pure numpy+zlib — :func:`decode_bmp`,
    :func:`decode_png`); the rest carry the seeded pseudo-image bytes.
    Stands in for a real `(doc_id, payload, meta)` media table with
    mixed codecs."""
    ds = tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def make(batch: pa.Table) -> pa.Table:
        payloads, types, widths, heights = [], [], [], []
        for i in batch.column("doc_id").to_pylist():
            payload, mtype, w, h, _ = _media_row(i)
            payloads.append(payload)
            types.append(mtype)
            widths.append(w)
            heights.append(h)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "payload": pa.array(payloads, type=pa.binary()),
                "media_type": pa.array(types),
                "width": pa.array(widths, type=pa.int32()),
                "height": pa.array(heights, type=pa.int32()),
            }
        )

    return ds.map_batches(make, batch_format="pyarrow")


def decode_image(payload: bytes, media_type: str, w: int, h: int) -> np.ndarray:
    """The one media-type → pixel-array dispatch: real decode for
    BMP/PNG, the documented fake-payload reshape for ``image/fake``.
    A fake payload must hold exactly ``w * h`` bytes, one per pixel;
    any other length raises ``ValueError``. Any other media type
    raises ``NotImplementedError``: there is no codec library for
    JPEG-class formats in this environment."""
    if media_type == "image/bmp":
        return decode_bmp(payload)
    if media_type == "image/png":
        return decode_png(payload)
    if media_type != "image/fake":
        raise NotImplementedError(f"no codec for {media_type!r} in this environment")
    if len(payload) != w * h:
        raise ValueError(
            f"{media_type} payload is {len(payload)} bytes, but the size "
            f"contract needs width * height = {w} * {h} = {w * h} bytes"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def features_from_pixels(pix: np.ndarray, payload: bytes) -> np.ndarray:
    """Feature vector of a decoded pixel array: mean, std, pixel
    count and a payload checksum (float32). For a fake payload the
    statistics are those of its raw bytes, since its pixels are
    those bytes."""
    return np.array(
        [
            float(pix.mean()),
            float(pix.std()),
            float(pix.shape[0] * pix.shape[1]),
            float(zlib.crc32(payload) % 1_000_000),
        ],
        dtype=np.float32,
    )


def media_pipeline(sf_dir: str, frame_bytes: int = 16, every_k: int = 4,
                   out_w: int = 4, out_h: int = 4):
    """Decode → feature-extract → frame-sample → resize in ONE scan,
    one row per document: (doc_id, n_bytes, feat_mean,
    n_frames_sampled, resize_checksum). The payload is decoded once;
    the features and the nearest-neighbour resize checksum both come
    from that pixel array, and the frame count treats the payload as
    ``frame_bytes``-sized frames of which every ``every_k``-th is
    kept. Batches are small because the binary rows are wide."""
    ds = synthesize_media(sf_dir)

    def stage(batch: pa.Table) -> pa.Table:
        n_bytes, feat_mean, n_frames, checks = [], [], [], []
        for p, m, w, h in zip(
            batch.column("payload").to_pylist(),
            batch.column("media_type").to_pylist(),
            batch.column("width").to_pylist(),
            batch.column("height").to_pylist(),
        ):
            n_bytes.append(len(p))
            n_frames.append(len(range(0, len(p) // frame_bytes, every_k)))
            img = decode_image(p, m, w, h)
            feat_mean.append(float(np.round(features_from_pixels(img, p)[0], 3)))
            yi = (np.arange(out_h) * h) // out_h
            xi = (np.arange(out_w) * w) // out_w
            checks.append(int(img[np.ix_(yi, xi)].sum()))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bytes": pa.array(n_bytes, type=pa.int64()),
                "feat_mean": pa.array(feat_mean, type=pa.float64()),
                "n_frames_sampled": pa.array(n_frames, type=pa.int64()),
                "resize_checksum": pa.array(checks, type=pa.int64()),
            }
        )

    # UNORDERED output (README ordering contract): consumers key by
    # doc_id, so no presentation sort follows the scan.
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=64)


#: bump on ANY change to _media_row / the media_pipeline output
#: derivation below (the transcripts.GEN_VERSION rule applied here)
MEDIA_GOLDEN_VERSION = "v1"

_MEDIA_GOLDEN_LOCK = __import__("threading").Lock()


def media_golden_path(
    sf_dir: str,
    frame_bytes: int = 16,
    every_k: int = 4,
    out_w: int = 4,
    out_h: int = 4,
) -> str:
    """Compose + cache the GENERATION-TIME expected
    :func:`media_pipeline` table for ``sf_dir`` (the clean_text golden
    pattern, r4 verdict item 5): every invariant — n_bytes, feat_mean,
    n_frames_sampled, resize_checksum — is derived from the PRE-ENCODE
    pixels / raw bytes of :func:`_media_row`, never through
    decode_image/features_from_pixels, so oracle equality genuinely
    gates the decode path (decode∘encode == id for the real codecs).
    Returns the cached parquet path (under /tmp/lexor_ray_data,
    versioned by ``MEDIA_GOLDEN_VERSION``); composition is locked for
    the GATE_WORKERS-overlapped correctness gate."""
    import os

    import pyarrow.parquet as pq

    from ..transcripts import DEFAULT_BASE, sf_from_dir

    out_dir = os.path.join(DEFAULT_BASE, f"sf{sf_from_dir(sf_dir)}", "media_golden")
    marker = os.path.join(out_dir, "_meta.txt")
    path = os.path.join(out_dir, "golden.parquet")
    with _MEDIA_GOLDEN_LOCK:
        # the stamp only needs the row COUNT — metadata-only, so the
        # gate's cache-hit path never reads a data column (r5 review)
        src_pq = os.path.join(sf_dir, "documents.parquet")
        n_docs = table_rows(sf_dir, "documents")
        stamp = (
            f"gen={MEDIA_GOLDEN_VERSION} docs={n_docs} fb={frame_bytes} "
            f"k={every_k} w={out_w} h={out_h}\n"
        )
        if os.path.exists(marker) and os.path.exists(path):
            with open(marker) as fh:
                if fh.read() == stamp:
                    return path
        ids = pq.read_table(src_pq, columns=["doc_id"])[
            "doc_id"
        ].to_numpy(zero_copy_only=False)
        os.makedirs(out_dir, exist_ok=True)
        yi_cache = {}
        n_bytes, feat_mean, n_frames, checks = [], [], [], []
        for i in ids:
            payload, mtype, w, h, pixels = _media_row(int(i))
            n_bytes.append(len(payload))
            n_frames.append(len(range(0, len(payload) // frame_bytes, every_k)))
            # identical float path to features_from_pixels: float32
            # mean of the (pre-encode == decoded, lossless codecs) pixel
            # array for real media, of the raw bytes for fake — then
            # round(.., 3)
            src = pixels if mtype != "image/fake" else np.frombuffer(
                payload, dtype=np.uint8
            )
            feat_mean.append(float(np.round(np.float32(src.mean()), 3)))
            if (w, h) not in yi_cache:
                yi_cache[(w, h)] = np.ix_(
                    (np.arange(out_h) * h) // out_h, (np.arange(out_w) * w) // out_w
                )
            checks.append(int(pixels[yi_cache[(w, h)]].sum()))
        table = pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_bytes": pa.array(n_bytes, type=pa.int64()),
                "feat_mean": pa.array(feat_mean, type=pa.float64()),
                "n_frames_sampled": pa.array(n_frames, type=pa.int64()),
                "resize_checksum": pa.array(checks, type=pa.int64()),
            }
        )
        pq.write_table(table, path)
        with open(marker + ".tmp", "w") as fh:
            fh.write(stamp)
        os.replace(marker + ".tmp", marker)
    return path


def media_byte_totals(sf_dir: str):
    """Scalar roll-up over the media table (SQL-checkable against the
    deterministic synthesis): doc_id, n_bytes = width*height."""
    ds = synthesize_media(sf_dir)

    def sizes(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_bytes": pc.cast(
                    pc.multiply(batch["width"], batch["height"]), pa.int64()
                ),
            }
        )

    return ds.map_batches(sizes, batch_format="pyarrow")
