"""Multimodal (image/audio/video) columns as opaque binary + typed metadata.

The reference's precedent is GDAL's raster-driver decode surface (frmts/,
114 drivers) — binary payloads with declared shape/type metadata. Here each
modality is a `binary` column + metadata columns; decode/resize/feature
stages are actor-pool map_batches stages whose RAY-SIDE PLUMBING (schema,
batch sizing, actor lifecycle, output layout) is real and tested. Two
codecs decode FOR REAL, dependency-free: PNG (raster/png.py, zlib-only)
and WAV/RIFF PCM (stages/audio.py); jpeg/webp/mp3/video formats still
need external libraries — marked with NotImplementedError escape hatches
(swap into `_decode_payload` / `AudioStage` in production).

Memory note: binary payloads are WIDE rows — batches must stay small
(batch rows x payload size x concurrency must fit a worker heap), which is
why these stages default to small explicit batch budgets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from gdal_ray.util import splitmix64


def synth_image_column(ds, *, id_col: str, width=32, height=32,
                       fmt: str = "raw-rgb8"):
    """Attach a deterministic image payload + metadata columns — stands
    in for reading a real image-bytes column. fmt='raw-rgb8' stores raw
    uint8 RGB bytes; fmt='png' stores REAL PNG-encoded bytes (the
    dependency-free raster/png.py codec), so the downstream decode path
    exercises a genuine compressed format end-to-end."""
    if fmt not in ("raw-rgb8", "png"):
        raise ValueError("fmt must be 'raw-rgb8' or 'png'")

    def f(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = []
        for i in ids:
            rng_seed = splitmix64(np.array([i], dtype=np.int64))[0]
            # deterministic pseudo-image: xor-pattern seeded by the id
            xs = np.arange(width, dtype=np.uint64)
            ys = np.arange(height, dtype=np.uint64)
            img = ((xs[None, :] * 7 + ys[:, None] * 13 + rng_seed) & np.uint64(0xFF)).astype(np.uint8)
            rgb = np.repeat(img[:, :, None], 3, axis=2)
            if fmt == "png":
                from gdal_ray.raster.png import encode_png

                payloads.append(encode_png(rgb))
            else:
                payloads.append(rgb.tobytes())
        t = t.append_column("image", pa.array(payloads, pa.binary()))
        t = t.append_column("img_width", pa.array(np.full(len(ids), width, np.int32)))
        t = t.append_column("img_height", pa.array(np.full(len(ids), height, np.int32)))
        t = t.append_column("img_format", pa.array([fmt] * len(ids), pa.string()))
        return t

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def _decode_payload(buf: bytes, fmt: str, w: int, h: int) -> np.ndarray:
    """Codec boundary. raw-rgb8 and png decode FOR REAL (png via the
    dependency-free raster/png.py codec — a genuine compressed image
    format end-to-end, not a fake); jpeg/webp/video formats would need an
    image library this container does not ship."""
    if fmt == "raw-rgb8":
        return np.frombuffer(buf, np.uint8).reshape(h, w, 3)
    if fmt == "png":
        from gdal_ray.raster.png import decode_png

        img = decode_png(bytes(buf))
        if img.ndim == 2:  # grayscale -> 3-channel for the feature path
            img = np.repeat(img[:, :, None], 3, axis=2)
        return img[:, :, :3].astype(np.uint8)
    if fmt in ("jpeg", "jpg"):
        from gdal_ray.raster.jpeg import decode_jpeg

        img = decode_jpeg(bytes(buf))
        if img.ndim == 2:
            img = np.repeat(img[:, :, None], 3, axis=2)
        return img[:, :, :3].astype(np.uint8)
    raise NotImplementedError(
        f"codec {fmt!r}: real decode requires an image library (e.g. "
        "webp/video need ffmpeg); plug it into ImageStage._decode"
    )


class ImageStage:
    """Actor-pool stage: decode -> resize (nearest) -> per-image features
    (mean/std per channel + perceptual-hash-style signature). State that a
    real deployment loads once (codec handles, model weights) belongs in
    __init__; __call__ is per batch."""

    def __init__(self, *, out_size: int = 8, image_col: str = "image"):
        self.out = out_size
        self.col = image_col

    def _resize_nearest(self, img: np.ndarray) -> np.ndarray:
        h, w, _ = img.shape
        yi = (np.arange(self.out) * h // self.out)
        xi = (np.arange(self.out) * w // self.out)
        return img[yi[:, None], xi[None, :]]

    def __call__(self, t: pa.Table) -> pa.Table:
        means, stds, sigs = [], [], []
        fmts = t["img_format"].to_pylist()
        ws = t["img_width"].to_pylist()
        hs = t["img_height"].to_pylist()
        for buf, fmt, w, h in zip(t[self.col].to_pylist(), fmts, ws, hs):
            img = _decode_payload(buf, fmt, w, h)
            small = self._resize_nearest(img).astype(np.float64)
            means.append(float(img.mean()))
            stds.append(float(img.std()))
            # dHash-style signature over the grayscale thumbnail
            g = small.mean(axis=2)
            bits = (g[:, 1:] > g[:, :-1]).ravel()
            sig = np.uint64(0)
            for b in bits[:64]:
                sig = (sig << np.uint64(1)) | np.uint64(bool(b))
            sigs.append(sig)
        out = t.drop_columns([self.col])  # payload never flows past decode
        out = out.append_column("img_mean", pa.array(means))
        out = out.append_column("img_std", pa.array(stds))
        out = out.append_column("img_sig", pa.array(np.array(sigs, dtype=np.uint64)))
        return out


def image_features(ds, *, concurrency=(1, 4), batch_size: int = 256):
    """The wired pipeline: small batches (wide binary rows), actor pool,
    payload dropped at the decode boundary."""
    return ds.map_batches(
        ImageStage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def frame_samples(ds, *, n_frames: int = 4, payload_col: str = "image",
                  concurrency=(1, 4), batch_size: int = 256):
    """Wired frame-sampling pipeline (flat-map: one row per sampled frame)."""
    return ds.map_batches(
        AudioFrameSampler,
        fn_constructor_kwargs={"n_frames": n_frames, "payload_col": payload_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class AudioFrameSampler:
    """Frame-sample stage for audio/video-style payloads: deterministic
    frame offsets, emits one row per sampled frame (flat-map shape)."""

    def __init__(self, *, n_frames: int = 4, payload_col: str = "image"):
        self.n = n_frames
        self.col = payload_col

    def __call__(self, t: pa.Table) -> pa.Table:
        rows_id, rows_frame, rows_hash = [], [], []
        ids = t.column_names[0]
        id_vals = t[ids].to_pylist()
        for rid, buf in zip(id_vals, t[self.col].to_pylist()):
            n = len(buf)
            for k in range(self.n):
                off = (n * k) // self.n
                chunk = buf[off : off + max(1, n // self.n)]
                rows_id.append(rid)
                rows_frame.append(k)
                rows_hash.append(hashlib.md5(chunk).hexdigest())
        return pa.table(
            {
                "id": pa.array(rows_id),
                "frame": pa.array(rows_frame, pa.int32()),
                "frame_md5": pa.array(rows_hash, pa.string()),
            }
        )


class ImageDHasher:
    """Actor-pool stage: 64-bit difference hash (dHash) per image — the
    standard perceptual near-dup signature for image dedup (public
    algorithm: resize to 9x8 grayscale, hash the sign of horizontal
    gradients). Composes with ops.graph.dedup_survivors for cluster-level
    image dedup the same way MinHash does for text."""

    def __init__(self, *, image_col: str = "image", out: str = "dhash"):
        self.col = image_col
        self.out = out
        self.bit_masks = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def _dhash(self, img: np.ndarray) -> np.uint64:
        gray = img.astype(np.float64).mean(axis=2)
        h, w = gray.shape
        yi = (np.arange(8) * h // 8)
        xi = (np.arange(9) * w // 9)
        small = gray[yi[:, None], xi[None, :]]       # 8x9
        bits = (small[:, 1:] > small[:, :-1]).ravel()  # 64 gradient signs
        return (bits.astype(np.uint64) * self.bit_masks).sum()

    def __call__(self, t: pa.Table) -> pa.Table:
        out = np.zeros(len(t), np.uint64)
        ws = t["img_width"].to_numpy(zero_copy_only=False)
        hs = t["img_height"].to_numpy(zero_copy_only=False)
        fmts = t["img_format"].to_pylist()
        for i, buf in enumerate(t[self.col].to_pylist()):
            img = _decode_payload(buf, fmts[i], int(ws[i]), int(hs[i]))
            out[i] = self._dhash(img)
        return t.append_column(self.out, pa.array(out))


def image_dedup_exact(ds, id_col: str, *, image_col: str = "image",
                      concurrency=(1, 4)):
    """Exact perceptual dedup: dHash signature -> first-per-hash winners
    (ops.relational.first_by, same merge rule as text exact_dedup). Returns
    (dhash, <id_col> survivors)."""
    from gdal_ray.ops.relational import first_by

    hashed = ds.map_batches(ImageDHasher,
                            fn_constructor_kwargs={"image_col": image_col},
                            batch_format="pyarrow", batch_size=None,
                            concurrency=concurrency)
    sel = hashed.map_batches(lambda t: t.select(["dhash", id_col]),
                             batch_format="pyarrow", batch_size=None)
    return first_by(sel, ["dhash"], [id_col])
