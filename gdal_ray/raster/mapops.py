"""Per-tile raster map operations + focal (neighborhood) statistics.

Reference surface: `gdal raster calc` (muparser expressions,
apps/gdalalg_raster_calc.cpp:585), `reclassify`
(apps/gdalalg_raster_reclassify.h:28), `scale`, `set-type`
(apps/gdalalg_raster_*.cpp) — all stateless per-pixel math -> one
vectorized numpy fn per tile row. `raster neighbors` focal statistics
(apps/gdalalg_raster_neighbors.h:30-31) needs halo pixels from the 8
neighbor tiles -> implemented as a HALO-EXCHANGE shuffle: every tile posts
its border strips to its neighbors' keys, groupby(tile) assembles the
padded array, then one windowed kernel pass. Two shuffle rounds total,
strips only (never whole tiles duplicated 9x).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.raster.checksum import checksum as _checksum

TILE = 256


def _tile_arr(row, dtype):
    return np.frombuffer(row, dtype=dtype).reshape(TILE, TILE)


def tile_calc(tiles_ds, fn, *, dtype=np.uint32, out_dtype=None):
    """`gdal raster calc`: arbitrary vectorized expression per tile.
    fn: np.ndarray -> np.ndarray (same shape)."""
    out_dtype = out_dtype or dtype

    def f(t: pa.Table) -> pa.Table:
        datas = []
        sums = []
        for buf in t["data"].to_pylist():
            arr = fn(_tile_arr(buf, dtype)).astype(out_dtype)
            datas.append(arr.tobytes())
            sums.append(_checksum(arr))
        t = t.set_column(t.schema.get_field_index("data"), "data", pa.array(datas, pa.binary()))
        if "checksum" in t.column_names:
            t = t.set_column(t.schema.get_field_index("checksum"), "checksum", pa.array(sums, pa.int64()))
        return t

    return tiles_ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def tile_calc_expr(named_tiles: dict, expr: str, *, dtype=np.uint32,
                   out_dtype=None, fill=0.0):
    """gdal_calc.py analog: a STRING expression over named tile inputs,
    e.g. tile_calc_expr({"A": density, "B": mask}, "A * B + 10").

    The expression parses with the repo's SQL expression grammar
    (arithmetic, comparisons, CASE, ABS/ROUND/FLOOR/CEIL, ...) and
    evaluates vectorized per tile with band letters as columns. Inputs
    union by (tile_x, tile_y); a tile missing from an input contributes
    `fill` (gdal_calc's behavior for out-of-extent inputs with
    --NoDataValue handling simplified). Single-input expressions are the
    streaming tile_calc fast path."""
    from gdal_ray.ops.sql import Parser, eval_expr, tokenize

    out_dtype = out_dtype or dtype
    node = Parser(tokenize(expr)).expr()
    names = sorted(named_tiles)

    if len(named_tiles) == 1:
        name = names[0]

        def fn(arr):
            t = pa.table({name: pa.array(arr.ravel().astype(np.float64))})
            v = eval_expr(node, t)
            if isinstance(v, pa.Scalar):
                return np.full(arr.shape, v.as_py(), np.float64)
            return np.asarray(v).reshape(arr.shape)

        return tile_calc(named_tiles[name], fn, dtype=dtype, out_dtype=out_dtype)

    def tag(ds, letter):
        def f(t: pa.Table, L=letter) -> pa.Table:
            return pa.table({
                "tile_x": t["tile_x"], "tile_y": t["tile_y"],
                "band": pa.array([L] * len(t), pa.string()),
                "data": t["data"],
            })

        return ds.map_batches(f, batch_format="pyarrow", batch_size=None)

    u = tag(named_tiles[names[0]], names[0])
    for n in names[1:]:
        u = u.union(tag(named_tiles[n], n))

    def compose(g: pa.Table) -> pa.Table:
        arrs = {}
        shape = None
        for band, d in zip(g["band"].to_pylist(), g["data"].to_pylist()):
            a = np.frombuffer(d, dtype=dtype).astype(np.float64)
            arrs[band] = a
            shape = a.shape
        cols = {n: pa.array(arrs.get(n, np.full(shape, fill))) for n in names}
        v = eval_expr(node, pa.table(cols))
        out = (np.full(shape, v.as_py(), np.float64) if isinstance(v, pa.Scalar)
               else np.asarray(v)).astype(out_dtype)
        return pa.table({
            "tile_x": [g["tile_x"][0].as_py()],
            "tile_y": [g["tile_y"][0].as_py()],
            "data": [out.tobytes()],
            "checksum": [_checksum(out.reshape(int(np.sqrt(out.size)), -1))],
        })

    return u.groupby(["tile_x", "tile_y"]).map_groups(compose, batch_format="pyarrow")


def tile_reclassify(tiles_ds, mapping: list[tuple[float, float, float]], *,
                    dtype=np.uint32, default=0):
    """`gdal raster reclassify`: [(lo, hi, new_value)] half-open ranges."""

    def fn(arr):
        out = np.full_like(arr, default)
        for lo, hi, val in mapping:
            out[(arr >= lo) & (arr < hi)] = val
        return out

    return tile_calc(tiles_ds, fn, dtype=dtype)


def tile_scale(tiles_ds, *, gain: float, offset: float = 0.0, dtype=np.uint32,
               out_dtype=np.float32):
    """`gdal raster scale`: linear rescale (and set-type via out_dtype)."""
    return tile_calc(tiles_ds, lambda a: a.astype(np.float64) * gain + offset,
                     dtype=dtype, out_dtype=out_dtype)


def halo_apply(tiles_ds, kernel, *, radius: int = 1, dtype=np.uint32,
               out_dtype=np.float32):
    """Generic halo-exchange stage: assemble each tile with `radius` halo
    pixels from its 8 neighbors, apply kernel(padded (TILE+2r)^2 float64) ->
    (TILE, TILE) array. Powers focal stats and the DEM ops.

    Raster-boundary tiles have no neighbor on some sides; those halo cells
    are filled by REPLICATING the tile's own edge pixels (gdaldem's edge
    convention) — never phantom zeros. Kernels that need to distinguish
    real from replicated halo accept a second arg: kernel(pad, have) where
    `have` is True only for cells backed by an actual tile (fill_nodata
    uses this so replicated halo never counts as a valid neighbor)."""
    import inspect

    kernel_wants_mask = len(inspect.signature(kernel).parameters) >= 2

    def fan(t: pa.Table) -> pa.Table:
        rows = {"t_x": [], "t_y": [], "role": [], "src_x": [], "src_y": [], "data": []}
        zs = t["zoom"].to_pylist() if "zoom" in t.column_names else [0] * len(t)
        for tx, ty, buf in zip(t["tile_x"].to_pylist(), t["tile_y"].to_pylist(), t["data"].to_pylist()):
            arr = _tile_arr(buf, dtype)
            # self
            rows["t_x"].append(tx); rows["t_y"].append(ty); rows["role"].append("self")
            rows["src_x"].append(tx); rows["src_y"].append(ty); rows["data"].append(buf)
            # 8 neighbor strips (only the halo pixels the neighbor needs)
            strips = {
                (-1, 0): arr[:, :radius], (1, 0): arr[:, -radius:],
                (0, -1): arr[:radius, :], (0, 1): arr[-radius:, :],
                (-1, -1): arr[:radius, :radius], (1, -1): arr[:radius, -radius:],
                (-1, 1): arr[-radius:, :radius], (1, 1): arr[-radius:, -radius:],
            }
            for (dx, dy), strip in strips.items():
                rows["t_x"].append(tx + dx); rows["t_y"].append(ty + dy)
                rows["role"].append(f"halo_{-dx}_{-dy}")
                rows["src_x"].append(tx); rows["src_y"].append(ty)
                rows["data"].append(np.ascontiguousarray(strip).tobytes())
        return pa.table({k: pa.array(v) for k, v in rows.items()})

    fanned = tiles_ds.map_batches(fan, batch_format="pyarrow", batch_size=None)

    def assemble(g: pa.Table) -> pa.Table:
        roles, datas = g["role"].to_pylist(), g["data"].to_pylist()
        if "self" not in roles:  # halo for a tile that doesn't exist
            return pa.table({"tile_x": pa.array([], pa.int64()),
                             "tile_y": pa.array([], pa.int64()),
                             "data": pa.array([], pa.binary()),
                             "checksum": pa.array([], pa.int64())})
        i = roles.index("self")
        tx, ty = g["t_x"][i].as_py(), g["t_y"][i].as_py()
        n = TILE + 2 * radius
        pad = np.zeros((n, n), dtype=np.float64)
        have = np.zeros((n, n), dtype=bool)
        pad[radius:-radius, radius:-radius] = _tile_arr(datas[i], dtype)
        have[radius:-radius, radius:-radius] = True
        regions = {
            (-1, 0): (slice(radius, -radius), slice(0, radius), (TILE, radius)),
            (1, 0): (slice(radius, -radius), slice(-radius, None), (TILE, radius)),
            (0, -1): (slice(0, radius), slice(radius, -radius), (radius, TILE)),
            (0, 1): (slice(-radius, None), slice(radius, -radius), (radius, TILE)),
            (-1, -1): (slice(0, radius), slice(0, radius), (radius, radius)),
            (1, -1): (slice(0, radius), slice(-radius, None), (radius, radius)),
            (-1, 1): (slice(-radius, None), slice(0, radius), (radius, radius)),
            (1, 1): (slice(-radius, None), slice(-radius, None), (radius, radius)),
        }
        for role, data in zip(roles, datas):
            if role == "self":
                continue
            dx, dy = (int(v) for v in role.split("_")[1:])
            rs, cs, shape = regions[(dx, dy)]
            pad[rs, cs] = np.frombuffer(data, dtype=dtype).reshape(shape)
            have[rs, cs] = True
        if not have.all():
            # raster-boundary sides: edge replication matching a whole-array
            # np.pad(mode="edge") — clip one axis at a time, preferring a
            # received side strip over the tile interior so corners next to
            # an existing neighbor replicate that neighbor's edge pixel
            ii, jj = np.nonzero(~have)
            ci = np.clip(ii, radius, radius + TILE - 1)
            cj = np.clip(jj, radius, radius + TILE - 1)
            vert = have[ci, jj]
            horiz = have[ii, cj]
            src_i = np.where(vert, ci, np.where(horiz, ii, ci))
            src_j = np.where(vert, jj, np.where(horiz, cj, cj))
            pad[ii, jj] = pad[src_i, src_j]
        out = (kernel(pad, have) if kernel_wants_mask else kernel(pad)).astype(out_dtype)
        return pa.table(
            {"tile_x": [tx], "tile_y": [ty], "data": [out.tobytes()],
             "checksum": [_checksum(out)]}
        )

    return fanned.groupby(["t_x", "t_y"]).map_groups(assemble, batch_format="pyarrow")


def focal_stats(tiles_ds, *, stat: str = "mean", radius: int = 1,
                dtype=np.uint32, out_dtype=np.float32):
    """`gdal raster neighbors`: moving-window stat over a (2r+1)^2 window,
    with cross-tile halo exchange so tile borders are exact."""
    red = {"mean": np.mean, "sum": np.sum, "min": np.min, "max": np.max,
           "std": np.std, "median": np.median}[stat]
    k = 2 * radius + 1

    def kernel(pad: np.ndarray) -> np.ndarray:
        stack = np.stack(
            [pad[i : i + TILE, j : j + TILE] for i in range(k) for j in range(k)]
        )
        return red(stack, axis=0)

    return halo_apply(tiles_ds, kernel, radius=radius, dtype=dtype, out_dtype=out_dtype)


def _horn_gradients(pad: np.ndarray, cellsize: float):
    """Horn's 3x3 finite differences (the gdaldem kernel,
    apps/gdalalg_raster_*.cpp dem ops / alg gdaldem lineage)."""
    a = pad[0:TILE, 0:TILE];  b = pad[0:TILE, 1:TILE+1];  c = pad[0:TILE, 2:TILE+2]
    d = pad[1:TILE+1, 0:TILE];                             f = pad[1:TILE+1, 2:TILE+2]
    g = pad[2:TILE+2, 0:TILE]; h = pad[2:TILE+2, 1:TILE+1]; i = pad[2:TILE+2, 2:TILE+2]
    dzdx = ((c + 2 * f + i) - (a + 2 * d + g)) / (8.0 * cellsize)
    dzdy = ((g + 2 * h + i) - (a + 2 * b + c)) / (8.0 * cellsize)
    return dzdx, dzdy


def dem_slope(tiles_ds, *, cellsize: float = 1.0, dtype=np.float32,
              z_factor: float = 1.0):
    """`gdal raster slope` (degrees, Horn's method)."""

    def kernel(pad):
        dzdx, dzdy = _horn_gradients(pad, cellsize)
        return np.degrees(np.arctan(z_factor * np.hypot(dzdx, dzdy)))

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def dem_aspect(tiles_ds, *, cellsize: float = 1.0, dtype=np.float32):
    """`gdal raster aspect`: downslope direction, degrees clockwise from
    north; flat cells get -9999 (gdaldem's flat marker convention)."""

    def kernel(pad):
        dzdx, dzdy = _horn_gradients(pad, cellsize)
        asp = np.degrees(np.arctan2(dzdy, -dzdx))
        out = np.where(asp < 0, 90.0 - asp,
                       np.where(asp > 90.0, 360.0 - asp + 90.0, 90.0 - asp))
        flat = (dzdx == 0) & (dzdy == 0)
        return np.where(flat, -9999.0, out)

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def dem_hillshade(tiles_ds, *, cellsize: float = 1.0, azimuth: float = 315.0,
                  altitude: float = 45.0, z_factor: float = 1.0,
                  dtype=np.float32):
    """`gdal raster hillshade` (0-255, standard illumination model)."""
    az = np.radians(360.0 - azimuth + 90.0)
    alt = np.radians(altitude)

    def kernel(pad):
        dzdx, dzdy = _horn_gradients(pad, cellsize)
        slope = np.arctan(z_factor * np.hypot(dzdx, dzdy))
        aspect = np.arctan2(dzdy, -dzdx)
        shaded = np.sin(alt) * np.cos(slope) + np.cos(alt) * np.sin(slope) * np.cos(az - aspect)
        return np.clip(shaded * 255.0, 0, 255)

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def dem_hillshade_multidirectional(tiles_ds, *, cellsize: float = 1.0,
                                   altitude: float = 45.0,
                                   z_factor: float = 1.0, dtype=np.float32):
    """`gdal raster hillshade --multidirectional` (USGS/GDAL model,
    alg/gdaldem_lib.cpp multiDirectional: weighted combination of
    illumination from 225/270/315/360 degrees, weights sin^2 of the
    aspect offsets) — same halo-exchange kernel as dem_hillshade."""
    alt = np.radians(altitude)
    azs = [np.radians(360.0 - a + 90.0) for a in (225.0, 270.0, 315.0, 360.0)]

    def kernel(pad):
        dzdx, dzdy = _horn_gradients(pad, cellsize)
        slope = np.arctan(z_factor * np.hypot(dzdx, dzdy))
        aspect = np.arctan2(dzdy, -dzdx)
        # GDAL's multidirectional weights: w_i = sin^2(aspect - az_half_i)
        # over the four azimuths, normalized by the weight sum
        acc = np.zeros_like(slope)
        wsum = np.zeros_like(slope)
        for i, az in enumerate(azs):
            w = np.sin(aspect - np.radians(225.0 - 45.0 * i)) ** 2
            sh = (np.sin(alt) * np.cos(slope)
                  + np.cos(alt) * np.sin(slope) * np.cos(az - aspect))
            acc += w * np.clip(sh, 0.0, None)
            wsum += w
        out = acc / np.maximum(wsum, 1e-12)
        return np.clip(out * 255.0, 0, 255)

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def _window_stack(pad: np.ndarray):
    """The 9 shifted views of a radius-1 padded array, center last removed:
    returns (center, neighbors stack of 8)."""
    wins = [pad[i : i + TILE, j : j + TILE] for i in range(3) for j in range(3)]
    center = wins.pop(4)
    return center, np.stack(wins)


def dem_roughness(tiles_ds, *, dtype=np.float32):
    """`gdal raster roughness` (gdaldem roughness kernel,
    apps/gdalalg_raster_neighbors.cpp lineage): largest inter-cell
    difference in the 3x3 window = max9 - min9."""

    def kernel(pad):
        center, nb = _window_stack(pad)
        mx = np.maximum(nb.max(axis=0), center)
        mn = np.minimum(nb.min(axis=0), center)
        return mx - mn

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def dem_tpi(tiles_ds, *, dtype=np.float32):
    """`gdal raster tpi` — Topographic Position Index: center minus the
    mean of its 8 neighbors."""

    def kernel(pad):
        center, nb = _window_stack(pad)
        return center - nb.mean(axis=0)

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def dem_tri(tiles_ds, *, alg: str = "riley", dtype=np.float32):
    """`gdal raster tri` — Terrain Ruggedness Index. alg='riley' (default,
    sqrt of sum of squared center-neighbor differences) or 'wilson' (mean
    absolute difference), the reference's two -alg choices."""
    if alg not in ("riley", "wilson"):
        raise ValueError("alg must be 'riley' or 'wilson'")

    def kernel(pad):
        center, nb = _window_stack(pad)
        d = center[None, :, :] - nb
        if alg == "riley":
            return np.sqrt((d * d).sum(axis=0))
        return np.abs(d).mean(axis=0)

    return halo_apply(tiles_ds, kernel, radius=1, dtype=dtype, out_dtype=np.float32)


def tile_color_map(tiles_ds, colors: list[tuple[float, tuple[int, int, int]]],
                   *, interpolate: bool = True, dtype=np.float32):
    """`gdal raster color-map` (gdaldem color-relief): value -> RGBA packed
    uint32 (R | G<<8 | B<<16 | 255<<24). colors: sorted [(value, (r,g,b))];
    interpolate=True blends linearly between entries (the reference
    default), else nearest-below ("exact color entry") semantics."""
    colors = sorted(colors)
    vals = np.array([v for v, _ in colors], dtype=np.float64)
    rgb = np.array([c for _, c in colors], dtype=np.float64)  # (n, 3)

    def fn(arr):
        a = arr.astype(np.float64)
        idx = np.clip(np.searchsorted(vals, a, side="right") - 1, 0, len(vals) - 1)
        if interpolate:
            hi = np.minimum(idx + 1, len(vals) - 1)
            span = vals[hi] - vals[idx]
            w = np.where(span > 0, (a - vals[idx]) / np.where(span > 0, span, 1.0), 0.0)
            w = np.clip(w, 0.0, 1.0)
            col = rgb[idx] * (1.0 - w)[..., None] + rgb[hi] * w[..., None]
        else:
            col = rgb[idx]
        col = np.clip(np.round(col), 0, 255).astype(np.uint32)
        return (col[..., 0] | (col[..., 1] << 8) | (col[..., 2] << 16)
                | np.uint32(255) << 24)

    return tile_calc(tiles_ds, fn, dtype=dtype, out_dtype=np.uint32)


def tile_nodata_to_alpha(tiles_ds, *, nodata=0, dtype=np.float32):
    """`gdal raster nodata-to-alpha`: grayscale + alpha RGBA packing where
    nodata pixels get alpha 0 (fully transparent), everything else 255."""

    def fn(arr):
        g = np.clip(np.round(arr.astype(np.float64)), 0, 255).astype(np.uint32)
        alpha = np.where(arr == nodata, np.uint32(0), np.uint32(255))
        return g | (g << 8) | (g << 16) | (alpha << 24)

    return tile_calc(tiles_ds, fn, dtype=dtype, out_dtype=np.uint32)


def fill_nodata(tiles_ds, *, nodata=0, iterations: int = 1, dtype=np.float32):
    """`gdal raster fill-nodata` (alg/rasterfill.cpp) as iterative halo
    relaxation: each round replaces nodata cells that have >=1 valid
    3x3 neighbor with the mean of their valid neighbors. `iterations`
    rounds = `iterations` halo exchanges; holes wider than 2*iterations
    pixels remain (documented bound)."""

    def kernel(pad: np.ndarray, have: np.ndarray) -> np.ndarray:
        center = pad[1 : TILE + 1, 1 : TILE + 1]
        # replicated (raster-boundary) halo cells are never valid neighbors,
        # whatever their value — only real pixels that aren't nodata count
        valid = (pad != nodata) & have
        k = 3
        vstack = np.stack(
            [pad[i : i + TILE, j : j + TILE] for i in range(k) for j in range(k)]
        )
        mstack = np.stack(
            [valid[i : i + TILE, j : j + TILE] for i in range(k) for j in range(k)]
        )
        s = (vstack * mstack).sum(axis=0)
        n = mstack.sum(axis=0)
        fill = np.where(n > 0, s / np.maximum(n, 1), nodata)
        return np.where(center != nodata, center, fill)

    out = tiles_ds
    for _ in range(iterations):
        out = halo_apply(out, kernel, radius=1, dtype=dtype, out_dtype=dtype)
    return out
