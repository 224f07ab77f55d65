"""Point-in-polygon + packed STRtree, from scratch, vectorized.

Replicates the reference join strategy for OGRLayer::Intersection-style
spatial joins (ogr/ogrsf_frmts/generic/ogrlayer.cpp:5385-5800): envelope
(bbox) prefilter via a static packed R-tree (the FlatGeobuf packed Hilbert
R-tree precedent, ogr/ogrsf_frmts/flatgeobuf/packedrtree.h:93-146) followed
by the exact geometry test (prepared-geometry Intersects pretest ->
ray-casting PIP here).

STRtree bulk queries are breadth-first over (query, node) pair arrays —
every level is one vectorized numpy step, no per-point Python loop. The
exact test (`PolygonSet.locate`) is one crossing-number pass over (point,
edge) pairs read from a y-banded edge table; `point_in_ring` and
`point_in_polygon` are the per-ring reference.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geo import wkb as W

NODE_CAP = 10
EDGE_CHUNK = 1 << 18  # (pair, edge) rows per locate pass: bounds its temporaries


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """CSR expansion: for ranges [starts[i], starts[i] + counts[i]) returns
    (i, position) for every position of every range, in range order."""
    counts = np.asarray(counts, dtype=np.int64)
    which = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    pos = np.arange(which.size, dtype=np.int64) + (starts - (np.cumsum(counts) - counts))[which]
    return which, pos


class STRtree:
    """Packed Sort-Tile-Recursive R-tree over rectangles."""

    def __init__(self, boxes: np.ndarray):
        """boxes: (n, 4) [minx, miny, maxx, maxy]."""
        n = len(boxes)
        self.n = n
        if n == 0:
            self.levels = []
            return
        # STR packing: sort by x-center, slice into vertical strips, sort each
        # strip by y-center
        cx = (boxes[:, 0] + boxes[:, 2]) / 2
        cy = (boxes[:, 1] + boxes[:, 3]) / 2
        nslices = max(1, int(np.ceil(np.sqrt(np.ceil(n / NODE_CAP)))))
        order = np.lexsort((cy, cx))
        strip = np.ceil(n / nslices)
        strip_id = (np.arange(n) // strip).astype(np.int64)
        order = order[np.lexsort((cy[order], strip_id))]
        self.leaf_order = order  # position -> original box index
        sorted_boxes = boxes[order]

        self.levels = []  # each: (m, 4) node boxes; level 0 = leaf groups
        cur = sorted_boxes
        self.fanout = NODE_CAP
        while len(cur) > 1:
            m = int(np.ceil(len(cur) / NODE_CAP))
            pad = m * NODE_CAP - len(cur)
            if pad:
                cur = np.vstack([cur, np.tile([np.inf, np.inf, -np.inf, -np.inf], (pad, 1))])
            g = cur.reshape(m, NODE_CAP, 4)
            nodes = np.column_stack(
                [g[:, :, 0].min(1), g[:, :, 1].min(1), g[:, :, 2].max(1), g[:, :, 3].max(1)]
            )
            self.levels.append(cur)  # children of this level's nodes
            cur = nodes
        self.root = cur  # (1, 4)
        self.boxes_sorted = sorted_boxes

    def query_points(self, px: np.ndarray, py: np.ndarray):
        """Bulk query: which leaf boxes contain each point.
        Returns (point_idx, box_idx) int64 arrays (original box indices)."""
        nq = len(px)
        if self.n == 0 or nq == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        qi = np.arange(nq, dtype=np.int64)
        b = self.root[0]
        hit = (px >= b[0]) & (px <= b[2]) & (py >= b[1]) & (py <= b[3])
        pairs_q = qi[hit]
        pairs_n = np.zeros(pairs_q.size, dtype=np.int64)  # node index at current level
        for level in range(len(self.levels) - 1, -1, -1):
            children = self.levels[level]  # (n_children_total_padded, 4)
            # expand each (q, node) to its NODE_CAP children
            child_idx = (pairs_n[:, None] * NODE_CAP + np.arange(NODE_CAP)[None, :]).ravel()
            q_rep = np.repeat(pairs_q, NODE_CAP)
            valid = child_idx < len(children)
            child_idx, q_rep = child_idx[valid], q_rep[valid]
            cb = children[child_idx]
            inside = (
                (px[q_rep] >= cb[:, 0])
                & (px[q_rep] <= cb[:, 2])
                & (py[q_rep] >= cb[:, 1])
                & (py[q_rep] <= cb[:, 3])
            )
            pairs_q, pairs_n = q_rep[inside], child_idx[inside]
        # pairs_n are positions in sorted leaf order (padding rows never match)
        return pairs_q, self.leaf_order[pairs_n]


def point_in_ring(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Vectorized even-odd ray casting of many points vs one ring."""
    inside = np.zeros(len(px), dtype=bool)
    x0, y0 = ring[:-1, 0], ring[:-1, 1]
    x1, y1 = ring[1:, 0], ring[1:, 1]
    for i in range(len(x0)):
        crosses = (y0[i] > py) != (y1[i] > py)
        if not crosses.any():
            continue
        xint = (x1[i] - x0[i]) * (py - y0[i]) / (y1[i] - y0[i]) + x0[i]
        inside ^= crosses & (px < xint)
    return inside


def point_in_polygon(px: np.ndarray, py: np.ndarray, rings: list[np.ndarray]) -> np.ndarray:
    """Even-odd over all rings (holes flip parity automatically)."""
    inside = np.zeros(len(px), dtype=bool)
    for ring in rings:
        inside ^= point_in_ring(px, py, ring)
    return inside


class GridIndex:
    """Uniform grid-bucket index over rectangles (CSR layout) — the
    vectorized analog of the reference's CPLQuadTree point/box index
    (port/cpl_quad_tree.cpp, used by gridding alg/gdalgrid.cpp:261-277).

    Beats the STRtree for bulk point queries when box bboxes overlap
    heavily (measured: 100k points vs 370 overlapping diamonds went
    11.5s -> ms): each point reads exactly one cell's candidate list."""

    def __init__(self, boxes: np.ndarray, target_per_cell: float = 2.0):
        self.n = len(boxes)
        if self.n == 0:
            return
        self.minx = boxes[:, 0].min()
        self.miny = boxes[:, 1].min()
        self.maxx = boxes[:, 2].max()
        self.maxy = boxes[:, 3].max()
        side = max(8, min(512, int(np.sqrt(self.n / target_per_cell) * 4)))
        self.nx = self.ny = side
        self.sx = (self.maxx - self.minx) / side or 1.0
        self.sy = (self.maxy - self.miny) / side or 1.0
        ix0 = np.clip(((boxes[:, 0] - self.minx) / self.sx).astype(np.int64), 0, side - 1)
        ix1 = np.clip(((boxes[:, 2] - self.minx) / self.sx).astype(np.int64), 0, side - 1)
        iy0 = np.clip(((boxes[:, 1] - self.miny) / self.sy).astype(np.int64), 0, side - 1)
        iy1 = np.clip(((boxes[:, 3] - self.miny) / self.sy).astype(np.int64), 0, side - 1)
        cell_ids, box_ids = [], []
        for b in range(self.n):
            xs = np.arange(ix0[b], ix1[b] + 1)
            ys = np.arange(iy0[b], iy1[b] + 1)
            cells = (xs[:, None] * side + ys[None, :]).ravel()
            cell_ids.append(cells)
            box_ids.append(np.full(cells.size, b, dtype=np.int64))
        cell_ids = np.concatenate(cell_ids)
        box_ids = np.concatenate(box_ids)
        order = np.argsort(cell_ids, kind="stable")
        self.box_sorted = box_ids[order]
        self.cell_start = np.searchsorted(cell_ids[order], np.arange(side * side + 1))
        self.bx0, self.by0, self.bx1, self.by1 = boxes.T.copy()

    def query_points(self, px: np.ndarray, py: np.ndarray):
        if self.n == 0 or len(px) == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        with np.errstate(invalid="ignore"):  # NaN points: any cell, then inb drops them
            ix = np.clip(((px - self.minx) / self.sx).astype(np.int64), 0, self.nx - 1)
            iy = np.clip(((py - self.miny) / self.sy).astype(np.int64), 0, self.ny - 1)
        inb = (px >= self.minx) & (px <= self.maxx) & (py >= self.miny) & (py <= self.maxy)
        cell = ix * self.nx + iy
        lo = self.cell_start[cell]
        counts = np.where(inb, self.cell_start[cell + 1] - lo, 0)
        qi, pos = _ranges(lo, counts)
        bi = self.box_sorted[pos]
        x, y = np.repeat(px, counts), np.repeat(py, counts)
        keep = (x >= self.bx0[bi]) & (x <= self.bx1[bi]) & (y >= self.by0[bi]) & (y <= self.by1[bi])
        return qi[keep], bi[keep]


class PolygonSet:
    """A small broadcastable polygon collection with bbox index + exact PIP.

    Built once per worker from a WKB polygon table (the broadcast-method-layer
    pattern, ogrlayer.cpp:5323-5325). The exact test reads a y-banded edge
    table in CSR form: every polygon's bbox y-range is cut into
    nb = max(1, n_edges // 4) equal bands, and each non-horizontal edge is
    listed under every band its y-range overlaps, lower-y endpoint first.
    `locate` expands each (point, polygon) bbox candidate to the edges of the
    point's band and takes the crossing-number parity of all of them in one
    vectorized pass. The band of a y is one monotone float expression shared
    by build and query, so every edge that can straddle a point's y is in
    that point's band and the parity is exact.

    Points on a boundary (the half-open rule): an edge counts for a point
    when min(y0, y1) <= py < max(y0, y1) and px < xint, with xint computed
    from the edge's lower endpoint. A point on an edge therefore belongs to
    the polygon on its +x side, and a point on a horizontal edge to the
    polygon above it. An edge shared by two polygons of a partition is
    evaluated with the same endpoints in the same order by both, so a point
    on an interior shared edge or vertex has exactly one owner."""

    def __init__(self, wkb_list: list[bytes]):
        boxes, segs, owner = [], [], []
        for p, buf in enumerate(wkb_list):
            kind, data = W.parse_wkb(buf)
            if kind == "polygon":
                rings = data
            elif kind == "multipolygon":
                rings = [r for _, rs in data for r in rs]
            else:
                raise ValueError(f"PolygonSet expects polygons, got {kind}")
            allpts = np.vstack(rings)
            boxes.append(
                [allpts[:, 0].min(), allpts[:, 1].min(), allpts[:, 0].max(), allpts[:, 1].max()]
            )
            for ring in rings:
                segs.append(np.hstack([ring[:-1], ring[1:]]))
                owner.append(np.full(len(ring) - 1, p, dtype=np.int64))
        self.boxes = np.array(boxes) if boxes else np.zeros((0, 4))
        self.tree = GridIndex(self.boxes)
        e = np.vstack(segs) if segs else np.zeros((0, 4))
        owner = np.concatenate(owner) if owner else np.zeros(0, np.int64)
        # lower-y endpoint first; horizontal (and NaN) edges never straddle
        flip = e[:, 1] > e[:, 3]
        e[flip] = e[flip][:, [2, 3, 0, 1]]
        keep = e[:, 1] < e[:, 3]
        e, owner = e[keep], owner[keep]
        n = len(self.boxes)
        self._nb = np.maximum(1, np.bincount(owner, minlength=n) // 4)
        self._base = np.concatenate([[0], np.cumsum(self._nb)])
        self._ymin = self.boxes[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = self._nb / (self.boxes[:, 3] - self._ymin)
        self._scale = np.where(np.isfinite(scale), scale, 0.0)
        lo = self._band(owner, e[:, 1])
        edge, band = _ranges(lo, self._band(owner, e[:, 3]) - lo + 1)
        order = np.argsort(band, kind="stable")
        self._x0, self._y0, self._x1, self._y1 = e[edge[order]].T.copy()
        self._offsets = np.concatenate(
            [[0], np.cumsum(np.bincount(band, minlength=self._base[-1]))]
        )

    def _odd_crossings(self, x, y, lo, counts) -> np.ndarray:
        """Crossing-number parity of point i against the band-table edges
        lo[i] .. lo[i] + counts[i] - 1."""
        pair, e = _ranges(lo, counts)
        xe, ye = np.repeat(x, counts), np.repeat(y, counts)
        y0, y1 = self._y0[e], self._y1[e]
        x0, x1 = self._x0[e], self._x1[e]
        xint = (x1 - x0) * (ye - y0) / (y1 - y0) + x0
        cross = ((y0 > ye) != (y1 > ye)) & (xe < xint)
        return (np.bincount(pair[cross], minlength=x.size) & 1).astype(bool)

    def _band(self, poly: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Global band id of y within polygon poly (y inside poly's bbox)."""
        b = ((y - self._ymin[poly]) * self._scale[poly]).astype(np.int64)
        return self._base[poly] + np.minimum(b, self._nb[poly] - 1)

    def locate(self, px: np.ndarray, py: np.ndarray):
        """(point_idx, polygon_idx) for every exact containment pair, ordered
        by polygon index, then point index. The candidate pairs run in
        consecutive slices of about EDGE_CHUNK (pair, edge) rows, so a band
        holding many edges (say a multipolygon whose parts sit far apart in
        y) costs time, not memory."""
        qi, bi = self.tree.query_points(px, py)
        x, y = px[qi], py[qi]
        band = self._band(bi, y)
        lo = self._offsets[band]
        counts = self._offsets[band + 1] - lo
        cum = np.cumsum(counts)
        total = int(cum[-1]) if cum.size else 0
        cuts = np.searchsorted(cum, np.arange(EDGE_CHUNK, total, EDGE_CHUNK), side="right")
        keep = np.zeros(qi.size, dtype=bool)
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, qi.size]):
            keep[a:b] = self._odd_crossings(x[a:b], y[a:b], lo[a:b], counts[a:b])
        qi, bi = qi[keep], bi[keep]
        order = np.argsort(bi * len(px) + qi)  # unique keys: (polygon, point)
        return qi[order], bi[order]
