"""gdal_ray — a Ray-Data-native data-processing engine with the query and
data-processing capabilities of GDAL's translator core (reference:
ehtick/gdal v3.14.0), built from scratch on ray.data.Dataset pipelines.

Layout:
  ops/        relational operator layer (filter/project/agg/join/sort/dedup)
  geo/        cell indexes (H3-style hex, S2, WebMercator tiles), WKB, PIP,
              STRtree, hilbert codes
  raster/     rasterize / polygonize / checksum / zonal stats / overviews
  text/       text analysis + dedup (minhash/simhash/ngram/fingerprint)
  sim/        embedding similarity search (brute-force + LSH-bucketed)
  vector/     layer algebra (Intersection/Union/Clip/Erase/...)
  pipelines/  flagship pages pipeline + driver-facing queries
  state/      lineage manifests + resumable partitioned writes

Nothing in this package calls ray.init()/ray.shutdown(); sessions are owned
by the caller (driver, bench.py, or the pytest fixture).

Every UDF the package hands to Ray takes and returns a pyarrow Table, and
importing the package installs no log filter: Ray's warnings reach the
caller unfiltered.
"""

__version__ = "0.1.0"
