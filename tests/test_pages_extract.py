"""pipelines.pages text extraction: `p_body` (Arrow substring searches in
place of RE2's capture) equals the RE2 capture of `_TEXT_RE` on every row,
and `extract_stage` keeps its output, its check and its error."""

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gdal_ray.pipelines.pages import (_META_RE, _TEXT_RE, extract_stage,
                                      p_body, synthesize_pages)
from gdal_ray.util import to_arrow

ATOMS = ["<p>", "</p>", "\n", "\r", "<", ">", "/", "p", "é", "中"]
SPECIAL = ["", "<p>/p>", "</p><p>", "<p>a\n</p><p>b</p>", None]


def _re2_body(html):
    return pc.struct_field(pc.extract_regex(html, _TEXT_RE), "gtext")


def _adversarial(n=12_000, seed=7, atoms=ATOMS, special=SPECIAL):
    rng = np.random.default_rng(seed)
    strs = ["".join(rng.choice(atoms, rng.integers(0, 14))) for _ in range(n)]
    return pa.array(strs + special, pa.string())


class _OneBlock:
    """A one-block Dataset stand-in: map_batches applies fn here."""

    def __init__(self, t: pa.Table):
        self.t = t

    def map_batches(self, fn, **_):
        return _OneBlock(fn(self.t))


def test_p_body_equals_re2_on_adversarial_strings():
    a = _adversarial()
    assert a.null_count == 1
    for arr in (a, a.slice(5), a.slice(113, 9_000)):  # nonzero offsets
        assert p_body(arr).equals(_re2_body(arr))
    # no newline anywhere: no row goes to RE2
    no_newline = _adversarial(
        seed=8, atoms=[x for x in ATOMS if x != "\n"],
        special=[x for x in SPECIAL if x is None or "\n" not in x])
    assert not pc.any(pc.match_substring(no_newline, "\n")).as_py()
    assert p_body(no_newline).equals(_re2_body(no_newline))


def test_p_body_chunked_and_binary_inputs():
    a = _adversarial(n=10_000, seed=9)
    chunked = pa.chunked_array([a.slice(0, 17), a.slice(17, 4_000),
                                a.slice(4_017)])
    got = p_body(chunked)
    assert isinstance(got, pa.ChunkedArray)
    assert got.equals(_re2_body(chunked))
    for ty in (pa.binary(), pa.large_binary()):
        html = pc.cast(pc.cast(a, ty), pa.string())
        assert p_body(html).equals(_re2_body(html))


def _re2_extract(t: pa.Table) -> pa.Table:
    """extract_stage as it was with RE2 capturing both the meta tag and the
    body: the reference the fast path must reproduce."""
    html = pc.cast(t["html"], pa.string())
    meta = pc.extract_regex(html, _META_RE)
    assert pc.all(pc.equal(_re2_body(html), t["text"])).as_py()
    t = t.append_column(
        "lat", pc.cast(pc.struct_field(meta, "glat"), pa.float64()))
    t = t.append_column(
        "lon", pc.cast(pc.struct_field(meta, "glon"), pa.float64()))
    return t.drop_columns(["html"])


def test_extract_stage_output_unchanged(sf_dir):
    pages = to_arrow(synthesize_pages(sf_dir)).sort_by("url")
    assert pages.num_rows > 0
    got = to_arrow(extract_stage(synthesize_pages(sf_dir))).sort_by("url")
    exp = _re2_extract(pages)
    assert got.schema == exp.schema
    assert got.equals(exp)


def _pages(sf_dir) -> pa.Table:
    return to_arrow(synthesize_pages(sf_dir)).slice(0, 50).combine_chunks()


def test_extract_stage_check_names_the_bad_url(sf_dir):
    t = _pages(sf_dir)
    html = t["html"].to_pylist()
    html[7] = html[7].replace(b"</p>", b" tampered</p>")
    bad = t.set_column(t.schema.get_field_index("html"), "html",
                       pa.array(html, pa.binary()))
    url = t["url"][7].as_py()
    with pytest.raises(AssertionError, match=re.escape(repr(url))):
        extract_stage(_OneBlock(bad), check=True)
    # the same page passes when the check is off
    extract_stage(_OneBlock(bad), check=False)


def test_extract_stage_unchecked_keeps_schema(sf_dir):
    t = _pages(sf_dir)
    checked = extract_stage(_OneBlock(t), check=True).t
    unchecked = extract_stage(_OneBlock(t), check=False).t
    assert unchecked.schema == checked.schema
    assert unchecked.column_names == ["url", "warc_ts", "text", "lang",
                                      "lat", "lon"]
    assert unchecked.equals(checked)
