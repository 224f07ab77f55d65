"""OGR-SQL-subset compiler: SELECT over one table -> Ray Data pipeline.

The reference's SQL surface (ogr/swq_parser.y grammar, ogr/swq_select.cpp
planner, ogr/ogrsf_frmts/generic/ogr_gensql.cpp executor; dialect doc
doc/source/user/ogr_sql_dialect.rst:80) re-expressed as a hand-written
tokenizer + recursive-descent parser compiling to the repo's own operators:
WHERE/projection -> pyarrow.compute expressions in map_batches, GROUP BY ->
groupby_agg (combiner + tree merge), ORDER BY [LIMIT] -> topk / sort,
DISTINCT -> distinct.

Supported grammar (the OGR dialect subset that maps to our operator layer):

  SELECT [DISTINCT] expr [AS name] (, ...)
  FROM <table> [alias]
  [[LEFT] JOIN <table> [alias] ON a.x = b.y ...]
  [WHERE <boolean expr>]
  [GROUP BY col (, ...)]
  [HAVING <boolean expr over aggregates>]
  [UNION [ALL] | INTERSECT | EXCEPT SELECT ...]   (INTERSECT binds tighter)
  [ORDER BY col [ASC|DESC] (, ...)]
  [LIMIT n [OFFSET m]]

Expressions: identifiers (optionally table-qualified), numeric/string
literals, + - * / % ||, comparisons = <> != < <= > >=, AND OR NOT, IN (...),
[NOT] BETWEEN a AND b, [NOT] LIKE/ILIKE, IS [NOT] NULL,
bare integer literals are 64-bit (pa.scalar -> int64; DuckDB types them
INT32 and can overflow where we don't — CAST literals when oracle parity
on >2^31 intermediates matters),
CAST(x AS INTEGER|BIGINT|FLOAT|TEXT), CASE [x] WHEN ... THEN ... [ELSE]
END, COALESCE/NULLIF, string fns CONCAT/SUBSTR/UPPER/LOWER/LENGTH/TRIM/
LTRIM/RTRIM/REPLACE, math ABS/ROUND/FLOOR/CEIL, HSTORE_GET_VALUE, special
fields OGR_GEOM_AREA/OGR_GEOM_WKT/OGR_GEOMETRY/OGR_STYLE, and aggregates
COUNT(*) COUNT(x) SUM MIN MAX AVG over columns OR expressions (expression
aggregates pre-compute as hidden columns before the distributed groupby;
COUNT(DISTINCT ...) stays column-only). The same SQL string is
DuckDB-runnable, so every compiled query is oracle-checkable verbatim.

JOIN follows the reference's planner shape (secondary tables are read
whole and joined in memory, ogr_gensql.cpp:109 / ogr_sql_dialect.rst:410-441)
restated as a broadcast join; match semantics are standard SQL (all matches)
so the identical string oracles in DuckDB — OGR's first-match-wins variant
remains available via relational.broadcast_join(first_match_order=...).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any

import numpy as np
import pyarrow as pa

from gdal_ray.util import canonical_floats
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# user-extensible SQL functions (§2.12 extension surface — the analog of
# OGR's custom-SQL-function registration). fn receives evaluated pyarrow
# arrays/scalars and returns an Array/Scalar; the NAME must be registered
# before parsing (unregistered identifiers followed by '(' are errors).
# ---------------------------------------------------------------------------

_SQL_FUNCTIONS: dict = {}


def register_sql_function(name: str, fn):
    """Register a custom scalar SQL function usable in `execute` queries.
    Example: register_sql_function("haversine_km", lambda lon1, lat1, lon2,
    lat2: ...pyarrow/numpy math...)."""
    _SQL_FUNCTIONS[name.lower()] = fn


_HSTORE_RE = re.compile(
    r'(?:"((?:[^"\\]|\\.)*)"|([^\s"=,]+))\s*=>\s*'
    r'(?:"((?:[^"\\]|\\.)*)"|(NULL)|([^\s",]+))', re.IGNORECASE)


def _parse_hstore(s: str) -> dict:
    out = {}
    for m in _HSTORE_RE.finditer(s):
        k = m.group(1) if m.group(1) is not None else m.group(2)
        if m.group(4) is not None:
            v = None
        else:
            v = m.group(3) if m.group(3) is not None else m.group(5)
        if k is not None:
            k = k.replace('\\"', '"').replace("\\\\", "\\")
        if v is not None:
            v = v.replace('\\"', '"').replace("\\\\", "\\")
        out[k] = v
    return out


def _hstore_get_value(col, key):
    """HSTORE_GET_VALUE(field, 'key') — the reference's hstore accessor
    (ogr/ogrfeaturequery.cpp:37-38, swq custom function): parses the
    Postgres hstore text format ('"a"=>"1", b=>2')."""
    k = key.as_py() if isinstance(key, pa.Scalar) else str(key)
    if isinstance(col, pa.Scalar):
        s = col.as_py()
        return pa.scalar(None if s is None else _parse_hstore(s).get(k),
                         pa.string())
    vals = [None if s is None else _parse_hstore(s).get(k)
            for s in col.to_pylist()]
    return pa.array(vals, pa.string())


_SQL_FUNCTIONS["hstore_get_value"] = _hstore_get_value

# ST_* geometry catalogue (sql_sqlite_dialect.rst:214-249) — registered at
# import so geometry predicates/measures parse like any other function
from gdal_ray.ops import sql_geom as _sql_geom  # noqa: E402

_sql_geom.register_all(register_sql_function)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<str>'(?:[^']|'')*')|"
    r"(?P<id>[A-Za-z_][A-Za-z_0-9]*)|"
    r"(?P<op>\|\||<<|>>|<>|!=|<=|>=|[(),*=<>+\-/%.\[\]&|]))"
)

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT",
    "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "NULL", "AS", "ASC",
    "EXISTS",
    "DESC", "CAST", "COUNT", "SUM", "MIN", "MAX", "AVG", "INTEGER", "BIGINT",
    "FLOAT", "DOUBLE", "TEXT", "VARCHAR", "DATE", "TIMESTAMP", "BOOLEAN",
    "JOIN", "LEFT", "ON", "UNION",
    "ALL", "HAVING", "OFFSET", "ILIKE", "CONCAT", "SUBSTR", "SUBSTRING",
    "UPPER", "LOWER", "LENGTH",
    "CASE", "WHEN", "THEN", "ELSE", "END", "COALESCE", "NULLIF",
    "ABS", "ROUND", "FLOOR", "CEIL", "CEILING", "TRIM", "LTRIM", "RTRIM",
    "REPLACE",
    "OVER", "PARTITION", "ROW_NUMBER", "RANK", "DENSE_RANK", "LAG", "LEAD",
    "NTILE", "PERCENT_RANK", "CUME_DIST", "FIRST_VALUE", "LAST_VALUE",
    "NTH_VALUE",
    "INTERSECT", "EXCEPT", "ROLLUP", "CUBE", "GROUPING", "SETS", "WITH",
    "QUALIFY",
}


# built-in scalar functions parsed on the identifier path (no new keywords:
# these stay valid column names when not followed by '('). Maps the SQL
# spelling to the canonical call-node name.
_BUILTIN_CALLS = {
    "sqrt": "sqrt", "power": "power", "pow": "power", "ln": "ln",
    "exp": "exp", "sign": "sign", "log2": "log2", "log10": "log10",
    "log": "log10",  # DuckDB LOG(x) is base-10
    "year": "year", "month": "month", "day": "day", "hour": "hour",
    "minute": "minute", "second": "second", "dayofweek": "dow",
    "dayofyear": "doy", "quarter": "quarter", "week": "week",
    "date_trunc": "date_trunc", "date_part": "date_part",
    "date_diff": "date_diff", "datediff": "date_diff",
    "make_date": "make_date", "last_day": "last_day",
    "concat_ws": "concat_ws",
    "ifnull": "coalesce", "nvl": "coalesce",
    "strpos": "strpos", "instr": "strpos", "contains": "contains",
    "starts_with": "starts_with", "ends_with": "ends_with",
    "left": "left", "right": "right", "lpad": "lpad", "rpad": "rpad",
    "split_part": "split_part", "least": "least", "greatest": "greatest",
    "repeat": "repeat", "reverse": "reverse", "mod": "mod",
    "xor": "xor",
    "regexp_replace": "regexp_replace", "regexp_matches": "regexp_matches",
    "regexp_extract": "regexp_extract", "strftime": "strftime",
    "json_extract_string": "json_extract_string",
    # list / split catalogue (round 5): DuckDB spellings -> canonical names
    "string_split": "string_split", "str_split": "string_split",
    "string_to_array": "string_split",
    "string_split_regex": "string_split_regex",
    "str_split_regex": "string_split_regex",
    "len": "length",  # DuckDB len() = length() (strings AND lists)
    "list_extract": "list_extract", "list_element": "list_extract",
    "array_extract": "list_extract",
    "list_contains": "list_contains", "array_contains": "list_contains",
    "array_length": "length", "list_length": "length",
    "list_sum": "list_sum", "list_avg": "list_avg",
    "list_min": "list_min", "list_max": "list_max",
    "array_to_string": "array_to_string",
    "list_aggr": "array_to_string",  # only the 'string_agg' kind
    # vector-similarity catalogue (embedding columns are list<float>)
    "list_cosine_similarity": "list_cosine_similarity",
    "array_cosine_similarity": "list_cosine_similarity",
    "list_dot_product": "list_dot_product",
    "list_inner_product": "list_dot_product",
    "array_inner_product": "list_dot_product",
    "list_distance": "list_distance", "array_distance": "list_distance",
}


def tokenize(sql: str):
    out, pos = [], 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            if sql[pos:].strip() == "":
                break
            raise ValueError(f"SQL tokenize error at: {sql[pos:pos+20]!r}")
        pos = m.end()
        if m.group("num") is not None:
            v = m.group("num")
            out.append(("num", float(v) if "." in v else int(v)))
        elif m.group("str") is not None:
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.group("id") is not None:
            w = m.group("id")
            out.append(("kw", w.upper()) if w.upper() in _KEYWORDS else ("id", w))
        else:
            out.append(("op", m.group("op")))
    out.append(("end", None))
    return out


# ---------------------------------------------------------------------------
# AST + parser
# ---------------------------------------------------------------------------


@dataclass
class Node:
    kind: str          # col | lit | bin | un | call | cast | in | between |
                       # like | isnull | agg | star
    value: Any = None
    args: tuple = ()


class Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, typ, val=None):
        t = self.next()
        if t[0] != typ or (val is not None and t[1] != val):
            raise ValueError(f"expected {typ} {val}, got {t}")
        return t

    def accept(self, typ, val=None):
        t = self.peek()
        if t[0] == typ and (val is None or t[1] == val):
            self.i += 1
            return True
        return False

    # -- expression grammar (precedence climbing) --
    def expr(self):
        return self.or_expr()

    def or_expr(self):
        left = self.and_expr()
        while self.accept("kw", "OR"):
            left = Node("bin", "or", (left, self.and_expr()))
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.accept("kw", "AND"):
            left = Node("bin", "and", (left, self.not_expr()))
        return left

    def not_expr(self):
        if self.accept("kw", "NOT"):
            return Node("un", "not", (self.not_expr(),))
        return self.cmp_expr()

    def cmp_expr(self):
        left = self.bit_expr()
        t = self.peek()
        neg = False
        if t == ("kw", "NOT"):
            self.next()
            neg = True
            t = self.peek()
        if t[0] == "op" and t[1] in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            op = {"!=": "<>"}.get(t[1], t[1])
            nt = self.peek()
            if nt[1] is not None and str(nt[1]).lower() in \
                    ("any", "all", "some") \
                    and self.toks[self.i + 1] == ("op", "("):
                which = "any" if str(nt[1]).lower() in ("any", "some") \
                    else "all"
                self.next()
                self.next()
                sub = _parse_subselect(self)
                self.expect("op", ")")
                node = Node("quant", (op, which), (left, sub))
            else:
                node = Node("bin", op, (left, self.bit_expr()))
        elif t == ("kw", "ILIKE"):
            self.next()
            node = Node("like", "i", (left, self.bit_expr()))
        elif t == ("kw", "IN"):
            self.next()
            self.expect("op", "(")
            if self.peek() == ("kw", "SELECT"):
                sub = _parse_subselect(self)
                self.expect("op", ")")
                node = Node("in_sub", None, (left, sub))
            else:
                vals = [self.expr()]
                while self.accept("op", ","):
                    vals.append(self.expr())
                self.expect("op", ")")
                node = Node("in", None, (left, tuple(vals)))
        elif t == ("kw", "BETWEEN"):
            self.next()
            lo = self.bit_expr()
            self.expect("kw", "AND")
            hi = self.bit_expr()
            node = Node("between", None, (left, lo, hi))
        elif t == ("kw", "LIKE"):
            self.next()
            pat = self.bit_expr()
            if (self.peek()[0] == "id"
                    and self.peek()[1].upper() == "ESCAPE"):
                self.next()
                esc = self.next()
                if esc[0] != "str" or len(esc[1]) != 1:
                    raise ValueError("ESCAPE takes a 1-char string literal")
                node = Node("like", ("esc", esc[1]), (left, pat))
            else:
                node = Node("like", None, (left, pat))
        elif (t[0] == "id" and t[1].upper() == "SIMILAR"
              and self.toks[self.i + 1][0] == "id"
              and str(self.toks[self.i + 1][1]).upper() == "TO"):
            # expr SIMILAR TO 'regex': full-match regex (DuckDB semantics)
            self.next()
            self.next()
            node = Node("like", "s", (left, self.bit_expr()))
        elif t == ("kw", "IS"):
            self.next()
            isnot = self.accept("kw", "NOT")
            if self.accept("kw", "DISTINCT"):
                # IS [NOT] DISTINCT FROM: null-safe (in)equality
                if self.next() != ("kw", "FROM"):
                    raise ValueError("expected FROM after IS DISTINCT")
                node = Node("isdist", not isnot,
                            (left, self.bit_expr()))
            else:
                self.expect("kw", "NULL")
                node = Node("isnull", not isnot, (left,))
        else:
            if neg:
                raise ValueError("dangling NOT")
            return left
        return Node("un", "not", (node,)) if neg else node

    def _maybe_filter(self, aggnode):
        """Parse a trailing FILTER (WHERE cond) on an aggregate (standard
        SQL / DuckDB) — rewritten at parse time to the CASE form the
        engine already distributes: AGG(CASE WHEN cond THEN target END);
        COUNT(*) FILTER -> COUNT(CASE WHEN cond THEN 1 END)."""
        t = self.peek()
        if not (t[0] == "id" and t[1].upper() == "FILTER"
                and self.toks[self.i + 1] == ("op", "(")):
            return aggnode
        self.next()
        self.expect("op", "(")
        self.expect("kw", "WHERE")
        cond = self.expr()
        self.expect("op", ")")
        kind, target = aggnode.value
        if kind == "count_star":
            return Node("agg", ("count",
                                Node("case", None,
                                     ((cond, Node("lit", 1)),))),
                        aggnode.args)
        if kind in ("count_distinct", "string_agg", "array_agg",
                    "quantile_disc", "quantile_cont", "mode", "entropy",
                    "arg_max", "arg_min"):
            raise ValueError(f"FILTER over {kind.upper()} unsupported")

        def _wrap(tgt):
            tn = Node("col", tgt) if isinstance(tgt, str) else tgt
            return Node("case", None, ((cond, tn),))

        if isinstance(target, tuple):  # co-moment pair: mask both sides
            return Node("agg", (kind, tuple(_wrap(e) for e in target)),
                        aggnode.args)
        return Node("agg", (kind, _wrap(target)), aggnode.args)

    def _accept_nulls_opt(self):
        """Consume an optional IGNORE NULLS / RESPECT NULLS inside a
        window-function call (DuckDB placement). Returns True for IGNORE."""
        t = self.peek()
        if (t[0] == "id" and t[1].upper() in ("IGNORE", "RESPECT")
                and self.toks[self.i + 1][0] == "id"
                and self.toks[self.i + 1][1].upper() == "NULLS"):
            self.next()
            self.next()
            return t[1].upper() == "IGNORE"
        return False

    def _over_ahead(self) -> bool:
        """True when an OVER clause follows, possibly after an
        IGNORE/RESPECT NULLS option."""
        t = self.peek()
        if t == ("kw", "OVER"):
            return True
        return (t[0] == "id" and t[1].upper() in ("IGNORE", "RESPECT")
                and self.toks[self.i + 1][0] == "id"
                and self.toks[self.i + 1][1].upper() == "NULLS"
                and self.toks[self.i + 2] == ("kw", "OVER"))

    def _maybe_over(self, fnode):
        """Parse a trailing OVER (PARTITION BY ... ORDER BY ...) window
        spec (ogr has no window functions; this follows standard SQL as
        DuckDB implements it — the oracle runs the same string). Returns
        the bare node when no OVER follows."""
        t = self.peek()
        if (t[0] == "id" and t[1].upper() in ("IGNORE", "RESPECT")
                and self.toks[self.i + 1][0] == "id"
                and self.toks[self.i + 1][1].upper() == "NULLS"):
            # IGNORE NULLS option (LAG/LEAD/FIRST/LAST/NTH_VALUE): encoded
            # in the dispatch name so tree rewrites preserve it
            ignore = t[1].upper() == "IGNORE"
            self.next()
            self.next()
            if ignore:
                if fnode.kind != "call" or fnode.value not in (
                        "lag", "lead", "first_value", "last_value",
                        "nth_value"):
                    raise ValueError("IGNORE NULLS: navigation fns only")
                fnode = Node("call", fnode.value + "#in", fnode.args)
        if self.peek() != ("kw", "OVER"):
            return fnode
        self.next()
        if self.peek()[0] == "id":
            # OVER w — named window; the WINDOW clause parses later in
            # the statement, so leave a placeholder to substitute then
            return Node("win", ("__named__", self.next()[1].lower()),
                        (fnode,))
        self.expect("op", "(")
        parts, order, frame = self._window_spec_body()
        return Node("win", frame, (fnode, tuple(parts), tuple(order)))

    def _window_spec_body(self):
        """PARTITION BY / ORDER BY / frame inside 'OVER (' ... ')' or a
        'WINDOW w AS (' ... ')' definition — consumes the closing paren."""
        parts = []
        if self.accept("kw", "PARTITION"):
            self.expect("kw", "BY")
            parts.append(self.expr())
            while self.accept("op", ","):
                parts.append(self.expr())
        order = []
        if self.accept("kw", "ORDER"):
            self.expect("kw", "BY")
            while True:
                e = self.expr()
                desc = bool(self.accept("kw", "DESC"))
                if not desc:
                    self.accept("kw", "ASC")
                order.append((e, desc))
                if not self.accept("op", ","):
                    break
        frame = None
        t2 = self.peek()
        if t2[0] == "id" and t2[1].lower() in ("rows", "range"):
            mode = self.next()[1].lower()

            def bound():
                b = self.next()
                if b[0] == "id" and b[1].lower() == "unbounded":
                    d = self.next()[1].lower()
                    return ("up" if d == "preceding" else "uf", 0)
                if b[0] == "id" and b[1].lower() == "current":
                    if self.next()[1].lower() != "row":
                        raise ValueError("expected CURRENT ROW")
                    return ("cr", 0)
                if b[0] == "num":
                    d = self.next()[1].lower()
                    return ("p" if d == "preceding" else "f", float(b[1]))
                raise ValueError(f"bad frame bound {b}")

            if self.accept("kw", "BETWEEN"):
                lo = bound()
                self.expect("kw", "AND")
                hi = bound()
            else:
                lo, hi = bound(), ("cr", 0)
            if mode == "range":
                # UNBOUNDED..CURRENT is the default frame (peers); offset
                # RANGE frames are VALUE windows over the single numeric
                # ORDER BY key (evaluated in _frame_bounds)
                if (lo, hi) == (("up", 0.0), ("cr", 0.0)):
                    frame = None
                else:
                    frame = ("range", lo, hi)
            else:
                frame = ("rows", (lo[0], int(lo[1])), (hi[0], int(hi[1])))
        self.expect("op", ")")
        return parts, order, frame

    def bit_expr(self):
        # bitwise | (lowest) > & > shifts, all above additive — DuckDB/
        # Postgres-compatible for the common integer-key idioms
        left = self.bitand_expr()
        while self.peek() == ("op", "|"):
            self.next()
            left = Node("bin", "bitor", (left, self.bitand_expr()))
        return left

    def bitand_expr(self):
        left = self.shift_expr()
        while self.peek() == ("op", "&"):
            self.next()
            left = Node("bin", "bitand", (left, self.shift_expr()))
        return left

    def shift_expr(self):
        left = self.add_expr()
        while self.peek()[0] == "op" and self.peek()[1] in ("<<", ">>"):
            op = self.next()[1]
            left = Node("bin", op, (left, self.add_expr()))
        return left

    def add_expr(self):
        left = self.mul_expr()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in ("+", "-", "||"):
                self.next()
                left = Node("bin", t[1], (left, self.mul_expr()))
            else:
                return left

    def mul_expr(self):
        left = self.unary()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in ("*", "/", "%"):
                self.next()
                left = Node("bin", t[1], (left, self.unary()))
            else:
                return left

    def unary(self):
        if self.accept("op", "-"):
            return Node("bin", "-", (Node("lit", 0), self.unary()))
        node = self.atom()
        # postfix list indexing: expr[i] (DuckDB 1-based; negative from
        # the end; out-of-bounds -> NULL) == LIST_EXTRACT(expr, i)
        while self.accept("op", "["):
            idx = self.expr()
            self.expect("op", "]")
            node = Node("call", "list_extract", (node, idx))
        return node

    def atom(self):
        t = self.next()
        if t[0] == "num" or t[0] == "str":
            return Node("lit", t[1])
        if t == ("kw", "NULL"):
            return Node("lit", None)
        if t == ("op", "["):
            # list literal [e1, e2, ...] (DuckDB bracket syntax). Elements
            # must be constants — covers the query-vector idiom
            # list_cosine_similarity(embedding, [0.1, ...]).
            vals = []
            if self.peek() != ("op", "]"):
                vals.append(_const_value(self.expr()))
                while self.accept("op", ","):
                    vals.append(_const_value(self.expr()))
            self.expect("op", "]")
            return Node("lit", list(vals))
        if t[0] == "kw" and t[1] in ("DATE", "TIMESTAMP") \
                and self.peek()[0] == "str":
            # typed literal: DATE '1995-03-15' / TIMESTAMP '...' (standard
            # SQL; DuckDB parses the same text)
            import datetime as _dt

            s = self.next()[1]
            if t[1] == "DATE":
                return Node("lit", _dt.date.fromisoformat(s))
            return Node("lit", _dt.datetime.fromisoformat(s))
        if t == ("kw", "GROUPING") and self.peek() == ("op", "("):
            # GROUPING(a[, b...]): per-row bitmask of which arguments are
            # rolled up in this grouping set (leftmost = most significant,
            # DuckDB/standard semantics). Resolved to a literal per
            # grouping set in _execute_group_sets; invalid elsewhere.
            self.next()
            args = [self.expr()]
            while self.accept("op", ","):
                args.append(self.expr())
            self.expect("op", ")")
            if any(a.kind != "col" for a in args):
                raise ValueError("GROUPING takes plain column arguments")
            return Node("call", "grouping", tuple(args))
        if t == ("kw", "TEXT"):
            # 'text' is both the TEXT type name and the documents table's
            # text column (the north-star input schema). As an expression
            # atom it can only mean the column; CAST consumes the type
            # token explicitly so this never shadows CAST(x AS TEXT).
            return Node("col", "text")
        if t == ("kw", "EXISTS"):
            self.expect("op", "(")
            sub = _parse_subselect(self)
            self.expect("op", ")")
            return Node("exists_sub", None, (sub,))
        if t == ("op", "("):
            if self.peek() == ("kw", "SELECT"):
                sub = _parse_subselect(self)
                self.expect("op", ")")
                return Node("scalar_sub", None, (sub,))
            e = self.expr()
            self.expect("op", ")")
            return e
        if t == ("op", "*"):
            # DuckDB star modifiers: * EXCLUDE (a, b) / * REPLACE (e AS a)
            excl: tuple = ()
            repl: tuple = ()
            while self.peek()[0] in ("id", "kw") and \
                    str(self.peek()[1]).upper() in ("EXCLUDE", "REPLACE"):
                word = self.next()[1].upper()
                self.expect("op", "(")
                if word == "EXCLUDE":
                    names = [self.expect("id")[1]]
                    while self.accept("op", ","):
                        names.append(self.expect("id")[1])
                    excl = tuple(names)
                else:
                    pairs = []
                    while True:
                        e = self.expr()
                        self.expect("kw", "AS")
                        pairs.append((e, self.expect("id")[1]))
                        if not self.accept("op", ","):
                            break
                    repl = tuple(pairs)
                self.expect("op", ")")
            if excl or repl:
                return Node("star", (excl, repl))
            return Node("star")
        if t == ("kw", "CAST") or (t[0] == "id"
                                   and t[1].upper() == "TRY_CAST"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("kw", "AS")
            ty = self.next()
            tyname = ty[1]
            if self.accept("op", "["):  # array type: DOUBLE[] etc.
                self.expect("op", "]")
                tyname += "[]"
            self.expect("op", ")")
            kind = "cast" if t == ("kw", "CAST") else "trycast"
            return Node(kind, tyname, (e,))
        if t[0] == "kw" and t[1] in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
            self.expect("op", "(")
            if t[1] == "COUNT" and self.accept("op", "*"):
                self.expect("op", ")")
                return self._maybe_over(self._maybe_filter(
                    Node("agg", ("count_star", None))))
            if t[1] == "COUNT" and self.accept("kw", "DISTINCT"):
                inner = self.expr()
                self.expect("op", ")")
                # expression targets pre-compute as hidden columns (same
                # path as aggregates over expressions)
                return Node("agg", ("count_distinct",
                                    inner.value if inner.kind == "col"
                                    else inner))
            inner = self.expr()
            self.expect("op", ")")
            kinds = {"COUNT": "count", "SUM": "sum", "MIN": "min",
                     "MAX": "max", "AVG": "mean"}
            # plain column -> name; expression -> the Node itself (the
            # executor pre-computes it as a hidden column before grouping)
            return self._maybe_over(self._maybe_filter(
                Node("agg", (kinds[t[1]],
                             inner.value if inner.kind == "col" else inner))))
        if t[0] == "kw" and t[1] in ("ROW_NUMBER", "RANK", "DENSE_RANK",
                                     "PERCENT_RANK", "CUME_DIST"):
            self.expect("op", "(")
            self.expect("op", ")")
            if not self._over_ahead():
                raise ValueError(f"{t[1]}() requires an OVER clause")
            return self._maybe_over(Node("call", t[1].lower(), ()))
        if t[0] == "kw" and t[1] in ("NTILE", "FIRST_VALUE", "LAST_VALUE"):
            self.expect("op", "(")
            e = self.expr()
            ign = self._accept_nulls_opt()
            self.expect("op", ")")
            if not self._over_ahead():
                raise ValueError(f"{t[1]}() requires an OVER clause")
            name = t[1].lower() + ("#in" if ign and t[1] != "NTILE" else "")
            return self._maybe_over(Node("call", name, (e,)))
        if t == ("kw", "NTH_VALUE"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("op", ",")
            nn = self.expr()
            ign = self._accept_nulls_opt()
            self.expect("op", ")")
            if not self._over_ahead():
                raise ValueError("NTH_VALUE() requires an OVER clause")
            name = "nth_value" + ("#in" if ign else "")
            return self._maybe_over(Node("call", name, (e, nn)))
        if t[0] == "kw" and t[1] in ("LAG", "LEAD"):
            self.expect("op", "(")
            e = self.expr()
            off = dflt = None
            if self.accept("op", ","):
                off = self.expr()
                if self.accept("op", ","):
                    dflt = self.expr()
            ign = self._accept_nulls_opt()
            self.expect("op", ")")
            if not self._over_ahead():
                raise ValueError(f"{t[1]}() requires an OVER clause")
            name = t[1].lower() + ("#in" if ign else "")
            return self._maybe_over(Node("call", name, (e, off, dflt)))
        if t == ("kw", "CONCAT"):
            self.expect("op", "(")
            args = [self.expr()]
            while self.accept("op", ","):
                args.append(self.expr())
            self.expect("op", ")")
            return Node("call", "concat", tuple(args))
        if t[0] == "kw" and t[1] in ("SUBSTR", "SUBSTRING"):
            self.expect("op", "(")
            s = self.expr()
            self.expect("op", ",")
            start = self.expr()
            length = None
            if self.accept("op", ","):
                length = self.expr()
            self.expect("op", ")")
            return Node("call", "substr", (s, start, length))
        if t[0] == "kw" and t[1] in ("UPPER", "LOWER", "LENGTH", "ABS",
                                     "FLOOR", "CEIL", "CEILING", "TRIM",
                                     "LTRIM", "RTRIM"):
            self.expect("op", "(")
            e = self.expr()
            self.expect("op", ")")
            name = {"CEILING": "ceil"}.get(t[1], t[1].lower())
            return Node("call", name, (e,))
        if t == ("kw", "LEFT") and self.peek() == ("op", "("):
            # LEFT(s, n) the string function — LEFT is otherwise the
            # LEFT JOIN keyword
            self.next()
            s = self.expr()
            self.expect("op", ",")
            n = self.expr()
            self.expect("op", ")")
            return Node("call", "left", (s, n))
        if t == ("kw", "ROUND"):
            self.expect("op", "(")
            e = self.expr()
            nd = None
            if self.accept("op", ","):
                nd = self.expr()
            self.expect("op", ")")
            return Node("call", "round", (e, nd))
        if t == ("kw", "REPLACE"):
            self.expect("op", "(")
            a = self.expr()
            self.expect("op", ",")
            b = self.expr()
            self.expect("op", ",")
            c = self.expr()
            self.expect("op", ")")
            return Node("call", "replace", (a, b, c))
        if t[0] == "kw" and t[1] in ("COALESCE", "NULLIF"):
            self.expect("op", "(")
            args = [self.expr()]
            while self.accept("op", ","):
                args.append(self.expr())
            self.expect("op", ")")
            return Node("call", t[1].lower(), tuple(args))
        if t == ("kw", "CASE"):
            operand = None
            if self.peek() != ("kw", "WHEN"):
                operand = self.expr()  # simple CASE x WHEN v THEN ...
            whens = []
            while self.accept("kw", "WHEN"):
                cond = self.expr()
                if operand is not None:
                    cond = Node("bin", "=", (operand, cond))
                self.expect("kw", "THEN")
                whens.append((cond, self.expr()))
            els = None
            if self.accept("kw", "ELSE"):
                els = self.expr()
            self.expect("kw", "END")
            return Node("case", els, tuple(whens))
        if t[0] == "id":
            name = t[1]
            lname = name.lower()
            if lname == "interval" and self.peek()[0] in ("str", "num"):
                # INTERVAL '3' MONTH / INTERVAL 3 MONTH (constant only;
                # folded against dates at eval time)
                n = int(self.next()[1])
                unit = self.next()[1].lower().rstrip("s")
                if unit not in ("year", "month", "week", "day", "hour",
                                "minute", "second"):
                    raise ValueError(f"INTERVAL: unsupported unit {unit!r}")
                return Node("interval", (n, unit))
            if lname == "string_agg" and self.peek() == ("op", "("):
                # STRING_AGG(col, 'sep' ORDER BY ocol) — ordered per-key
                # concatenation (ops.relational.groupby_string_agg). The
                # ORDER BY is REQUIRED: without it concatenation order is
                # engine-nondeterministic and can never oracle-match.
                self.next()
                inner = self.expr()
                self.expect("op", ",")
                sepn = self.expr()
                if not self.accept("kw", "ORDER"):
                    raise ValueError("STRING_AGG requires ORDER BY "
                                     "(deterministic concatenation order)")
                self.expect("kw", "BY")
                ocol = self.expr()
                self.expect("op", ")")
                if inner.kind != "col" or ocol.kind != "col" \
                        or sepn.kind != "lit":
                    raise ValueError("STRING_AGG(col, 'sep' ORDER BY col) "
                                     "supports plain columns + literal sep")
                return Node("agg", ("string_agg", inner.value),
                            (Node("lit", str(sepn.value)),
                             Node("lit", ocol.value)))
            if lname in ("array_agg", "list") and self.peek() == ("op", "("):
                # ARRAY_AGG(col ORDER BY ocol) / LIST(...) — ordered per-key
                # typed list (ops.relational.groupby_array_agg). ORDER BY is
                # REQUIRED: unordered concatenation is engine-nondeterministic.
                self.next()
                inner = self.expr()
                if not self.accept("kw", "ORDER"):
                    raise ValueError("ARRAY_AGG requires ORDER BY "
                                     "(deterministic element order)")
                self.expect("kw", "BY")
                ocol = self.expr()
                self.expect("op", ")")
                if inner.kind != "col" or ocol.kind != "col":
                    raise ValueError("ARRAY_AGG(col ORDER BY col) "
                                     "supports plain columns")
                return Node("agg", ("array_agg", inner.value),
                            (Node("lit", ocol.value),))
            if lname == "quantile_cont" and self.peek() == ("op", "("):
                # exact interpolated quantile (DuckDB quantile_cont /
                # percentile_cont) — ops.sketch.groupby_quantiles with
                # linear interpolation
                self.next()
                inner = self.expr()
                self.expect("op", ",")
                qn = self.expr()
                self.expect("op", ")")
                if inner.kind != "col":
                    raise ValueError(
                        "QUANTILE_CONT supports plain columns only")
                return Node("agg", ("quantile_cont", inner.value),
                            (Node("lit", float(_const_value(qn))),))
            if lname == "quantile_disc" and self.peek() == ("op", "("):
                # exact discrete quantile aggregate (DuckDB quantile_disc)
                # — non-algebraic, routed to ops.sketch.groupby_quantiles
                self.next()
                inner = self.expr()
                self.expect("op", ",")
                qn = self.expr()
                self.expect("op", ")")
                if inner.kind != "col":
                    raise ValueError(
                        "QUANTILE_DISC supports plain columns only")
                return Node("agg", ("quantile_disc", inner.value),
                            (Node("lit", float(_const_value(qn))),))
            if lname == "unnest" and self.peek() == ("op", "("):
                # UNNEST(list_col) as a top-level select item: one output
                # row per list element (DuckDB semantics; null/empty lists
                # emit nothing). Executes as a vectorized flat-map fan-out
                # before projection (ops.relational.explode_list pattern).
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                if inner.kind != "col":
                    # UNNEST over a computed list expression (e.g.
                    # STRING_SPLIT(text, ' ')): the expression materializes
                    # into a hidden column before the fan-out
                    return Node("unnest", None, (inner,))
                return Node("unnest", inner.value)
            if lname in ("percentile_cont", "percentile_disc") \
                    and self.peek() == ("op", "("):
                # SQL-standard ordered-set spelling:
                #   PERCENTILE_CONT(q) WITHIN GROUP (ORDER BY col [DESC])
                # routes to the same exact groupby_quantiles path as
                # QUANTILE_CONT/DISC; DESC mirrors the fraction (1-q)
                self.next()
                qn = self.expr()
                self.expect("op", ")")
                if not (self.peek()[0] == "id"
                        and self.peek()[1].lower() == "within"):
                    raise ValueError(f"{lname.upper()}(q) requires "
                                     "WITHIN GROUP (ORDER BY col)")
                self.next()
                self.expect("kw", "GROUP")
                self.expect("op", "(")
                self.expect("kw", "ORDER")
                self.expect("kw", "BY")
                inner = self.expr()
                desc = bool(self.accept("kw", "DESC"))
                self.accept("kw", "ASC")
                self.expect("op", ")")
                if inner.kind != "col":
                    raise ValueError(
                        f"{lname.upper()} supports plain columns only")
                frac = float(_const_value(qn))
                if desc:
                    # cont: mirroring the fraction is exact; disc: the
                    # tie-at-boundary element differs — not supported
                    if lname == "percentile_disc":
                        raise ValueError(
                            "PERCENTILE_DISC ... ORDER BY DESC unsupported")
                    frac = 1.0 - frac
                kind = ("quantile_cont" if lname == "percentile_cont"
                        else "quantile_disc")
                return Node("agg", (kind, inner.value),
                            (Node("lit", frac),))
            if lname == "median" and self.peek() == ("op", "("):
                # MEDIAN(col) = QUANTILE_CONT(col, 0.5) (DuckDB's numeric
                # median interpolates) — same exact groupby_quantiles path
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                if inner.kind != "col":
                    raise ValueError("MEDIAN supports plain columns only")
                return Node("agg", ("quantile_cont", inner.value),
                            (Node("lit", 0.5),))
            if lname == "mode" and self.peek() == ("op", "("):
                # MODE(col): most frequent value, ties -> smallest value
                # (deterministic; ops.relational.groupby_mode)
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                if inner.kind != "col":
                    raise ValueError("MODE supports plain columns only")
                return Node("agg", ("mode", inner.value))
            if lname == "entropy" and self.peek() == ("op", "("):
                # ENTROPY(col): base-2 Shannon entropy of the value
                # distribution (ops.relational.groupby_entropy; all-null
                # group -> 0.0, DuckDB convention)
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                # expression targets pre-compute as hidden columns (the
                # same _agg_target pass every aggregate goes through)
                return Node("agg", ("entropy",
                                    inner.value if inner.kind == "col"
                                    else inner))
            if lname in ("arg_max", "arg_min", "max_by", "min_by") \
                    and self.peek() == ("op", "("):
                # ARG_MAX(val, by) / MAX_BY synonyms — the winners path
                # (ops.relational.groupby_arg_extreme)
                self.next()
                v = self.expr()
                self.expect("op", ",")
                o = self.expr()
                self.expect("op", ")")
                if v.kind != "col" or o.kind != "col":
                    raise ValueError(
                        f"{lname.upper()} supports plain columns only")
                kind = "arg_max" if lname in ("arg_max", "max_by") \
                    else "arg_min"
                return Node("agg", (kind, v.value), (Node("lit", o.value),))
            if lname in ("bool_and", "bool_or") and self.peek() == ("op", "("):
                # macro over MIN/MAX of the 0/1-cast predicate; aggregate
                # null skipping gives SQL semantics (all-null -> NULL)
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                agg = "min" if lname == "bool_and" else "max"
                return Node("bin", "=",
                            (Node("agg",
                                  (agg, Node("cast", "BIGINT", (inner,)))),
                             Node("lit", 1)))
            if lname in ("covar_samp", "covar_pop", "corr") \
                    and self.peek() == ("op", "("):
                # exact co-moment aggregates (groupby_agg kinds cov_samp/
                # cov_pop/cov_sum): pairwise-null masked, batch-shifted
                # product sums — no Var(x+y) identity (its cancellation
                # loses ~5 digits when |mean| >> |cov|) and no raw
                # sum-of-products cancellation.
                self.next()
                ye = self.expr()
                self.expect("op", ",")
                xe = self.expr()
                self.expect("op", ")")
                yt = ye.value if ye.kind == "col" else ye
                xt = xe.value if xe.kind == "col" else xe
                if lname == "covar_samp":
                    return Node("agg", ("cov_samp", (yt, xt)))
                if lname == "covar_pop":
                    return Node("agg", ("cov_pop", (yt, xt)))
                # CORR = C2 / sqrt(SXX * SYY) over the PAIRWISE-masked
                # columns; NULL when either variance is 0 (DuckDB)
                both = Node("bin", "and",
                            (Node("isnull", False, (ye,)),
                             Node("isnull", False, (xe,))))
                yp = Node("case", None, ((both, ye),))
                xp = Node("case", None, ((both, xe),))
                sy = Node("agg", ("std", yp))
                sx = Node("agg", ("std", xp))
                num = Node("agg", ("cov_samp", (yp, xp)))
                zero = Node("lit", 0.0)
                return Node("case", None, (
                    (Node("bin", "and",
                          (Node("bin", ">", (sx, zero)),
                           Node("bin", ">", (sy, zero)))),
                     Node("bin", "/",
                          (num, Node("bin", "*", (sx, sy))))),
                ))
            if lname in ("regr_slope", "regr_intercept", "regr_r2",
                         "regr_count", "regr_avgx", "regr_avgy",
                         "regr_sxx", "regr_syy", "regr_sxy") \
                    and self.peek() == ("op", "("):
                # SQL-standard linear-regression aggregates as parse-time
                # macros on the shift-stable variance machinery. PAIRWISE
                # null semantics: both args wrap in CASE WHEN x IS NOT NULL
                # AND y IS NOT NULL (DuckDB drops a pair when either side
                # is NULL). Edge rules pinned to DuckDB: slope/intercept/r2
                # NULL when SXX=0; r2=1.0 when SYY=0 and SXX>0; S** = 0.0
                # for single-pair groups, NULL for empty.
                self.next()
                ye = self.expr()
                self.expect("op", ",")
                xe = self.expr()
                self.expect("op", ")")
                both = Node("bin", "and",
                            (Node("isnull", False, (ye,)),
                             Node("isnull", False, (xe,))))
                yp = Node("case", None, ((both, ye),))
                xp = Node("case", None, ((both, xe),))
                n = Node("agg", ("count", xp))
                one, two = Node("lit", 1), Node("lit", 2)
                zero = Node("lit", 0.0)

                def _pvar(e):
                    s = Node("agg", ("std", e))
                    return Node("bin", "*", (s, s))

                def _sdev2(e):
                    # sum((e-avg)^2) = (n-1)*var_samp; 0.0 for n=1
                    return Node("case", None, (
                        (Node("bin", ">=", (n, two)),
                         Node("bin", "*",
                              (_pvar(e), Node("bin", "-", (n, one))))),
                        (Node("bin", ">=", (n, one)), zero),
                    ))

                def _sxy():
                    # exact pairwise co-moment sum C2 (cov_sum kind:
                    # 0.0 for single-pair groups, NULL for empty)
                    return Node("agg", ("cov_sum", (yp, xp)))

                if lname == "regr_count":
                    return Node("cast", "BIGINT", (n,))
                if lname == "regr_avgx":
                    return Node("agg", ("mean", xp))
                if lname == "regr_avgy":
                    return Node("agg", ("mean", yp))
                if lname == "regr_sxx":
                    return _sdev2(xp)
                if lname == "regr_syy":
                    return _sdev2(yp)
                if lname == "regr_sxy":
                    return _sxy()
                sxx = _sdev2(xp)
                slope = Node("case", None, (
                    (Node("bin", ">", (sxx, zero)),
                     Node("bin", "/", (_sxy(), sxx))),
                ))
                if lname == "regr_slope":
                    return slope
                if lname == "regr_intercept":
                    return Node("bin", "-",
                                (Node("agg", ("mean", yp)),
                                 Node("bin", "*",
                                      (slope, Node("agg", ("mean", xp))))))
                syy = _sdev2(yp)
                return Node("case", None, (
                    (Node("bin", "and",
                          (Node("bin", ">", (sxx, zero)),
                           Node("bin", ">", (syy, zero)))),
                     Node("bin", "/",
                          (Node("bin", "*", (_sxy(), _sxy())),
                           Node("bin", "*", (sxx, syy))))),
                    (Node("bin", ">", (sxx, zero)), Node("lit", 1.0)),
                ))
            if lname in ("stddev", "stddev_samp", "variance", "var_samp") \
                    and self.peek() == ("op", "("):
                # sample stddev/variance (DuckDB/OGR STDDEV_SAMP
                # semantics; the grouped-Welford combiner in groupby_agg)
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                tgt = inner.value if inner.kind == "col" else inner
                std = Node("agg", ("std", tgt))
                if lname in ("stddev", "stddev_samp"):
                    return std
                return Node("bin", "*", (std, std))
            if lname in ("skewness", "kurtosis", "kurtosis_pop", "product",
                         "any_value") and self.peek() == ("op", "("):
                # DuckDB-parity moment/product aggregates on groupby_agg's
                # shift-stable central-moment machinery (skewness NULL for
                # n<3 or zero variance; kurtosis = sample excess, NULL for
                # n<4; kurtosis_pop = population excess; PRODUCT -> DOUBLE)
                self.next()
                inner = self.expr()
                self.expect("op", ")")
                tgt = inner.value if inner.kind == "col" else inner
                kind = {"skewness": "skew", "kurtosis": "kurt",
                        "kurtosis_pop": "kurt_pop", "product": "product",
                        "any_value": "any"}[lname]
                return self._maybe_filter(Node("agg", (kind, tgt)))
            if lname == "extract" and self.peek() == ("op", "("):
                # EXTRACT(part FROM expr) — part is a bare word
                self.next()
                part = self.next()[1]
                self.expect("kw", "FROM")
                e = self.expr()
                self.expect("op", ")")
                return Node("call", "extract",
                            (Node("lit", str(part).lower()), e))
            if lname in _BUILTIN_CALLS and self.peek() == ("op", "("):
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.expr())
                    while self.accept("op", ","):
                        args.append(self.expr())
                self.expect("op", ")")
                return Node("call", _BUILTIN_CALLS[lname], tuple(args))
            # user-registered SQL function? (register_sql_function)
            if name.lower() in _SQL_FUNCTIONS and self.peek() == ("op", "("):
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.expr())
                    while self.accept("op", ","):
                        args.append(self.expr())
                self.expect("op", ")")
                # bind the CALLABLE into the AST node at parse time: the
                # registry lives on the driver, but eval runs in Ray worker
                # processes — the closure ships with the task
                return Node("udf", _SQL_FUNCTIONS[name.lower()], tuple(args))
            # table-qualified reference tbl.col — kept DOTTED here; the
            # scope-resolution pass (_resolve_scopes) later strips the
            # qualifier when unambiguous or rewrites it onto the renamed
            # column of a duplicated-table alias (self-join support,
            # reference: ogr/swq_select.cpp field resolution over multiple
            # table defs)
            if self.peek() == ("op", ".") and self.toks[self.i + 1][0] == "id":
                self.next()
                name = f"{name}.{self.next()[1]}"
            return Node("col", name)
        raise ValueError(f"unexpected token {t}")


@dataclass
class Join:
    table: str
    alias: str | None
    left: bool           # LEFT JOIN vs inner JOIN
    left_key: str        # bare column name on the accumulated left side
    right_key: str       # bare column name on the joined table
    # additional equi key pairs [(left, right)] for composite-key joins
    # (comma-FROM planning folds every connecting equality into one join)
    extra_pairs: list | None = None
    # ASOF JOIN: (eq_pairs [(a, b)...], (op, a, b)) — the inequality pair
    # decides direction at plan time once column sides are known
    asof_spec: tuple | None = None
    # CROSS JOIN (no keys; right side broadcasts, per-batch cartesian)
    cross: bool = False
    # NATURAL JOIN: keys = shared column names, resolved at execute time
    # (schemas are unknown at parse time)
    natural: bool = False


@dataclass
class Select:
    items: list          # [(Node, alias or None)]
    distinct: bool
    table: str
    where: Node | None
    group_by: list
    order_by: list       # [(col, desc)]
    limit: int | None
    joins: list = None   # [Join]
    having: Node | None = None
    offset: int | None = None
    # ROLLUP/CUBE/GROUPING SETS: list of key-name tuples (each a subset of
    # group_by); None means plain GROUP BY
    group_sets: list | None = None
    # QUALIFY predicate (filter over window-function results)
    qualify: Node | None = None
    # comma-separated FROM list [(table, alias), ...] INCLUDING the first
    # ref; None for single-table FROM. _resolve_scopes converts the extra
    # refs into equi Joins extracted from WHERE.
    from_refs: list | None = None
    # UNPIVOT (on_cols, name_col, value_col): wide->long rewrite applied
    # right after the FROM source is read — ONE scan, one vectorized
    # tile/concat kernel per batch (not a UNION ALL of k scans)
    unpivot: tuple | None = None
    # DISTINCT ON (cols): first output row per key under the query's
    # ORDER BY — executes on the first_by winners machinery (one shuffle
    # of one row per (group, block))
    distinct_on: list | None = None
    # alias of the (first) FROM table, for scope resolution
    table_alias: str | None = None


@dataclass
class Query:
    cores: list          # [Select]; >1 means a set-op chain
    order_by: list
    limit: int | None
    offset: int | None
    # set_ops[i] combines cores[i] with cores[i+1]:
    # "union_all" | "union" | "intersect" | "except"
    set_ops: list = None
    # WITH RECURSIVE ctes: {name: (base_core, step_core, union_all)}
    rec_ctes: dict | None = None


def _parse_subselect(p: Parser) -> Select:
    """A parenthesized SELECT (subquery / derived table): a full core plus
    its OWN optional ORDER BY / LIMIT / OFFSET (needed for top-1 scalar
    subqueries and LIMITed derived tables)."""
    core = _parse_core(p)
    if p.accept("kw", "ORDER"):
        p.expect("kw", "BY")
        while True:
            e = p.expr()
            col = e.value if e.kind == "col" else e
            desc = bool(p.accept("kw", "DESC"))
            if not desc:
                p.accept("kw", "ASC")
            core.order_by.append((col, desc))
            if not p.accept("op", ","):
                break
    if p.accept("kw", "LIMIT"):
        core.limit = int(p.expect("num")[1])
        if p.accept("kw", "OFFSET"):
            core.offset = int(p.expect("num")[1])
    return core


def _parse_unpivot(p: Parser) -> Select:
    """(UNPIVOT tbl ON c1, c2 ... INTO NAME k VALUE v) — DuckDB syntax.
    Null values are excluded from the output (DuckDB default)."""
    p.next()  # UNPIVOT
    if p.accept("op", "("):
        base = _parse_subselect(p)
        p.expect("op", ")")
    else:
        base = p.expect("id")[1]
    if not (p.peek()[0] == "kw" and p.peek()[1] == "ON"):
        raise ValueError("UNPIVOT: expected ON")
    p.next()
    cols = [p.expect("id")[1]]
    while p.accept("op", ","):
        cols.append(p.expect("id")[1])
    if not (p.peek() == ("id", "INTO") or (p.peek()[0] == "id"
                                           and p.peek()[1].upper() == "INTO")):
        raise ValueError("UNPIVOT: expected INTO NAME <id> VALUE <id>")
    p.next()
    if p.peek()[0] != "id" or p.next()[1].upper() != "NAME":
        raise ValueError("UNPIVOT: expected NAME")
    name_col = p.expect("id")[1]
    nxt = p.next()
    if nxt[0] != "id" or nxt[1].upper() != "VALUE":
        raise ValueError("UNPIVOT: expected VALUE")
    val_col = p.expect("id")[1]
    return Select([(Node("star"), None)], False, base, None, [], [], None,
                  unpivot=(tuple(cols), name_col, val_col))


def _parse_pivot(p: Parser) -> Select:
    """(PIVOT tbl ON col IN (v1, v2 ...) USING AGG(expr) GROUP BY g ...)
    — DuckDB's static-value PIVOT, rewritten at parse time into the
    filtered-aggregate form the engine already distributes: one output
    column per IN value, holding AGG(CASE WHEN col = v THEN expr END)
    (COUNT(*) pivots to COUNT(CASE WHEN col = v THEN 1 END)). One scan,
    one grouped aggregate — never one scan per value."""
    p.next()  # PIVOT
    if p.accept("op", "("):
        base = _parse_subselect(p)
        p.expect("op", ")")
    else:
        base = p.expect("id")[1]
    p.expect("kw", "ON")
    on_col = p.expect("id")[1]
    p.expect("kw", "IN")
    p.expect("op", "(")
    vals = []
    while True:
        t = p.next()
        if t[0] not in ("num", "str"):
            raise ValueError("PIVOT: IN list takes literals")
        vals.append(t[1])
        if not p.accept("op", ","):
            break
    p.expect("op", ")")
    if p.peek()[0] != "id" or p.next()[1].upper() != "USING":
        raise ValueError("PIVOT: expected USING <aggregate>")
    agg = p.expr()
    group_by = []
    if p.accept("kw", "GROUP"):
        p.expect("kw", "BY")
        group_by.append(p.expect("id")[1])
        while p.accept("op", ","):
            group_by.append(p.expect("id")[1])
    if not group_by:
        raise ValueError("PIVOT: GROUP BY is required "
                         "(implicit all-remaining-columns grouping is "
                         "unsupported)")

    def guard(n, v):
        if not isinstance(n, Node):
            return n
        if n.kind == "agg":
            kind, target = n.value
            cond = Node("bin", "=", (Node("col", on_col), Node("lit", v)))
            if kind == "count_star":
                return Node("agg", ("count",
                                    Node("case", None,
                                         ((cond, Node("lit", 1)),))), n.args)

            def _wrap(tgt):
                tn = Node("col", tgt) if isinstance(tgt, str) else tgt
                return Node("case", None, ((cond, tn),))

            if isinstance(target, tuple):  # co-moment pair target
                return Node("agg",
                            (kind, tuple(_wrap(e) for e in target)), n.args)
            return Node("agg", (kind, _wrap(target)), n.args)
        return Node(n.kind, n.value, tuple(
            guard(a, v) if isinstance(a, Node)
            else (tuple(guard(e, v) if isinstance(e, Node) else e for e in a)
                  if isinstance(a, tuple) else a) for a in n.args))

    items = [(Node("col", g), None) for g in group_by]
    items += [(guard(agg, v), str(v)) for v in vals]
    return Select(items, False, base, None, list(group_by), [], None)


def _parse_values(p: Parser) -> Select:
    """(VALUES (1, 'a'), (2, 'b')) [AS t(x, y)] — inline constant table.
    Columns default to col0..colN (DuckDB naming); an alias column list
    renames them. Materializes to ONE Arrow table on the driver (VALUES
    lists are small by construction)."""
    p.next()  # VALUES
    rows = []
    while True:
        p.expect("op", "(")
        row = [_const_value(p.expr())]
        while p.accept("op", ","):
            row.append(_const_value(p.expr()))
        p.expect("op", ")")
        rows.append(row)
        if not p.accept("op", ","):
            break
    ncol = len(rows[0])
    if any(len(r) != ncol for r in rows):
        raise ValueError("VALUES: rows have differing arity")
    tbl = pa.table({f"col{i}": pa.array([r[i] for r in rows])
                    for i in range(ncol)})
    return Select([(Node("star"), None)], False, tbl, None, [], [], None)


def _parse_series(p: Parser) -> Select:
    """FROM generate_series(a, b[, step]) / range(a, b[, step]) — integer
    series as a TABLE function. generate_series is INCLUSIVE of b, range
    EXCLUSIVE (DuckDB semantics); the column carries the function's name.
    Executes as a DISTRIBUTED ray.data.range (no driver materialization),
    so a 10^9-row spine is as cheap as a parquet scan."""
    fname = p.next()[1].lower()
    p.expect("op", "(")
    a = int(_const_value(p.expr()))
    p.expect("op", ",")
    b = int(_const_value(p.expr()))
    step = 1
    if p.accept("op", ","):
        step = int(_const_value(p.expr()))
    p.expect("op", ")")
    if step == 0:
        raise ValueError("series step must be nonzero")
    stop = b + (1 if step > 0 else -1) if fname == "generate_series" else b
    return Select([(Node("star"), None)], False,
                  ("__series__", a, stop, step, fname), None, [], [], None)


def _series_table(spec) -> tuple:
    _tag, a, stop, step, fname = spec
    n = max(0, -(-(stop - a) // step))
    return n, a, step, fname


def _parse_table_ref(p: Parser):
    if (p.peek()[0] == "id"
            and p.peek()[1].lower() in ("generate_series", "range")
            and p.toks[p.i + 1] == ("op", "(")):
        name = _parse_series(p)
        alias = None
        if p.accept("kw", "AS"):
            alias = p.expect("id")[1]
        elif p.peek()[0] == "id":
            alias = p.next()[1]
        if alias is not None and p.peek() == ("op", "("):
            p.next()
            newcol = p.expect("id")[1]
            p.expect("op", ")")
            name.table = name.table[:4] + (newcol,)
        return name, alias
    if p.accept("op", "("):
        if p.peek()[0] == "id" and p.peek()[1].lower() == "values":
            name = _parse_values(p)
            p.expect("op", ")")
        elif p.peek()[0] == "id" and p.peek()[1].lower() == "unpivot":
            name = _parse_unpivot(p)
            p.expect("op", ")")
        elif p.peek()[0] == "id" and p.peek()[1].lower() == "pivot":
            name = _parse_pivot(p)
            p.expect("op", ")")
        else:
            # derived table: FROM/JOIN ( SELECT ... ) [AS] alias — the
            # Select node itself stands in for the table name and
            # executes recursively
            name = _parse_subselect(p)
            p.expect("op", ")")
    else:
        name = p.expect("id")[1]
    alias = None
    if p.accept("kw", "AS"):
        alias = p.expect("id")[1]
    elif (p.peek()[0] == "id"
          and p.peek()[1].lower() not in ("cross", "natural", "using",
                                          "asof", "inner", "window")):
        # bare alias — but NOT a join-starter / clause keyword that the
        # tokenizer classifies as a plain id
        alias = p.next()[1]
    if alias is not None and p.peek() == ("op", "("):
        # alias column list `AS t(x, y)` — supported for VALUES tables
        p.next()
        newcols = [p.expect("id")[1]]
        while p.accept("op", ","):
            newcols.append(p.expect("id")[1])
        p.expect("op", ")")
        if not (isinstance(name, Select) and isinstance(name.table, pa.Table)):
            raise ValueError("alias column lists support VALUES tables only")
        if len(newcols) != name.table.num_columns:
            raise ValueError("alias column list arity mismatch")
        name.table = name.table.rename_columns(newcols)
    return name, alias


def _parse_core(p: Parser) -> Select:
    p.expect("kw", "SELECT")
    distinct = p.accept("kw", "DISTINCT")
    distinct_on = None
    if distinct and p.accept("kw", "ON"):
        p.expect("op", "(")
        distinct_on = [p.expect("id")[1]]
        while p.accept("op", ","):
            distinct_on.append(p.expect("id")[1])
        p.expect("op", ")")
        distinct = False
    items = []
    while True:
        e = p.expr()
        alias = None
        if p.accept("kw", "AS"):
            alias = p.expect("id")[1]
        items.append((e, alias))
        if not p.accept("op", ","):
            break
    if p.accept("kw", "FROM"):
        table, _table_alias = _parse_table_ref(p)
    else:
        # FROM-less SELECT (DuckDB allows `SELECT 1 AS one`): evaluate
        # the items over a one-row inline table (same machinery as VALUES)
        table, _table_alias = pa.table({"__dual": pa.array([1], pa.int8())
                                        }), None
    from_refs = [(table, _table_alias)]
    # comma-separated FROM list (TPC-H style implicit joins): the extra
    # refs become Join entries in _resolve_scopes, with equi predicates
    # lifted out of WHERE
    while p.accept("op", ","):
        from_refs.append(_parse_table_ref(p))
    joins = []
    while True:
        left = False
        natural = False
        # CROSS JOIN tbl: same semantics as a comma-FROM entry (a WHERE
        # equality still folds into an equi join; a genuine cartesian
        # falls back to the broadcast cross plan in _plan_comma_joins)
        if (p.peek()[0] == "id" and p.peek()[1].lower() == "cross"
                and p.toks[p.i + 1] == ("kw", "JOIN")):
            p.next()
            p.next()
            from_refs.append(_parse_table_ref(p))
            continue
        if (p.peek()[0] == "id" and p.peek()[1].lower() == "natural"
                and (p.toks[p.i + 1] == ("kw", "JOIN")
                     or p.toks[p.i + 1] == ("kw", "LEFT")
                     or (p.toks[p.i + 1][0] == "id"
                         and p.toks[p.i + 1][1].lower() == "inner"))):
            p.next()
            natural = True
        # ASOF [LEFT] JOIN tbl ON <equi conjuncts> AND <on-col ineq>
        # (DuckDB syntax; executes on ops.relational.asof_join)
        if (p.peek()[0] == "id" and p.peek()[1].lower() == "asof"
                and (p.toks[p.i + 1] == ("kw", "JOIN")
                     or (p.toks[p.i + 1] == ("kw", "LEFT")
                         and p.toks[p.i + 2] == ("kw", "JOIN")))):
            p.next()
            aleft = bool(p.accept("kw", "LEFT"))
            p.expect("kw", "JOIN")
            jtable, jalias = _parse_table_ref(p)
            p.expect("kw", "ON")
            eq, ineq = [], []
            for c in _split_conjuncts(p.expr()):
                if (c.kind == "bin" and c.args[0].kind == "col"
                        and c.args[1].kind == "col"):
                    if c.value == "=":
                        eq.append((c.args[0].value, c.args[1].value))
                        continue
                    if c.value in (">=", "<="):
                        ineq.append((c.value, c.args[0].value,
                                     c.args[1].value))
                        continue
                raise ValueError(
                    "ASOF JOIN ON must be col = col conjuncts plus one "
                    "col >= col / col <= col inequality")
            if len(ineq) != 1:
                raise ValueError("ASOF JOIN needs exactly one inequality")
            joins.append(Join(jtable, jalias, aleft, "", "",
                              asof_spec=(eq, ineq[0])))
            continue
        if p.peek() == ("kw", "LEFT"):
            p.next()
            left = True
            if p.peek()[0] == "id" and p.peek()[1].lower() == "outer":
                p.next()
            p.expect("kw", "JOIN")
        elif (p.peek()[0] == "id" and p.peek()[1].lower() == "inner"
              and p.toks[p.i + 1] == ("kw", "JOIN")):
            p.next()
            p.next()
        elif p.peek() == ("kw", "JOIN"):
            p.next()
        else:
            break
        jtable, jalias = _parse_table_ref(p)
        if natural:
            joins.append(Join(jtable, jalias, left, "", "", natural=True))
            continue
        if p.peek()[0] == "id" and p.peek()[1].lower() == "using":
            # JOIN ... USING (c1, c2): equi join on same-named columns;
            # the join coalesces each pair to ONE output column (pyarrow
            # join drops the right key — exactly USING semantics)
            p.next()
            p.expect("op", "(")
            ucols = [p.expect("id")[1]]
            while p.accept("op", ","):
                ucols.append(p.expect("id")[1])
            p.expect("op", ")")
            joins.append(Join(jtable, jalias, left, ucols[0], ucols[0],
                              extra_pairs=([(c, c) for c in ucols[1:]]
                                           or None)))
            continue
        p.expect("kw", "ON")
        cond = p.expr()
        # equi-joins: one field pair (ogr_sql_dialect.rst:425) or an
        # AND-ed conjunction of them (composite key; the executor orients
        # each pair to the right table, same as comma-FROM planning)
        pairs = []

        def _collect(c) -> bool:
            if c.kind == "bin" and c.value.upper() == "AND":
                return _collect(c.args[0]) and _collect(c.args[1])
            if (c.kind == "bin" and c.value == "="
                    and c.args[0].kind == "col" and c.args[1].kind == "col"):
                pairs.append((c.args[0].value, c.args[1].value))
                return True
            return False

        if not _collect(cond):
            raise ValueError(
                "JOIN ON must be <col> = <col> [AND <col> = <col> ...]")
        joins.append(Join(jtable, jalias, left, pairs[0][0], pairs[0][1],
                          extra_pairs=pairs[1:] or None))
    where = None
    if p.accept("kw", "WHERE"):
        where = p.expr()
    group_by = []
    group_sets = None
    if p.accept("kw", "GROUP"):
        p.expect("kw", "BY")

        def _cols_in_parens():
            p.expect("op", "(")
            cols = []
            if p.peek() != ("op", ")"):
                cols.append(p.expect("id")[1])
                while p.accept("op", ","):
                    cols.append(p.expect("id")[1])
            p.expect("op", ")")
            return tuple(cols)

        if p.accept("kw", "ROLLUP"):
            full = list(_cols_in_parens())
            group_by = full
            group_sets = [tuple(full[:i]) for i in range(len(full), -1, -1)]
        elif p.accept("kw", "CUBE"):
            full = list(_cols_in_parens())
            group_by = full
            group_sets = [tuple(c for j, c in enumerate(full)
                                if mask & (1 << j))
                          for mask in range((1 << len(full)) - 1, -1, -1)]
        elif p.peek() == ("kw", "GROUPING"):
            p.next()
            p.expect("kw", "SETS")
            p.expect("op", "(")
            group_sets = [_cols_in_parens()]
            while p.accept("op", ","):
                group_sets.append(_cols_in_parens())
            p.expect("op", ")")
            group_by = []
            for s in group_sets:
                for c in s:
                    if c not in group_by:
                        group_by.append(c)
        elif p.accept("kw", "ALL"):
            # GROUP BY ALL (DuckDB): every select item containing no
            # aggregate becomes a group key
            def _hasagg(n):
                if not isinstance(n, Node):
                    return False
                if n.kind == "agg":
                    return True
                return any(
                    _hasagg(a) or (isinstance(a, tuple)
                                   and any(_hasagg(b) for b in a))
                    for a in n.args)

            for it, _al in items:
                if isinstance(it, Node) and it.kind != "star" \
                        and not _hasagg(it):
                    group_by.append(it.value if it.kind == "col" else it)
        else:
            # plain column name -> name; anything else -> the expression
            # Node (pre-computed as a hidden column before grouping)
            def _gitem():
                e = p.expr()
                return e.value if e.kind == "col" else e
            group_by.append(_gitem())
            while p.accept("op", ","):
                group_by.append(_gitem())
    having = None
    if p.accept("kw", "HAVING"):
        having = p.expr()
    # WINDOW w AS (spec) [, w2 AS (spec)]: named window definitions;
    # OVER w placeholders in the items substitute here
    win_defs: dict = {}
    if p.peek() == ("id", "WINDOW") or (p.peek()[0] == "id"
                                        and p.peek()[1].upper() == "WINDOW"):
        p.next()
        while True:
            wname = p.expect("id")[1].lower()
            p.expect("kw", "AS")
            p.expect("op", "(")
            parts_, order_, frame_ = p._window_spec_body()
            win_defs[wname] = (tuple(parts_), tuple(order_), frame_)
            if not p.accept("op", ","):
                break

    def _subst_named(n):
        if not isinstance(n, Node):
            return n
        if n.kind == "win" and isinstance(n.value, tuple) \
                and n.value and n.value[0] == "__named__":
            wname = n.value[1]
            if wname not in win_defs:
                raise ValueError(f"unknown window {wname!r}")
            parts_, order_, frame_ = win_defs[wname]
            return Node("win", frame_, (n.args[0], parts_, order_))
        return Node(n.kind, n.value, tuple(
            _subst_named(a) if isinstance(a, Node)
            else tuple(_subst_named(x) if isinstance(x, Node) else x
                       for x in a) if isinstance(a, tuple) else a
            for a in n.args))

    if win_defs:
        items = [(_subst_named(e), a) for e, a in items]
    qualify = None
    if p.accept("kw", "QUALIFY"):
        qualify = p.expr()
    if win_defs and qualify is not None:
        qualify = _subst_named(qualify)
    # GROUP BY ordinals (GROUP BY 1, 2): positional references into the
    # select list, standard DuckDB/Postgres shorthand
    for gi, g in enumerate(group_by):
        if isinstance(g, Node) and g.kind == "lit" and isinstance(g.value, int):
            if not 1 <= g.value <= len(items):
                raise ValueError(f"GROUP BY ordinal {g.value} out of range")
            it = items[g.value - 1][0]
            group_by[gi] = it.value if it.kind == "col" else it
    return Select(items, distinct, table, where, group_by, [], None,
                  joins=joins, having=having, group_sets=group_sets,
                  qualify=qualify,
                  from_refs=from_refs if len(from_refs) > 1 else None,
                  table_alias=_table_alias, distinct_on=distinct_on)


def _subst_ctes(x, ctes: dict):
    """Replace table-name references to CTEs with (deep copies of) their
    defining Selects — everywhere a Select can appear: FROM, JOIN, and
    subquery nodes inside expressions."""
    import copy

    if isinstance(x, Select):
        if isinstance(x.table, str) and x.table.lower() in ctes:
            x.table = copy.deepcopy(ctes[x.table.lower()])
        else:
            _subst_ctes(x.table, ctes)
        for j in (x.joins or []):
            if isinstance(j.table, str) and j.table.lower() in ctes:
                j.table = copy.deepcopy(ctes[j.table.lower()])
            else:
                _subst_ctes(j.table, ctes)
        if x.from_refs:
            x.from_refs = [
                (copy.deepcopy(ctes[t.lower()])
                 if isinstance(t, str) and t.lower() in ctes else t, a)
                for t, a in x.from_refs]
            x.table = x.from_refs[0][0]
        _subst_ctes(x.items, ctes)
        _subst_ctes(x.where, ctes)
        _subst_ctes(x.having, ctes)
        _subst_ctes(x.qualify, ctes)
        _subst_ctes(x.group_by, ctes)
        _subst_ctes(x.order_by, ctes)
        return
    if isinstance(x, Node):
        _subst_ctes(x.value, ctes)
        _subst_ctes(x.args, ctes)
        return
    if isinstance(x, (tuple, list)):
        for i in x:
            _subst_ctes(i, ctes)


def _refs_table(x, name: str) -> bool:
    """Does a Select (or expression tree) reference table `name` in any
    FROM/JOIN position, including nested subqueries?"""
    if isinstance(x, Select):
        refs = list(x.from_refs or [(x.table, x.table_alias)])
        refs += [(j.table, j.alias) for j in (x.joins or [])]
        for t, _a in refs:
            if isinstance(t, str) and t.lower() == name:
                return True
            if isinstance(t, Select) and _refs_table(t, name):
                return True
        return any(_refs_table(r, name)
                   for r in (x.items, x.where, x.having, x.qualify,
                             x.group_by, x.order_by))
    if isinstance(x, Node):
        if isinstance(x.value, (Node, tuple, list, Select)) \
                and _refs_table(x.value, name):
            return True
        return _refs_table(x.args, name)
    if isinstance(x, (tuple, list)):
        return any(_refs_table(i, name) for i in x)
    return False


def parse_query(sql: str) -> Query:
    p = Parser(tokenize(sql))
    ctes: dict = {}
    rec_ctes: dict = {}
    if p.accept("kw", "WITH"):
        # non-recursive CTEs; each may reference earlier ones (substituted
        # inline — a CTE used twice executes twice, no materialized reuse).
        # WITH RECURSIVE: a CTE body of the form `base UNION [ALL] step`
        # where step references the CTE itself becomes a driver-controlled
        # fixpoint loop (linear recursion, SQL:1999 semantics: the step
        # sees only the PREVIOUS iteration's new rows) whose step executes
        # as a full distributed pipeline each round.
        if p.peek()[0] == "id" and p.peek()[1].lower() == "recursive":
            p.next()
        while True:
            nm = p.expect("id")[1].lower()
            p.expect("kw", "AS")
            p.expect("op", "(")
            sub = _parse_subselect(p)
            if p.peek() == ("kw", "UNION"):
                p.next()
                union_all = bool(p.accept("kw", "ALL"))
                step = _parse_core(p)
                p.expect("op", ")")
                _subst_ctes(sub, ctes)
                _subst_ctes(step, ctes)
                if not _refs_table(step, nm):
                    raise ValueError(
                        f"CTE {nm!r} has a UNION body but no "
                        "self-reference (only WITH RECURSIVE bodies may "
                        "contain set ops)")
                rec_ctes[nm] = (sub, step, union_all)
            else:
                p.expect("op", ")")
                _subst_ctes(sub, ctes)
                ctes[nm] = sub
            if not p.accept("op", ","):
                break
    cores = [_parse_core(p)]
    set_ops = []
    while p.peek()[0] == "kw" and p.peek()[1] in ("UNION", "INTERSECT",
                                                  "EXCEPT"):
        kw = p.next()[1]
        if kw == "UNION":
            op = "union_all" if p.accept("kw", "ALL") else "union"
        elif p.accept("kw", "ALL"):
            op = kw.lower() + "_all"  # bag semantics (multiplicities)
        else:
            op = kw.lower()
        set_ops.append(op)
        cores.append(_parse_core(p))
    order_by = []
    if p.accept("kw", "ORDER"):
        p.expect("kw", "BY")
        if (p.peek()[0] in ("kw", "id") and p.peek()[1].lower() == "all"
                and p.toks[p.i + 1][0] in ("end", "kw")
                and p.toks[p.i + 1] != ("kw", "BETWEEN")):
            # ORDER BY ALL (DuckDB): every select item left-to-right;
            # an optional DESC applies to all of them
            p.next()
            desc = bool(p.accept("kw", "DESC"))
            p.accept("kw", "ASC")
            for idx, (it, alias) in enumerate(cores[0].items):
                if isinstance(it, Node) and it.kind == "star":
                    raise ValueError("ORDER BY ALL requires explicit "
                                     "select items (no *)")
                order_by.append((_item_name(it, alias, idx), desc))
        else:
            while True:
                e = p.expr()
                col = e.value if e.kind == "col" else e
                desc = False
                if p.accept("kw", "DESC"):
                    desc = True
                else:
                    p.accept("kw", "ASC")
                order_by.append((col, desc))
                if not p.accept("op", ","):
                    break
    limit = None
    offset = None
    if p.accept("kw", "LIMIT"):
        limit = int(p.expect("num")[1])
        if p.accept("kw", "OFFSET"):
            offset = int(p.expect("num")[1])
    p.expect("end")
    if ctes:
        for core in cores:
            _subst_ctes(core, ctes)
        _subst_ctes(order_by, ctes)
    # ORDER BY ordinals (ORDER BY 1 DESC): positional references into the
    # first core's select list, resolved to the OUTPUT column name
    for oi, (c, d) in enumerate(order_by):
        if isinstance(c, Node) and c.kind == "lit" and isinstance(c.value, int):
            items = cores[0].items
            if not 1 <= c.value <= len(items):
                raise ValueError(f"ORDER BY ordinal {c.value} out of range")
            it, alias = items[c.value - 1]
            order_by[oi] = (_item_name(it, alias, c.value - 1), d)
    return Query(cores, order_by, limit, offset, set_ops=set_ops,
                 rec_ctes=rec_ctes or None)


def parse_select(sql: str) -> Select:
    """Single-core parse (back-compat): ORDER BY/LIMIT/OFFSET are folded
    into the core."""
    q = parse_query(sql)
    if len(q.cores) != 1:
        raise ValueError("parse_select: UNION query, use parse_query")
    core = q.cores[0]
    core.order_by = q.order_by
    core.limit = q.limit
    core.offset = q.offset
    return core


# ---------------------------------------------------------------------------
# scope resolution: alias-qualified columns, duplicated tables (self-joins),
# comma-separated FROM lists. Reference: ogr/swq_select.cpp resolves
# table-qualified field names against the select's table_defs; here each
# DUPLICATED base table with an alias is rewritten into a derived Select
# that renames its columns to "<alias>.<col>", so the rest of the planner
# (joins, decorrelation, aggregation) needs no scope concept at all.
# ---------------------------------------------------------------------------


def _iter_sub_selects(x):
    """Yield every Select nested in an expression tree (subquery nodes),
    not recursing into the yielded Selects themselves."""
    if isinstance(x, Select):
        yield x
        return
    if isinstance(x, Node):
        if isinstance(x.value, (Node, tuple, list, Select)):
            yield from _iter_sub_selects(x.value)
        for a in x.args:
            if isinstance(a, (Node, tuple, list, Select)):
                yield from _iter_sub_selects(a)
        return
    if isinstance(x, (tuple, list)):
        for i in x:
            yield from _iter_sub_selects(i)


def _core_expr_roots(core: Select):
    return (core.items, core.where, core.having, core.qualify,
            core.group_by, core.order_by)


def _count_base_tables(core: Select, counts: dict) -> None:
    refs = list(core.from_refs or [(core.table, core.table_alias)])
    refs += [(j.table, j.alias) for j in (core.joins or [])]
    for t, _a in refs:
        if isinstance(t, str):
            counts[t.lower()] = counts.get(t.lower(), 0) + 1
        elif isinstance(t, Select):
            _count_base_tables(t, counts)
    for sub in _iter_sub_selects(_core_expr_roots(core)):
        _count_base_tables(sub, counts)


def _collect_dotted(x, usage: dict) -> None:
    """Record alias -> {col} for every dotted column reference, descending
    into nested subquery scopes (an inner scope may reference an outer
    alias — correlation)."""
    if isinstance(x, Select):
        for s in (_core_expr_roots(x)):
            _collect_dotted(s, usage)
        for j in (x.joins or []):
            for k in (j.left_key, j.right_key):
                if isinstance(k, str) and "." in k:
                    a, c = k.split(".", 1)
                    usage.setdefault(a.lower(), set()).add(c)
            if isinstance(j.table, Select):
                _collect_dotted(j.table, usage)
        if isinstance(x.table, Select):
            _collect_dotted(x.table, usage)
        return
    if isinstance(x, Node):
        if x.kind == "col" and isinstance(x.value, str) and "." in x.value:
            a, c = x.value.split(".", 1)
            usage.setdefault(a.lower(), set()).add(c)
            return
        if x.kind == "agg":
            _k, c = x.value
            for e in (c if isinstance(c, tuple) else (c,)):
                if isinstance(e, str) and "." in e:
                    a, cc = e.split(".", 1)
                    usage.setdefault(a.lower(), set()).add(cc)
                elif isinstance(e, Node):
                    _collect_dotted(e, usage)
            _collect_dotted(x.args, usage)
            return
        if isinstance(x.value, (Node, tuple, list, Select)):
            _collect_dotted(x.value, usage)
        _collect_dotted(x.args, usage)
        return
    if isinstance(x, (tuple, list)):
        for i in x:
            _collect_dotted(i, usage)


def _ref_rows(t, sf_dir: str) -> int:
    """Approximate row count of a FROM/JOIN ref for join-order anchoring
    (parquet metadata only — nothing executes)."""
    if isinstance(t, Select):
        base = getattr(t, "_rename_of", None)
        return _ref_rows(base, sf_dir) if base is not None else -1
    src = _registry_get(t)
    if src is not None:
        if isinstance(src, pa.Table):
            return src.num_rows
        if isinstance(src, str):
            import pyarrow.parquet as pq

            return pq.read_metadata(src).num_rows
        return -1
    try:
        import pyarrow.parquet as pq

        from gdal_ray.util import sf_path

        return pq.read_metadata(sf_path(sf_dir, t)).num_rows
    except Exception:
        return -1


def _resolve_scopes(q: Query, sf_dir: str) -> Query:
    """Resolve alias-qualified column references and comma-FROM lists in
    every core (and its subqueries). After this pass no dotted reference
    remains except those naming columns of a renamed (duplicated-table)
    ref, which ARE the physical column names of its rename wrapper."""
    counts: dict = {}
    for core in q.cores:
        _count_base_tables(core, counts)
    dup = {t for t, n in counts.items() if n > 1}
    first_renamed: set = set()
    for ci, core in enumerate(q.cores):
        renamed = _resolve_core_scopes(core, sf_dir, set(), dup)
        if ci == 0:
            first_renamed = renamed
    # top-level ORDER BY: same rewrite as inside the first core's scope.
    # A dotted name of a renamed alias usually stays dotted (it IS the
    # wrapper's physical column) — but when the first core's projection
    # outputs that very item under its UNQUALIFIED name (the unaliased
    # `SELECT e1.a` -> output `a` rule), the post-projection sort must use
    # the output name.
    try:
        out_names = set(_out_names(q.cores[0]))
    except ValueError:
        out_names = set()
    fixed = []
    for c, d in q.order_by:
        if isinstance(c, str) and "." in c:
            a, cc = c.split(".", 1)
            if a.lower() in first_renamed:
                c = c if c in out_names or cc not in out_names else cc
            else:
                c = cc
        elif isinstance(c, Node):
            c = _rewrite_qualified(c, first_renamed, {}, {})
        fixed.append((c, d))
    q.order_by = fixed
    return q


def _rewrite_qualified(x, renamed: set, bare_map: dict, _memo: dict):
    """Rewrite col references: 'a.c' keeps its dotted name when `a` is a
    renamed alias (local or enclosing scope), else strips to 'c'; bare
    names in bare_map rewrite to their dotted owner (mixed-qualification
    fallback for renamed refs)."""
    def fix_name(v: str) -> str:
        if "." in v:
            a, c = v.split(".", 1)
            return v if a.lower() in renamed else c
        return bare_map.get(v, v)

    def rw(x):
        if isinstance(x, Select):
            return x  # nested scopes handled by _resolve_core_scopes
        if isinstance(x, Node):
            if x.kind == "col" and isinstance(x.value, str):
                return Node("col", fix_name(x.value))
            if x.kind == "agg":
                k, c = x.value

                def fixt(e):
                    return fix_name(e) if isinstance(e, str) else rw(e)

                c = (tuple(fixt(e) for e in c) if isinstance(c, tuple)
                     else fixt(c) if c is not None else None)
                return Node("agg", (k, c), rw(x.args))
            v = x.value
            if isinstance(v, (Node, tuple, list)):
                v = rw(v)
            return Node(x.kind, v, rw(x.args))
        if isinstance(x, tuple):
            return tuple(rw(i) for i in x)
        if isinstance(x, list):
            return [rw(i) for i in x]
        return x

    return rw(x)


def _resolve_core_scopes(core: Select, sf_dir: str, outer_renamed: set,
                         dup: set) -> set:
    """Resolve one core's scope in place; returns the set of renamed
    aliases visible inside it (local + enclosing), for Query-level use."""
    refs = list(core.from_refs or [(core.table, core.table_alias)])
    join_refs = [(j.table, j.alias) for j in (core.joins or [])]

    # which local refs need renaming: aliased + base table duplicated
    # anywhere in the query
    local_renames: dict = {}   # alias(lower) -> base table name | Select
    for t, a in refs + join_refs:
        if isinstance(t, str) and a and t.lower() in dup:
            local_renames[a.lower()] = t
    # duplicated DERIVED/CTE refs (FROM edges e1, edges e2 where `edges`
    # is a CTE — substitution already copied the Select per ref): aliased
    # Select refs in the COMMA-FROM list whose output columns collide
    # with another such ref rename exactly like duplicated base tables.
    # Explicit JOIN ... ON derived refs are excluded (their ON/ASOF specs
    # resolve positionally and predate this rule).
    sel_refs = [(t, a) for t, a in refs
                if isinstance(t, Select) and a]
    if len(sel_refs) > 1:
        from collections import Counter

        colcount: Counter = Counter()
        per_alias: dict = {}
        for t, a in sel_refs:
            cs = set(_table_cols(sf_dir, t))
            per_alias[a.lower()] = cs
            colcount.update(cs)
        for t, a in sel_refs:
            if any(colcount[c] > 1 for c in per_alias[a.lower()]):
                local_renames[a.lower()] = t

    usage: dict = {}
    _collect_dotted(_core_expr_roots(core), usage)
    for sub in _iter_sub_selects(_core_expr_roots(core)):
        _collect_dotted(sub, usage)

    # mixed-qualification fallback: a bare column that belongs to exactly
    # one renamed ref and to no unrenamed ref rewrites to its dotted name
    unren_cols: set = set(_SPECIAL_FIELDS)
    base_cols: dict = {}
    for t, a in refs + join_refs:
        if a and a.lower() in local_renames and isinstance(t, (str, Select)):
            base_cols[a.lower()] = list(_table_cols(sf_dir, t))
        else:
            unren_cols.update(_table_cols(sf_dir, t))
    bare_map: dict = {}
    if local_renames:
        bare_acc: set = set()
        _refed_cols(_core_expr_roots(core), bare_acc)
        for g in core.group_by:
            if isinstance(g, str):
                bare_acc.add(g)
        for v in bare_acc:
            if not isinstance(v, str) or "." in v or v in unren_cols:
                continue
            owners = [a for a, cols in base_cols.items() if v in cols]
            if len(owners) == 1:
                bare_map[v] = f"{owners[0]}.{v}"
                usage.setdefault(owners[0], set()).add(v)

    renamed = outer_renamed | set(local_renames)

    # rewrite this core's expressions (group_by/order_by strings included).
    # An unaliased column item that resolves to a renamed (dotted) column
    # keeps its UNQUALIFIED output name, SQL naming rules (SELECT n1.n_name
    # outputs column n_name); a name an earlier item already outputs gets
    # DuckDB's _1, _2, ... suffix (SELECT a.n_name, b.n_name outputs
    # n_name, n_name_1).
    new_items = []
    taken = set()
    for idx, (e, a) in enumerate(core.items):
        ne = _rewrite_qualified(e, renamed, bare_map, {})
        if (a is None and isinstance(ne, Node) and ne.kind == "col"
                and isinstance(ne.value, str) and "." in ne.value
                and ne.value.split(".", 1)[0].lower() in renamed):
            a = base = ne.value.split(".", 1)[1]
            while a in taken:
                a = f"{base}_{int(a[len(base) + 1:] or 0) + 1}"
        new_items.append((ne, a))
        if isinstance(ne, Node) and ne.kind != "star":
            taken.add(_item_name(ne, a, idx))
    core.items = new_items
    core.where = _rewrite_qualified(core.where, renamed, bare_map, {})
    core.having = _rewrite_qualified(core.having, renamed, bare_map, {})
    core.qualify = _rewrite_qualified(core.qualify, renamed, bare_map, {})

    def fix_str(v):
        if isinstance(v, str):
            if "." in v:
                a, c = v.split(".", 1)
                return v if a.lower() in renamed else c
            return bare_map.get(v, v)
        return _rewrite_qualified(v, renamed, bare_map, {})

    core.group_by = [fix_str(g) for g in core.group_by]
    # GROUP BY <select-item alias> (DuckDB/Postgres shorthand): a name
    # that is NOT a visible column but IS an item alias substitutes the
    # aliased expression (real columns take precedence, SQL rules)
    all_cols = set(unren_cols)
    for cols_ in base_cols.values():
        all_cols.update(cols_)
    alias_map = {a: e for e, a in core.items if a}
    new_gb = []
    for g in core.group_by:
        if isinstance(g, str) and g not in all_cols and g in alias_map:
            e = alias_map[g]
            g = e.value if (isinstance(e, Node) and e.kind == "col") else e
        new_gb.append(g)
    core.group_by = new_gb
    core.order_by = [(fix_str(c), d) for c, d in core.order_by]
    if core.group_sets is not None:
        core.group_sets = [tuple(fix_str(c) for c in s)
                           for s in core.group_sets]
    for j in (core.joins or []):
        j.left_key = fix_str(j.left_key)
        j.right_key = fix_str(j.right_key)
        if j.extra_pairs:
            j.extra_pairs = [(fix_str(a2), fix_str(b2))
                             for a2, b2 in j.extra_pairs]
        if j.asof_spec is not None:
            # keep the SIDE information the qualifier carries before it is
            # stripped: ('r', col) / ('l', col) marks, resolved against
            # this join's alias vs any other in-scope alias (needed when
            # both sides share a column name, e.g. l.ts >= r.ts)
            jal = (j.alias or (j.table if isinstance(j.table, str) else "")
                   ).lower()
            local_aliases = {al.lower() for _, al in
                             (core.from_refs or
                              [(core.table, core.table_alias)]) if al}
            local_aliases |= {t.lower() for t, _ in
                              (core.from_refs or
                               [(core.table, core.table_alias)])
                              if isinstance(t, str)}

            def aso_fix(v):
                if isinstance(v, str) and "." in v:
                    ql, c = v.split(".", 1)
                    ql = ql.lower()
                    name = v if ql in renamed else c
                    if ql == jal:
                        return ("r", name)
                    if ql in local_aliases or ql in renamed:
                        return ("l", name)
                return (None, fix_str(v))

            eqp, (op_, a_, b_) = j.asof_spec
            j.asof_spec = ([(aso_fix(x), aso_fix(y)) for x, y in eqp],
                           (op_, aso_fix(a_), aso_fix(b_)))

    # build rename wrappers (derived Selects projecting "<alias>.<col>")
    def wrapper(alias: str, base: str) -> Select:
        used = usage.get(alias, set())
        unknown = used - set(base_cols[alias])
        if unknown:
            raise ValueError(
                f"column(s) {sorted(unknown)} not in table {base!r} "
                f"(alias {alias!r})")
        cols = sorted(used) if used else list(base_cols[alias])
        w = Select([(Node("col", c), f"{alias}.{c}") for c in cols],
                   False, base, None, [], [], None, joins=[])
        w._rename_of = base
        return w

    refs = [(wrapper(a.lower(), t), a)
            if isinstance(t, (str, Select)) and a
            and a.lower() in local_renames
            else (t, a) for t, a in refs]
    for j in (core.joins or []):
        if (isinstance(j.table, (str, Select)) and j.alias
                and j.alias.lower() in local_renames
                and getattr(j.table, "_rename_of", None) is None):
            j.table = wrapper(j.alias.lower(), j.table)

    # recurse: derived tables and subquery Selects (enclosing renames
    # visible for correlation); a rename wrapper over a DERIVED base
    # still needs its inner Select resolved
    def _recurse_ref(t):
        if not isinstance(t, Select):
            return
        inner = getattr(t, "_rename_of", None)
        if inner is None:
            _resolve_core_scopes(t, sf_dir, renamed, dup)
        elif isinstance(inner, Select):
            _resolve_core_scopes(inner, sf_dir, renamed, dup)

    for t, _a in refs:
        _recurse_ref(t)
    for j in (core.joins or []):
        _recurse_ref(j.table)
    for sub in _iter_sub_selects(_core_expr_roots(core)):
        _resolve_core_scopes(sub, sf_dir, renamed, dup)

    # comma-FROM list -> left-deep equi joins lifted out of WHERE
    if len(refs) > 1:
        _plan_comma_joins(core, refs, sf_dir)
    else:
        core.table, core.table_alias = refs[0]
        core.from_refs = None
    return renamed


def _plan_comma_joins(core: Select, refs: list, sf_dir: str) -> None:
    """Convert a comma-separated FROM list into the planner's left-deep
    Join chain: the largest ref anchors (so a renamed fact table never
    lands on the broadcast side), then greedily attach refs connected by
    an equi conjunct from WHERE; remaining conjuncts (including extra
    equalities between already-joined tables) stay as post-join filters.
    Inner-join reordering is semantics-preserving."""
    cols = {i: set(_table_cols(sf_dir, t)) for i, (t, _a) in enumerate(refs)}
    rows = [_ref_rows(t, sf_dir) for t, _a in refs]
    anchor = max(range(len(refs)), key=lambda i: (rows[i], -i))
    conjs = _split_conjuncts(core.where)
    used: set = set()
    acc_cols = set(cols[anchor])
    remaining = [i for i in range(len(refs)) if i != anchor]
    new_joins: list = []
    while remaining:
        found = None
        for ri in remaining:
            for ci, c in enumerate(conjs):
                if ci in used:
                    continue
                if not (c.kind == "bin" and c.value == "="
                        and c.args[0].kind == "col"
                        and c.args[1].kind == "col"):
                    continue
                a, b = c.args[0].value, c.args[1].value
                if a in acc_cols and b in cols[ri] and b not in acc_cols:
                    found = (ri, a, b, ci)
                    break
                if b in acc_cols and a in cols[ri] and a not in acc_cols:
                    found = (ri, b, a, ci)
                    break
            if found:
                break
        if found is None:
            # genuine cartesian: the SMALLEST unconnected ref broadcasts
            # (cross joins are dimension x dimension in practice; the
            # executor rejects an oversized broadcast side)
            ri = min(remaining, key=lambda i: (rows[i], i))
            t, a = refs[ri]
            new_joins.append(Join(t, a, False, "", "", cross=True))
            acc_cols |= cols[ri]
            remaining.remove(ri)
            continue
        ri, lk, rk, ci = found
        used.add(ci)
        # fold every other equality connecting the same ref into the same
        # join (composite key): joining on one key and filtering the rest
        # would blow up the intermediate (ps_suppkey = l_suppkey AND
        # ps_partkey = l_partkey must join on BOTH)
        extra = []
        for cj, c in enumerate(conjs):
            if cj in used:
                continue
            if not (c.kind == "bin" and c.value == "="
                    and c.args[0].kind == "col"
                    and c.args[1].kind == "col"):
                continue
            a2, b2 = c.args[0].value, c.args[1].value
            if a2 in acc_cols and b2 in cols[ri] and b2 not in acc_cols:
                extra.append((a2, b2))
                used.add(cj)
            elif b2 in acc_cols and a2 in cols[ri] and a2 not in acc_cols:
                extra.append((b2, a2))
                used.add(cj)
        t, a = refs[ri]
        new_joins.append(Join(t, a, False, lk, rk,
                              extra_pairs=extra or None))
        acc_cols |= cols[ri]
        remaining.remove(ri)
    core.table, core.table_alias = refs[anchor]
    core.joins = new_joins + (core.joins or [])
    core.where = _and_fold([c for i, c in enumerate(conjs) if i not in used])
    core.from_refs = None


# ---------------------------------------------------------------------------
# evaluation (pyarrow.compute, per batch)
# ---------------------------------------------------------------------------


def _sql_in(x, vals: pa.Array):
    """SQL `x IN (vals)`: TRUE on a match; NULL when x is NULL, or when
    nothing matches and vals holds a NULL; FALSE otherwise (also for an
    empty vals). Float values compare as SQL does (util.canonical_floats)."""
    hit = pc.is_in(canonical_floats(x), value_set=canonical_floats(vals),
                   skip_nulls=True)
    if len(vals) == 0:
        return hit
    unknown = pc.invert(hit) if vals.null_count else pc.is_null(x)
    return pc.if_else(unknown, pa.scalar(None, pa.bool_()), hit)


_NUM_RE = r"(?i)^(-?(\d+\.?\d*|\.\d+)(e[+-]?\d+)?|-?inf(inity)?|nan)$"
_ISO_TS_RE = r"^\d{4}-\d{2}-\d{2}([ T]\d{2}:\d{2}(:\d{2}(\.\d+)?)?)?$"


def _try_int(x):
    """One integer string as an int64 value, None outside int64."""
    v = None if x is None else int(x)
    return v if v is not None and -2 ** 63 <= v < 2 ** 63 else None


def _try_ts(x):
    """One ISO string as a timestamp[us] value, None if it names no time."""
    try:
        return None if x is None else pc.cast(pa.scalar(x), pa.timestamp("us")).as_py()
    except pa.ArrowInvalid:
        return None


def eval_expr(node: Node, t: pa.Table):
    k = node.kind
    if k == "col":
        if node.value == "OGR_GEOM_AREA" and "OGR_GEOM_AREA" not in t.column_names:
            # special field (ogr/ogrfeaturequery.cpp:37-38): shoelace area of
            # the WKB geometry column. FID is deliberately unsupported: a
            # distributed engine has no stable implicit row number — use an
            # explicit key column.
            return pa.array(_geom_areas(t["geometry"]))
        if node.value == "OGR_GEOM_WKT" and "OGR_GEOM_WKT" not in t.column_names:
            from gdal_ray.geo import wkb as _W

            return pa.array([
                None if b is None else _W.geom_to_wkt(_W.parse_wkb(b))
                for b in t["geometry"].to_pylist()
            ], type=pa.string())
        if node.value == "FID" and "FID" not in t.column_names:
            # FID special field: resolves to an explicit fid column when
            # one exists; a distributed engine has no stable implicit row
            # number, so absent that the error is explicit (documented)
            for cand in ("fid", "Fid"):
                if cand in t.column_names:
                    return t[cand]
            raise ValueError(
                "FID: no fid column present — a distributed engine has no "
                "stable implicit row id; materialize an explicit key column")
        if node.value == "OGR_STYLE" and "OGR_STYLE" not in t.column_names:
            # style special field (ogr/ogr_swq.h:66 SWQ_STYLE): features
            # carry style in an OGR_STYLE column when present; absent
            # means no style -> NULL (the reference's unset-style value)
            return pa.nulls(len(t), pa.string())
        if node.value == "OGR_GEOMETRY" and "OGR_GEOMETRY" not in t.column_names:
            # geometry type name, as used in WHERE OGR_GEOMETRY = 'POINT'
            # (ogr_sql_dialect.rst special fields)
            from gdal_ray.geo import wkb as _W

            return pa.array([
                None if b is None else _W.parse_wkb(b)[0].upper()
                for b in t["geometry"].to_pylist()
            ], type=pa.string())
        return t[node.value]
    if k == "lit":
        return pa.scalar(node.value)
    if k == "interval":
        raise ValueError("bare INTERVAL literal — use date ± INTERVAL")
    if k == "bin":
        op = node.value
        if op in ("+", "-") and (node.args[0].kind == "interval"
                                 or node.args[1].kind == "interval"):
            if node.args[0].kind == "interval":
                if op == "-":
                    raise ValueError("INTERVAL - date is invalid")
                ivl, other = node.args[0], node.args[1]
            else:
                ivl, other = node.args[1], node.args[0]
            n, unit = ivl.value
            return _shift_temporal(eval_expr(other, t),
                                   n if op == "+" else -n, unit)
        a = eval_expr(node.args[0], t)
        b = eval_expr(node.args[1], t)
        if op == "||":
            return _concat(a, b)
        if op in ("+", "-", "*", "/", "%"):
            if op == "/":  # SQL: integer/integer stays exact in DuckDB as double
                a = pc.cast(a, pa.float64()) if not pa.types.is_floating(_type_of(a)) else a
                b = pc.cast(b, pa.float64()) if not pa.types.is_floating(_type_of(b)) else b
            fn = {"+": pc.add, "-": pc.subtract, "*": pc.multiply,
                  "/": pc.divide, "%": _sql_mod}[op]
            return fn(a, b)
        if op in ("bitor", "bitand", "<<", ">>"):
            fn = {"bitor": pc.bit_wise_or, "bitand": pc.bit_wise_and,
                  "<<": pc.shift_left, ">>": pc.shift_right}[op]
            return fn(a, b)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            # SQL implicit coercion: comparing a temporal column to a string
            # literal parses the literal (DuckDB does the same)
            a, b = _coerce_temporal(a, b)
        fn = {"=": pc.equal, "<>": pc.not_equal, "<": pc.less,
              "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal,
              "and": pc.and_kleene, "or": pc.or_kleene}[op]
        return fn(a, b)
    if k == "un":
        return pc.invert(eval_expr(node.args[0], t))
    if k == "in":
        vals = [a.value for a in node.args[1]]
        return _sql_in(eval_expr(node.args[0], t), pa.array(vals))
    if k == "in_vals":
        # IN (SELECT ...) after driver-side resolution: value is the
        # subquery's materialized column (a pa.Array — ships with the task)
        return _sql_in(eval_expr(node.args[0], t), node.value)
    if k in ("in_sub", "scalar_sub"):
        raise ValueError(
            "unresolved subquery node — run the statement through "
            "ops.sql.execute (subqueries are resolved against sf_dir)")
    if k == "between":
        x = eval_expr(node.args[0], t)
        xlo, lo = _coerce_temporal(x, eval_expr(node.args[1], t))
        xhi, hi = _coerce_temporal(x, eval_expr(node.args[2], t))
        return pc.and_(pc.greater_equal(xlo, lo), pc.less_equal(xhi, hi))
    if k == "like":
        if node.value == "s":
            # SIMILAR TO: full-match regex
            return pc.match_substring_regex(
                eval_expr(node.args[0], t),
                pattern=f"^(?:{node.args[1].value})$")
        if isinstance(node.value, tuple) and node.value[0] == "esc":
            # LIKE ... ESCAPE 'c': translate to an anchored regex with the
            # escape character honored (match_like has no escape support)
            esc = node.value[1]
            pat = str(node.args[1].value)
            out = []
            i = 0
            while i < len(pat):
                ch = pat[i]
                if ch == esc and i + 1 < len(pat):
                    out.append(re.escape(pat[i + 1]))
                    i += 2
                    continue
                out.append(".*" if ch == "%" else "." if ch == "_"
                           else re.escape(ch))
                i += 1
            return pc.match_substring_regex(
                eval_expr(node.args[0], t),
                pattern="^" + "".join(out) + "$")
        return pc.match_like(eval_expr(node.args[0], t), node.args[1].value,
                             ignore_case=(node.value == "i"))
    if k == "udf":
        return node.value(*(eval_expr(a, t) for a in node.args))
    if k == "call":
        fn = node.value
        if fn == "concat":
            # DuckDB CONCAT(...) skips NULL operands (unlike ||, which
            # propagates NULL) — fill each operand with '' before joining
            out = _concat_fill(eval_expr(node.args[0], t))
            for arg in node.args[1:]:
                out = _concat(out, _concat_fill(eval_expr(arg, t)))
            return out
        if fn == "substr":
            s = eval_expr(node.args[0], t)
            if node.args[1].kind == "lit" and (
                node.args[2] is None or node.args[2].kind == "lit"
            ):
                start = node.args[1].value  # 1-based literal fast path
                if node.args[2] is None:
                    return pc.utf8_slice_codeunits(s, start - 1)
                return pc.utf8_slice_codeunits(
                    s, start - 1, start - 1 + node.args[2].value)
            return _substr_dynamic(s, eval_expr(node.args[1], t),
                                   None if node.args[2] is None
                                   else eval_expr(node.args[2], t))
        if fn == "upper":
            return pc.utf8_upper(eval_expr(node.args[0], t))
        if fn == "lower":
            return pc.utf8_lower(eval_expr(node.args[0], t))
        if fn == "length":
            v = eval_expr(node.args[0], t)
            ty = _type_of(v)
            if (pa.types.is_list(ty) or pa.types.is_large_list(ty)
                    or pa.types.is_fixed_size_list(ty)):
                # DuckDB len()/length() over a LIST = element count
                return pc.cast(pc.list_value_length(v), pa.int64())
            return pc.cast(pc.utf8_length(v), pa.int64())
        if fn == "abs":
            return pc.abs(eval_expr(node.args[0], t))
        if fn == "round":
            v = eval_expr(node.args[0], t)
            if node.args[1] is not None and node.args[1].kind != "lit":
                raise ValueError(
                    "ROUND(x, n): n must be a literal integer "
                    "(column/expression digit counts are unsupported)")
            nd = 0 if node.args[1] is None else int(node.args[1].value)
            # DuckDB round() is half-away-from-zero
            return pc.round(pc.cast(v, pa.float64()), ndigits=nd,
                            round_mode="half_towards_infinity")
        if fn == "floor":
            return pc.floor(pc.cast(eval_expr(node.args[0], t), pa.float64()))
        if fn == "ceil":
            return pc.ceil(pc.cast(eval_expr(node.args[0], t), pa.float64()))
        if fn == "trim":
            return pc.utf8_trim_whitespace(eval_expr(node.args[0], t))
        if fn == "ltrim":
            return pc.utf8_ltrim_whitespace(eval_expr(node.args[0], t))
        if fn == "rtrim":
            return pc.utf8_rtrim_whitespace(eval_expr(node.args[0], t))
        if fn == "replace":
            a = eval_expr(node.args[0], t)
            if node.args[1].kind != "lit" or node.args[2].kind != "lit":
                raise ValueError(
                    "REPLACE(s, pat, rep): pat and rep must be string "
                    "literals (Arrow replace_substring takes scalars)")
            pat = node.args[1].value
            rep = node.args[2].value
            return pc.replace_substring(a, pattern=pat, replacement=rep)
        if fn == "coalesce":
            vals = [eval_expr(a, t) for a in node.args]
            vals = _unify_numeric(vals)
            return pc.coalesce(*vals)
        if fn == "nullif":
            a = eval_expr(node.args[0], t)
            b = eval_expr(node.args[1], t)
            eq = pc.equal(a, b)
            null = pa.scalar(None, a.type if not isinstance(a, pa.Scalar)
                             else a.type)
            return pc.if_else(eq, null, a)
        if fn == "strpos":
            # DuckDB: 1-based first occurrence, 0 when absent
            pos = pc.find_substring(eval_expr(node.args[0], t),
                                    node.args[1].value)
            return pc.cast(pc.add(pos, 1), pa.int64())
        if fn in ("contains", "starts_with", "ends_with"):
            k2 = {"contains": pc.match_substring,
                  "starts_with": pc.starts_with, "ends_with": pc.ends_with}
            return k2[fn](eval_expr(node.args[0], t), node.args[1].value)
        if fn in ("left", "right"):
            s = eval_expr(node.args[0], t)
            n = int(node.args[1].value)
            if fn == "left":
                return pc.utf8_slice_codeunits(s, 0, max(n, 0))
            if n <= 0:
                return pc.utf8_slice_codeunits(s, 0, 0)
            return pc.if_else(
                pc.greater_equal(pc.utf8_length(s), n),
                pc.utf8_slice_codeunits(s, -n), s)
        if fn in ("lpad", "rpad"):
            # DuckDB truncates to n when the string is longer (1-char fill)
            s = eval_expr(node.args[0], t)
            n = int(node.args[1].value)
            fill = node.args[2].value if len(node.args) > 2 else " "
            if len(fill) != 1:
                raise ValueError(f"{fn.upper()}: 1-character fill only")
            padded = (pc.utf8_lpad if fn == "lpad" else pc.utf8_rpad)(
                s, n, padding=fill)
            return pc.if_else(pc.greater(pc.utf8_length(s), n),
                              pc.utf8_slice_codeunits(s, 0, n), padded)
        if fn == "split_part":
            # 1-based part; '' when out of range (list_slice + join)
            s = eval_expr(node.args[0], t)
            delim = node.args[1].value
            i = int(node.args[2].value)
            parts = pc.split_pattern(s, delim)
            piece = pc.list_slice(parts, i - 1, i)
            return pc.binary_join(piece, "")
        if fn in ("least", "greatest"):
            vals = _unify_numeric([eval_expr(a, t) for a in node.args])
            k2 = pc.min_element_wise if fn == "least" else pc.max_element_wise
            return k2(*vals)  # skip_nulls=True matches DuckDB
        if fn == "repeat":
            return pc.binary_repeat(eval_expr(node.args[0], t),
                                    int(node.args[1].value))
        if fn == "reverse":
            return pc.utf8_reverse(eval_expr(node.args[0], t))
        if fn == "xor":
            return pc.bit_wise_xor(eval_expr(node.args[0], t),
                                   eval_expr(node.args[1], t))
        if fn == "mod":
            return _sql_mod(eval_expr(node.args[0], t),
                            eval_expr(node.args[1], t))
        if fn == "regexp_replace":
            # DuckDB replaces the FIRST match unless the 'g' option is given
            s = eval_expr(node.args[0], t)
            pat = node.args[1].value
            rep = node.args[2].value
            glob = (len(node.args) > 3 and "g" in str(node.args[3].value))
            return pc.replace_substring_regex(
                s, pattern=pat, replacement=rep,
                max_replacements=None if glob else 1)
        if fn == "json_extract_string":
            # flat-object key extraction ('$.key' or 'key' paths) over a
            # JSON string column — one vectorized Arrow regex, no per-row
            # json.loads. Nested paths / escaped strings are out of scope
            # (the testdata props column is flat {"k": v} JSON).
            s = eval_expr(node.args[0], t)
            path = str(node.args[1].value)
            key = path[2:] if path.startswith("$.") else path.lstrip("$.")
            if not key or any(ch in key for ch in ".[]"):
                raise ValueError(
                    "JSON_EXTRACT_STRING: flat '$.key' paths only")
            head = r'"' + re.escape(key) + r'"\s*:\s*'
            # two passes: Arrow extract_regex fills unmatched ALTERNATIVE
            # groups with '' (not null), so a single quoted|bare pattern
            # can't distinguish "no quoted match" from an empty string
            quoted = pc.struct_field(pc.extract_regex(
                s, pattern=head + r'"(?P<v>[^"\\]*)"'), "v")
            bare = pc.struct_field(pc.extract_regex(
                s, pattern=head + r'(?P<v>[^,}\s"]+)'), "v")
            return pc.coalesce(quoted, bare)
        if fn == "regexp_matches":
            return pc.match_substring_regex(eval_expr(node.args[0], t),
                                            node.args[1].value)
        if fn in ("sqrt", "ln", "exp", "log2", "log10"):
            v = pc.cast(eval_expr(node.args[0], t), pa.float64())
            return {"sqrt": pc.sqrt, "ln": pc.ln, "exp": pc.exp,
                    "log2": pc.log2, "log10": pc.log10}[fn](v)
        if fn == "power":
            a = pc.cast(eval_expr(node.args[0], t), pa.float64())
            b = pc.cast(eval_expr(node.args[1], t), pa.float64())
            return pc.power(a, b)
        if fn == "sign":
            # DuckDB SIGN returns an integer -1/0/1 regardless of input type
            return pc.cast(pc.sign(eval_expr(node.args[0], t)), pa.int64())
        if fn in _EXTRACT_PARTS:
            return _extract_part(fn, eval_expr(node.args[0], t))
        if fn in ("extract", "date_part"):
            if node.args[0].kind != "lit":
                raise ValueError(f"{fn}: part must be a literal")
            part = str(node.args[0].value).lower().strip("'")
            part = {"dayofweek": "dow", "dayofyear": "doy"}.get(part, part)
            if part not in _EXTRACT_PARTS:
                raise ValueError(f"EXTRACT: unsupported part {part!r}")
            return _extract_part(part, eval_expr(node.args[1], t))
        if fn == "date_trunc":
            if node.args[0].kind != "lit":
                raise ValueError("DATE_TRUNC: part must be a string literal")
            part = str(node.args[0].value).lower()
            if part not in ("year", "quarter", "month", "week", "day",
                            "hour", "minute", "second"):
                raise ValueError(f"DATE_TRUNC: unsupported part {part!r}")
            v = eval_expr(node.args[1], t)
            # ISO semantics match DuckDB: weeks start Monday
            return pc.floor_temporal(v, unit=part)
        if fn == "date_diff":
            # DuckDB DATE_DIFF(part, a, b): COMPLETED part-boundary
            # crossings, i.e. part-index difference (not elapsed time)
            if node.args[0].kind != "lit":
                raise ValueError("DATE_DIFF: part must be a literal")
            part = str(node.args[0].value).lower().rstrip("s")
            a = eval_expr(node.args[1], t)
            b = eval_expr(node.args[2], t)
            if part == "year":
                return pc.subtract(pc.year(b), pc.year(a))
            if part == "quarter":
                ia = pc.add(pc.multiply(pc.year(a), 4), pc.quarter(a))
                ib = pc.add(pc.multiply(pc.year(b), 4), pc.quarter(b))
                return pc.cast(pc.subtract(ib, ia), pa.int64())
            if part == "month":
                ia = pc.add(pc.multiply(pc.year(a), 12), pc.month(a))
                ib = pc.add(pc.multiply(pc.year(b), 12), pc.month(b))
                return pc.cast(pc.subtract(ib, ia), pa.int64())
            if part in ("day", "week"):
                unit = "day" if part == "day" else "week"
                fa = pc.floor_temporal(pc.cast(a, pa.timestamp("us")),
                                       unit=unit)
                fb = pc.floor_temporal(pc.cast(b, pa.timestamp("us")),
                                       unit=unit)
                us = 86400_000_000 * (1 if part == "day" else 7)
                return pc.divide(pc.cast(pc.subtract(
                    pc.cast(fb, pa.int64()), pc.cast(fa, pa.int64())),
                    pa.int64()), us)
            if part in ("hour", "minute", "second"):
                sec = {"hour": 3600, "minute": 60, "second": 1}[part]
                fa = pc.floor_temporal(pc.cast(a, pa.timestamp("us")),
                                       unit=part)
                fb = pc.floor_temporal(pc.cast(b, pa.timestamp("us")),
                                       unit=part)
                return pc.divide(pc.cast(pc.subtract(
                    pc.cast(fb, pa.int64()), pc.cast(fa, pa.int64())),
                    pa.int64()), sec * 1_000_000)
            raise ValueError(f"DATE_DIFF: unsupported part {part!r}")
        if fn == "make_date":
            valid = np.ones(len(t), bool)
            ymd = []
            for a in node.args[:3]:
                v = pc.cast(eval_expr(a, t), pa.int64())
                if isinstance(v, pa.Scalar):
                    valid &= v.is_valid
                    ymd.append(np.full(len(t), v.as_py() if v.is_valid else 1))
                else:
                    valid &= pc.is_valid(v).to_numpy(zero_copy_only=False)
                    ymd.append(pc.fill_null(v, 1).to_numpy(zero_copy_only=False))
            y, m, d = ymd
            months = (y - 1970) * 12 + (m - 1)
            days = months.astype("datetime64[M]").astype("datetime64[D]") + (d - 1)
            bad = valid & ((m < 1) | (m > 12) | (days.astype("datetime64[M]")
                                                  .astype(np.int64) != months))
            if bad.any():
                raise ValueError("MAKE_DATE: no such date")
            return pa.array(days, pa.date32(), mask=~valid)
        if fn == "last_day":
            v = pc.cast(eval_expr(node.args[0], t), pa.timestamp("us"))
            nxt = pc.ceil_temporal(v, unit="month",
                                   ceil_is_strictly_greater=True)
            d32 = pc.cast(pc.cast(nxt, pa.date32()), pa.int32())
            return pc.cast(pc.cast(pc.subtract(
                d32, pa.scalar(1, pa.int32())), pa.int32()), pa.date32())
        if fn == "concat_ws":
            if node.args[0].kind != "lit":
                raise ValueError("CONCAT_WS: separator must be a literal")
            sep = str(node.args[0].value)
            vals = []
            for a in node.args[1:]:
                v = eval_expr(a, t)
                if not pa.types.is_string(_type_of(v)):
                    v = pc.cast(v, pa.string())
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(t), pa.string())
                vals.append(v)  # nulls KEPT: skip drops them per row
            # DuckDB skips NULL arguments (unlike || which nulls out)
            return pc.binary_join_element_wise(
                *vals, sep, null_handling="skip")
        if fn == "strftime":
            # DuckDB STRFTIME(ts, fmt) (either arg order accepted there;
            # we take timestamp-first). C format spec == Arrow's.
            v = eval_expr(node.args[0], t)
            if node.args[1].kind != "lit":
                raise ValueError("STRFTIME: format must be a literal")
            return pc.strftime(v, format=str(node.args[1].value))
        if fn == "string_split":
            if node.args[1].kind != "lit":
                raise ValueError("STRING_SPLIT: separator must be a literal")
            return pc.split_pattern(eval_expr(node.args[0], t),
                                    pattern=str(node.args[1].value))
        if fn == "string_split_regex":
            if node.args[1].kind != "lit":
                raise ValueError(
                    "STRING_SPLIT_REGEX: pattern must be a literal")
            return pc.split_pattern_regex(eval_expr(node.args[0], t),
                                          pattern=str(node.args[1].value))
        if fn == "list_extract":
            return _list_extract(eval_expr(node.args[0], t),
                                 eval_expr(node.args[1], t))
        if fn == "list_contains":
            return _list_contains(eval_expr(node.args[0], t),
                                  eval_expr(node.args[1], t))
        if fn == "array_to_string":
            # ARRAY_TO_STRING(list, sep): join list elements — null
            # ELEMENTS are skipped and an empty (or all-null) list yields
            # NULL (measured DuckDB behavior); one pc.binary_join per batch
            col = eval_expr(node.args[0], t)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if node.args[1].kind != "lit":
                raise ValueError("ARRAY_TO_STRING: sep must be a literal")
            ty = _type_of(col)
            if not pa.types.is_string(ty.value_type):
                col = pc.cast(col, pa.list_(pa.string()))
            flat = pc.list_flatten(col)  # drops nothing; nulls stay
            lens = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            valid = pc.is_valid(flat).to_numpy(zero_copy_only=False)
            starts = np.zeros(len(lens), np.int64)
            if len(lens) > 1:
                np.cumsum(lens[:-1], out=starts[1:])
            ccnt = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
            newlens = ccnt[starts + lens] - ccnt[starts]
            offs = np.zeros(len(lens) + 1, np.int64)
            np.cumsum(newlens, out=offs[1:])
            col = pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()),
                flat.filter(pc.is_valid(flat)) if len(flat)
                else flat)
            joined = pc.binary_join(col, str(node.args[1].value))
            return pc.if_else(pa.array(newlens > 0), joined,
                              pa.scalar(None, pa.string()))
        if fn in ("list_sum", "list_avg", "list_min", "list_max"):
            # per-row list aggregation: one flatten + ufunc.reduceat per
            # batch (null elements skipped; empty/all-null -> NULL, DuckDB
            # semantics). Always float64 out — state the same cast in
            # oracle SQL (DuckDB widens int lists to HUGEINT otherwise).
            col = eval_expr(node.args[0], t)
            lens, starts, flat = _list_segments(col)
            v = pc.cast(flat, pa.float64()).to_numpy(zero_copy_only=False)
            valid = ~np.isnan(v)
            nrow = len(lens)
            nz = lens > 0
            cnt = np.zeros(nrow, np.int64)
            if nz.any():
                cnt[nz] = np.add.reduceat(valid.astype(np.int64),
                                          starts[nz])
            out = np.full(nrow, np.nan)
            if fn in ("list_sum", "list_avg"):
                if nz.any():
                    out[nz] = np.add.reduceat(np.where(valid, v, 0.0),
                                              starts[nz])
                if fn == "list_avg":
                    out = out / np.maximum(cnt, 1)
            else:
                fill = np.inf if fn == "list_min" else -np.inf
                red = np.minimum if fn == "list_min" else np.maximum
                if nz.any():
                    out[nz] = red.reduceat(np.where(valid, v, fill),
                                           starts[nz])
            out[cnt == 0] = np.nan
            return pa.array(out, pa.float64(), from_pandas=True)
        if fn in ("list_cosine_similarity", "list_dot_product",
                  "list_distance"):
            return _list_pairwise(fn, eval_expr(node.args[0], t),
                                  eval_expr(node.args[1], t))
        if fn == "regexp_extract":
            s = eval_expr(node.args[0], t)
            if node.args[1].kind != "lit":
                raise ValueError("REGEXP_EXTRACT: pattern must be a literal")
            grp = 0
            if len(node.args) > 2 and node.args[2] is not None:
                grp = int(_const_value(node.args[2]))
            named, ngroups = _name_regex_groups(str(node.args[1].value))
            if grp > ngroups:
                raise ValueError(
                    f"REGEXP_EXTRACT: group {grp} > {ngroups} groups")
            ext = pc.extract_regex(s, pattern=f"(?P<g0>{named})")
            out = pc.struct_field(ext, f"g{grp}")
            # DuckDB returns '' on no-match (and for a non-participating
            # group) but NULL input stays NULL
            return pc.if_else(pc.is_valid(s), pc.fill_null(out, ""),
                              pa.scalar(None, pa.string()))
        raise ValueError(f"unknown function {fn}")
    if k == "case":
        # evaluate ELSE first, then fold WHENs in reverse with if_else
        whens = [(eval_expr(c, t), eval_expr(v, t)) for c, v in node.args]
        els = (eval_expr(node.value, t) if node.value is not None
               else pa.scalar(None))
        vals = _unify_numeric([v for _, v in whens] + [els])
        target = next((_type_of(v) for v in vals
                       if not pa.types.is_null(_type_of(v))), None)
        if target is not None:
            # untyped NULL branches (THEN NULL / missing ELSE) adopt the
            # result type so if_else type-checks
            vals = [pa.scalar(None, target)
                    if pa.types.is_null(_type_of(v)) else v for v in vals]
        out = vals[-1]
        for cond, val in zip(reversed([c for c, _ in whens]),
                             reversed(vals[:-1])):
            out = pc.if_else(cond, val, out)
        return out
    if k == "isnull":
        v = pc.is_null(eval_expr(node.args[0], t))
        return v if node.value else pc.invert(v)
    if k == "isdist":
        # IS [NOT] DISTINCT FROM: never NULL — NULLs compare equal to
        # each other and distinct from every value
        a = eval_expr(node.args[0], t)
        b = eval_expr(node.args[1], t)
        a, b = _unify_numeric([a, b])
        an, bn = pc.is_null(a), pc.is_null(b)
        if isinstance(an, pa.Scalar):
            an = pa.array([an.as_py()] * len(t), pa.bool_())
        if isinstance(bn, pa.Scalar):
            bn = pa.array([bn.as_py()] * len(t), pa.bool_())
        neq = pc.fill_null(pc.not_equal(a, b), False)
        if isinstance(neq, pa.Scalar):
            neq = pa.array([bool(neq.as_py())] * len(t), pa.bool_())
        dist = pc.or_(pc.xor(an, bn),
                      pc.and_(pc.and_(pc.invert(an), pc.invert(bn)), neq))
        return dist if node.value else pc.invert(dist)
    if k == "cast":
        base = {"INTEGER": pa.int32(), "BIGINT": pa.int64(),
                "FLOAT": pa.float64(), "DOUBLE": pa.float64(),
                "TEXT": pa.string(), "VARCHAR": pa.string(),
                "DATE": pa.date32(), "TIMESTAMP": pa.timestamp("us"),
                "BOOLEAN": pa.bool_()}
        if node.value.endswith("[]"):  # array type, e.g. DOUBLE[]
            v = eval_expr(node.args[0], t)
            return pc.cast(v, pa.list_(base[node.value[:-2]]))
        ty = base[node.value]
        v = eval_expr(node.args[0], t)
        if pa.types.is_integer(ty) and pa.types.is_floating(_type_of(v)):
            # DuckDB CAST(double AS INT) rounds half to EVEN (measured:
            # 900.5 -> 900), unlike its round() which is half-away
            v = pc.round(v, ndigits=0, round_mode="half_to_even")
        return pc.cast(v, ty)
    if k == "trycast":
        # TRY_CAST: per-row NULL on conversion failure (DuckDB). String ->
        # numeric/temporal casts only the rows whose text has that shape;
        # other casts that cannot fail per-row fall through to plain CAST
        # semantics.
        ty = {"INTEGER": pa.int32(), "BIGINT": pa.int64(),
              "FLOAT": pa.float64(), "DOUBLE": pa.float64(),
              "TEXT": pa.string(), "VARCHAR": pa.string(),
              "DATE": pa.date32(), "TIMESTAMP": pa.timestamp("us"),
              "BOOLEAN": pa.bool_()}[node.value]
        v = eval_expr(node.args[0], t)
        if isinstance(v, pa.Scalar):
            v = pa.array([v.as_py()] * len(t), _type_of(v))
        src = _type_of(v)
        if pa.types.is_string(src) and (pa.types.is_integer(ty)
                                        or pa.types.is_floating(ty)):
            sv = pc.replace_substring_regex(
                pc.utf8_trim_whitespace(v), r"^\+", "")
            null = pa.scalar(None, pa.string())
            arr = pc.cast(pc.if_else(pc.match_substring_regex(sv, _NUM_RE),
                                     sv, null), pa.float64())
            if pa.types.is_integer(ty):
                # DuckDB TRY_CAST('2.5' AS INTEGER) rounds half away from
                # zero; integer text casts exactly; a value outside the
                # target type is NULL
                isint = pc.match_substring_regex(sv, r"^-?\d+$")
                txt = pc.if_else(isint, sv, null)
                try:
                    ints = pc.cast(txt, pa.int64())
                except pa.ArrowInvalid:  # integer text outside int64
                    ints = pa.array([_try_int(x) for x in txt.to_pylist()],
                                    pa.int64())
                lim = 2.0 ** (ty.bit_width - 1)
                fl = pc.round(arr, ndigits=0,
                              round_mode="half_towards_infinity")
                fl = pc.if_else(pc.and_(pc.greater_equal(fl, -lim),
                                        pc.less(fl, lim)), fl, None)
                arr = pc.if_else(isint, ints, pc.cast(fl, pa.int64()))
                if ty.bit_width < 64:
                    arr = pc.if_else(pc.and_(pc.greater_equal(arr, int(-lim)),
                                             pc.less(arr, int(lim))), arr, None)
            return pc.cast(arr, ty, safe=False)
        if pa.types.is_string(src) and (pa.types.is_date(ty)
                                        or pa.types.is_timestamp(ty)):
            sv = pc.utf8_trim_whitespace(v)
            sv = pc.if_else(pc.match_substring_regex(sv, _ISO_TS_RE), sv,
                            pa.scalar(None, pa.string()))
            try:
                ts = pc.cast(sv, pa.timestamp("us"))
            except pa.ArrowInvalid:  # ISO-shaped but no such time
                ts = pa.array([_try_ts(x) for x in sv.to_pylist()],
                              pa.timestamp("us"))
            return pc.cast(ts, ty, safe=False)
        if pa.types.is_integer(ty) and pa.types.is_floating(src):
            v = pc.round(v, ndigits=0, round_mode="half_to_even")
        return pc.cast(v, ty)
    raise ValueError(f"cannot evaluate {k} here")


# EXTRACT parts -> Arrow kernels (all return int64 like DuckDB's BIGINT).
# dow matches DuckDB: Sunday=0..Saturday=6; week is the ISO week number.
_EXTRACT_PARTS = {"year", "month", "day", "hour", "minute", "second",
                  "dow", "doy", "week", "quarter", "epoch"}


def _extract_part(part, v):
    if part == "dow":
        out = pc.day_of_week(v, week_start=7, count_from_zero=True)
    elif part == "doy":
        out = pc.day_of_year(v)
    elif part == "week":
        out = pc.iso_week(v)
    elif part == "epoch":
        us = pc.cast(pc.cast(v, pa.timestamp("us")), pa.int64())
        return pc.cast(pc.divide(us, 1_000_000), pa.float64())
    else:
        out = getattr(pc, part)(v)
    return pc.cast(out, pa.int64())


def _type_of(v):
    return v.type


def _unify_numeric(vals):
    """SQL implicit promotion across CASE/COALESCE branches: if any branch
    is floating, cast numeric branches to float64; mixed int widths cast
    to int64. Strings/temporals pass through (mismatches raise in Arrow,
    like strict SQL engines)."""
    types = [_type_of(v) for v in vals]
    nonnull = [ty for ty in types if not pa.types.is_null(ty)]
    if not nonnull:
        return vals
    if any(pa.types.is_floating(ty) for ty in nonnull) and all(
            pa.types.is_floating(ty) or pa.types.is_integer(ty)
            or pa.types.is_null(ty) for ty in types):
        return [v if pa.types.is_null(_type_of(v))
                else pc.cast(v, pa.float64()) for v in vals]
    if all(pa.types.is_integer(ty) or pa.types.is_null(ty) for ty in types) \
            and len({str(ty) for ty in nonnull}) > 1:
        return [v if pa.types.is_null(_type_of(v))
                else pc.cast(v, pa.int64()) for v in vals]
    return vals


def _coerce_temporal(a, b):
    ta, tb = _type_of(a), _type_of(b)
    if (pa.types.is_timestamp(ta) or pa.types.is_date(ta)) and pa.types.is_string(tb):
        b = pc.cast(b, ta)
    elif (pa.types.is_timestamp(tb) or pa.types.is_date(tb)) and pa.types.is_string(ta):
        a = pc.cast(a, tb)
    elif pa.types.is_timestamp(ta) and pa.types.is_date(tb):
        b = pc.cast(b, ta)  # DATE literal vs timestamp column
    elif pa.types.is_timestamp(tb) and pa.types.is_date(ta):
        a = pc.cast(a, tb)
    return a, b


def _shift_temporal(v, n: int, unit: str):
    """date/timestamp ± INTERVAL: calendar math for month/year (day clamps
    to the target month's length, DuckDB semantics), timedelta otherwise.
    Column (array) shifts support fixed-length units only."""
    import calendar
    import datetime as _dt

    if isinstance(v, pa.Scalar):
        py = v.as_py()
        if py is None:
            return v
        if unit in ("year", "month"):
            months = n * (12 if unit == "year" else 1)
            y, m0 = divmod(py.year * 12 + (py.month - 1) + months, 12)
            d = min(py.day, calendar.monthrange(y, m0 + 1)[1])
            return pa.scalar(py.replace(year=y, month=m0 + 1, day=d))
        delta = _dt.timedelta(**{unit + "s": n})
        if isinstance(py, _dt.date) and not isinstance(py, _dt.datetime) \
                and unit in ("hour", "minute", "second"):
            py = _dt.datetime(py.year, py.month, py.day)
        return pa.scalar(py + delta)
    if unit in ("week", "day", "hour", "minute", "second"):
        vv = v if pa.types.is_timestamp(_type_of(v)) \
            else pc.cast(v, pa.timestamp("us"))
        return pc.add(vv, pa.scalar(_dt.timedelta(**{unit + "s": n})))
    raise ValueError("month/year INTERVAL arithmetic on a column is "
                     "unsupported (constant dates only)")


def _geom_areas(col) -> list[float]:
    from gdal_ray.geo import wkb as W
    from gdal_ray.vector.geomfuncs import area

    return [
        0.0 if b is None else float(area(W.parse_wkb(b)))
        for b in col.to_pylist()
    ]


def _concat(a, b):
    """SQL ||: non-string operands cast to string first; a NULL operand
    makes the result NULL (both the scalar and array paths — DuckDB
    semantics; CONCAT() instead skips NULLs via _concat_fill)."""
    if not pa.types.is_string(_type_of(a)):
        a = pc.cast(a, pa.string())
    if not pa.types.is_string(_type_of(b)):
        b = pc.cast(b, pa.string())
    if isinstance(a, pa.Scalar) and isinstance(b, pa.Scalar):
        if not a.is_valid or not b.is_valid:
            return pa.scalar(None, pa.string())
        return pa.scalar(a.as_py() + b.as_py())
    return pc.binary_join_element_wise(a, b, "")


def _concat_fill(v):
    """CONCAT operand: cast to string and treat NULL as '' (DuckDB CONCAT
    skips NULL operands)."""
    if not pa.types.is_string(_type_of(v)):
        v = pc.cast(v, pa.string())
    if isinstance(v, pa.Scalar):
        return pa.scalar(v.as_py() if v.is_valid else "")
    return pc.fill_null(v, "")


def _substr_dynamic(s, start, length):
    """SUBSTR with non-literal start/length: evaluate per row (slow path —
    only reached when start/length are expressions, e.g. SUBSTR(x, n - 1)).
    1-based like SQL; semantics match DuckDB for start >= 1."""
    sv = s.to_pylist() if not isinstance(s, pa.Scalar) else None
    n = len(sv) if sv is not None else 1

    def col(v):
        if isinstance(v, pa.Scalar):
            return [v.as_py()] * n
        return v.to_pylist()

    if sv is None:
        sv = [s.as_py()] * max(
            n, len(col(start)) if not isinstance(start, pa.Scalar) else 1)
        n = len(sv)
    st_v = col(start)
    ln_v = col(length) if length is not None else [None] * n
    out = []
    for x, b, l in zip(sv, st_v, ln_v):
        if x is None or b is None:
            out.append(None)
            continue
        b0 = max(int(b) - 1, 0)
        if l is None:
            out.append(x[b0:])
        elif l is not None and int(l) < 0:
            out.append(None)
        else:
            out.append(x[b0:b0 + int(l)])
    return pa.array(out, pa.string())


def _list_segments(col):
    """(lens, starts, flat) for a list column: per-row element count
    (null lists -> 0) and each row's start offset into pc.list_flatten's
    output (which skips null/empty rows' contributions)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens = pc.fill_null(pc.list_value_length(col), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.zeros(len(lens), np.int64)
    if len(lens) > 1:
        np.cumsum(lens[:-1], out=starts[1:])
    return lens, starts, pc.list_flatten(col)


def _flat_f64(col):
    """(lens, starts, flat float64 ndarray, row-validity) for a list column
    or a literal list scalar (lens/starts None for the scalar case)."""
    if isinstance(col, pa.Scalar):
        v = col.as_py()
        if v is None:
            return None, None, None, None
        return None, None, np.asarray(v, dtype=np.float64), None
    lens, starts, flat = _list_segments(col)
    vals = pc.cast(flat, pa.float64()).to_numpy(zero_copy_only=False)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    return lens, starts, vals, valid


def _list_pairwise(fn, a, b):
    """DuckDB list_cosine_similarity / list_dot_product / list_distance:
    per-row vector kernel over two list columns (either side may be a
    literal vector). NULL list on either side -> NULL; per-row length
    mismatch raises (DuckDB errors too). Computation is one flatten +
    reshape/reduceat per batch — float64 throughout, so oracle SQL must
    CAST float32 embedding columns to DOUBLE[] (see float-parity memory).
    Null ELEMENTS are a DuckDB error; here they propagate as NaN."""
    la, sa, va, vva = _flat_f64(a)
    lb, sb, vb, vvb = _flat_f64(b)
    if va is None or vb is None:  # NULL literal side
        n = len(la) if la is not None else (len(lb) if lb is not None else 1)
        return pa.nulls(n, pa.float64())
    if la is None and lb is None:  # both literal
        la = np.array([len(va)], np.int64)
        sa = np.zeros(1, np.int64)
        vva = np.ones(1, bool)
    if la is None:
        la, sa, va, vva = (np.full(len(lb), len(va), np.int64), None,
                           va, np.ones(len(lb), bool))
    if lb is None:
        lb, sb, vb, vvb = (np.full(len(la), len(vb), np.int64), None,
                           vb, np.ones(len(la), bool))
    valid = vva & vvb if vvb is not None else vva
    if (la[valid] != lb[valid]).any():
        raise ValueError(f"{fn}: list dimensions must be equal")
    nrow = len(la)
    out = np.full(nrow, np.nan)
    nv = int(valid.sum())
    if nv:
        d = int(la[valid][0]) if (la[valid] == la[valid][0]).all() else None

        def gather(starts_side, vals_side, lens_side):
            if starts_side is None:  # broadcast literal vector
                return np.tile(vals_side, nv).reshape(-1) if d is not None \
                    else np.concatenate([vals_side] * nv)
            ls = lens_side[valid]
            st = starts_side[valid]
            tot = int(ls.sum())
            cum = np.zeros(len(ls), np.int64)
            if len(ls) > 1:
                np.cumsum(ls[:-1], out=cum[1:])
            pos = np.repeat(st - cum, ls) + np.arange(tot)
            return vals_side[pos]

        xa = gather(sa, va, la)
        xb = gather(sb, vb, lb)
        if d is not None:  # uniform dimension: reshape, no reduceat
            xa = xa.reshape(nv, d)
            xb = xb.reshape(nv, d)
            dot = np.einsum("ij,ij->i", xa, xb)
            if fn == "list_dot_product":
                r = dot
            elif fn == "list_cosine_similarity":
                na2 = np.einsum("ij,ij->i", xa, xa)
                nb2 = np.einsum("ij,ij->i", xb, xb)
                with np.errstate(invalid="ignore", divide="ignore"):
                    r = dot / np.sqrt(na2 * nb2)
            else:
                diff = xa - xb
                r = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        else:
            ls = la[valid]
            cum = np.zeros(len(ls), np.int64)
            if len(ls) > 1:
                np.cumsum(ls[:-1], out=cum[1:])
            nz = ls > 0
            dot = np.zeros(nv)
            if nz.any():
                dot[nz] = np.add.reduceat(xa * xb, cum[nz])
            if fn == "list_dot_product":
                r = dot
            elif fn == "list_cosine_similarity":
                na2 = np.zeros(nv)
                nb2 = np.zeros(nv)
                if nz.any():
                    na2[nz] = np.add.reduceat(xa * xa, cum[nz])
                    nb2[nz] = np.add.reduceat(xb * xb, cum[nz])
                with np.errstate(invalid="ignore", divide="ignore"):
                    r = dot / np.sqrt(na2 * nb2)
            else:
                sq = (xa - xb) ** 2
                ss = np.zeros(nv)
                if nz.any():
                    ss[nz] = np.add.reduceat(sq, cum[nz])
                r = np.sqrt(ss)
        out[valid] = r
    return pa.array(out, pa.float64(), from_pandas=True)


def _list_extract(col, idx):
    """DuckDB LIST_EXTRACT / l[i]: 1-based; negative counts from the end;
    0 / out-of-bounds / null list -> NULL. Vectorized: one flatten + one
    take with a null mask (no per-row Python)."""
    lens, starts, flat = _list_segments(col)
    n = len(lens)
    if isinstance(idx, pa.Scalar):
        iv = idx.as_py()
        if iv is None:
            return pa.nulls(n, flat.type)
        i = np.full(n, int(iv), np.int64)
        inull = np.zeros(n, bool)
    else:
        if isinstance(idx, pa.ChunkedArray):
            idx = idx.combine_chunks()
        inull = pc.is_null(idx).to_numpy(zero_copy_only=False)
        i = pc.fill_null(pc.cast(idx, pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
    pos = np.where(i > 0, i - 1, lens + i)  # i==0 -> pos == lens+0 is OOB
    pos = np.where(i == 0, -1, pos)
    valid = (pos >= 0) & (pos < lens) & ~inull
    take = pa.array(np.where(valid, starts + pos, 0), pa.int64(),
                    mask=~valid)
    if len(flat) == 0:
        return pa.nulls(n, flat.type)
    return flat.take(take)


def _list_contains(col, val):
    """DuckDB LIST_CONTAINS: true/false per row (null elements never
    match); NULL list -> NULL. Segment-any via logical_or.reduceat."""
    lens, starts, flat = _list_segments(col)
    n = len(lens)
    if isinstance(val, pa.Scalar) and val.as_py() is None:
        return pa.nulls(n, pa.bool_())
    m = pc.fill_null(pc.equal(flat, val), False) \
        .to_numpy(zero_copy_only=False)
    res = np.zeros(n, bool)
    nz = lens > 0
    if nz.any():
        res[nz] = np.logical_or.reduceat(m, starts[nz])
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lnull = pc.is_null(col).to_numpy(zero_copy_only=False)
    return pa.array(res, pa.bool_(), mask=lnull)


# regex group naming for REGEXP_EXTRACT: RE2 (Arrow's engine) addresses
# groups by NAME in extract_regex, so unnamed capture groups are rewritten
# to (?P<g1>...) .. (?P<gk>...) with a scanner that honors escapes and
# character classes (backreferences don't exist in RE2, so renumbering is
# safe). Reference: ogr SQL has no regexp; DuckDB semantics followed.
def _name_regex_groups(pat: str) -> tuple:
    out = []
    i = 0
    k = 0
    in_class = False
    while i < len(pat):
        c = pat[i]
        if c == "\\" and i + 1 < len(pat):
            out.append(pat[i:i + 2])
            i += 2
            continue
        if in_class:
            out.append(c)
            if c == "]":
                in_class = False
            i += 1
            continue
        if c == "[":
            in_class = True
            out.append(c)
            i += 1
            continue
        if c == "(" and not pat.startswith("(?", i):
            k += 1
            out.append(f"(?P<g{k}>")
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out), k


def _sql_mod(a, b):
    # SQL % on integers: DuckDB truncates toward zero like C
    return _mod_impl(a, b)


def _mod_impl(a, b):
    q = pc.cast(
        pc.round(
            pc.divide(pc.cast(a, pa.float64()), pc.cast(b, pa.float64())),
            ndigits=0, round_mode="towards_zero",
        ),
        pa.int64(),
    )
    return pc.subtract(a, pc.multiply(q, b))


def _item_name(node: Node, alias, idx) -> str:
    if alias:
        return alias
    if node.kind == "col":
        return node.value
    return f"expr_{idx}"


def _rewrite_having(node: Node, specs: list, hidden: list) -> Node:
    """Replace aggregate calls in a HAVING expression with column refs to
    the matching output spec (or a hidden spec computed just for the
    filter)."""
    if node.kind == "agg":
        kind, col = node.value
        for name, k, c in specs + hidden:
            if (k, c) == (kind, col):
                return Node("col", name)
        hname = f"__hv{len(hidden)}"
        hidden.append((hname, kind, col))
        return Node("col", hname)
    if node.args:
        new_args = tuple(
            _rewrite_having(a, specs, hidden) if isinstance(a, Node)
            else tuple(_rewrite_having(x, specs, hidden) for x in a) if isinstance(a, tuple)
            else a
            for a in node.args
        )
        return Node(node.kind, node.value, new_args)
    return node


def _filter_table(t: pa.Table, mask) -> pa.Table:
    """t.filter with SQL constant-predicate semantics: a scalar mask (the
    WHERE clause referenced no columns) keeps all rows when true, none when
    false/null — found by the hypothesis fuzzer (WHERE NOT (1 < 2))."""
    if isinstance(mask, pa.Scalar):
        return t if mask.is_valid and mask.as_py() else t.slice(0, 0)
    return t.filter(mask)


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else pa.table({})


def _execute_with_count_distinct(ds, q, specs, cd_specs, names, having):
    """GROUP BY with COUNT(DISTINCT ...): each distinct-agg runs as its own
    distinct + count pipeline; the per-key result tables (small: bounded by
    group count) join on the group keys. ORDER/LIMIT apply in-memory."""
    import ray.data as rd

    from gdal_ray.ops.relational import distinct as op_distinct
    from gdal_ray.ops.relational import groupby_agg

    keys = list(q.group_by)
    tables = []
    if specs or not keys:
        # base table: one row per group (or the single summary row) — also
        # the key universe so all-NULL groups still appear with count 0
        tables.append(_collect(groupby_agg(
            ds, keys, specs or [("__n", "count_star", None)])))
        if not specs:
            tables[0] = tables[0].drop_columns(["__n"])
    else:
        tables.append(_collect(op_distinct(ds, keys)))
    cd_names = []
    for name, col in cd_specs:
        # COUNT(DISTINCT col) ignores NULLs (SQL): drop them before the
        # distinct pass, else NULL counts as one extra distinct value
        def _dropnull(t: pa.Table, c=col) -> pa.Table:
            return t.filter(pc.is_valid(t[c]))

        nn = ds.map_batches(_dropnull, batch_format="pyarrow", batch_size=None)
        d = op_distinct(nn, keys + [col])
        cd_t = _collect(groupby_agg(d, keys, [(name, "count_star", None)]))
        tables.append(cd_t)
        cd_names.append(name)
    if keys:
        out = tables[0]
        for t2 in tables[1:]:
            # left join: groups whose col is entirely NULL have no distinct
            # rows — they must still appear, with count 0 (filled below)
            out = out.join(t2, keys=keys, join_type="left outer")
        for name in cd_names:
            if name in out.column_names:
                idx = out.column_names.index(name)
                out = out.set_column(
                    idx, name, pc.fill_null(pc.cast(out[name], pa.int64()), 0))
    else:
        cols = {}
        for n2 in tables[0].column_names:
            cols[n2] = tables[0][n2]
        for name, t2 in zip(cd_names, tables[1:]):
            if t2.num_rows == 0 or name not in t2.column_names:
                # all rows NULL (or empty input): COUNT(DISTINCT) is 0
                cols[name] = pa.array([0], pa.int64())
            else:
                cols[name] = t2[name]
        out = pa.table(cols)
    if having is not None:
        out = _filter_table(out, eval_expr(having, out))
    # group-key items may carry an alias: select by the SOURCE column
    # name, then rename to the output names (mirrors the groupby_agg path)
    src = [item.value if item.kind == "col" else nm
           for (item, _a), nm in zip(q.items, names)]
    out = out.select(src).rename_columns(names)
    if q.order_by:
        sort_keys = []
        tmp = out
        for i, (c, d) in enumerate(q.order_by):
            if isinstance(c, Node):
                v = eval_expr(c, tmp)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(tmp))
                nm = f"__ox{i}"
                tmp = tmp.append_column(nm, v)
                sort_keys.append((nm, "descending" if d else "ascending"))
            else:
                sort_keys.append((c, "descending" if d else "ascending"))
        out = out.take(pc.sort_indices(tmp, sort_keys=sort_keys))
    if q.offset:
        out = out.slice(q.offset)
    if q.limit is not None:
        out = out.slice(0, q.limit)
    return rd.from_arrow(out)


def _apply_offset(out, offset: int):
    """OFFSET skip — applied after LIMIT/topk, so the input is small by
    construction (single-block slice)."""

    def drop(t: pa.Table) -> pa.Table:
        return t.slice(offset)

    return out.repartition(1).map_batches(drop, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# correlated-subquery decorrelation (scope analysis + join rewrites)
# ---------------------------------------------------------------------------

_SPECIAL_FIELDS = ("FID", "OGR_GEOM_AREA", "OGR_GEOM_WKT", "OGR_STYLE",
                   "OGR_GEOMETRY")

# SQL JOIN planner bound: a parquet right side above this many rows uses
# the co-partitioned join_hash (both sides shuffle) instead of a driver
# read + ray.put broadcast. Override via config for constrained workers.
_BROADCAST_JOIN_MAX_ROWS = 4_000_000


@functools.lru_cache(maxsize=256)
def _parquet_cols(path: str) -> tuple:
    import pyarrow.parquet as pq

    return tuple(pq.read_schema(path).names)


# ---------------------------------------------------------------------------
# table registry: SQL over ANY Dataset / Arrow table, not just the sf_dir
# parquet files — the OGRDataSource::ExecuteSQL equivalent
# (ogr/ogrsf_frmts/generic/ogrdatasource.cpp SQL entry point)
# ---------------------------------------------------------------------------

_TABLE_REGISTRY: dict = {}


def register_table(name: str, src) -> None:
    """Bind `name` for use in FROM/JOIN clauses of execute(). src may be a
    ray.data.Dataset, a pyarrow.Table, or a parquet file path. Registered
    names shadow sf_dir files. Scan-level column pruning / predicate
    pushdown apply only to path sources; Dataset/Table sources are used
    as-is (they are already in memory / in flight)."""
    _TABLE_REGISTRY[name.lower()] = src


def unregister_table(name: str) -> None:
    _TABLE_REGISTRY.pop(name.lower(), None)


def _registry_get(table):
    if isinstance(table, str):
        return _TABLE_REGISTRY.get(table.lower())
    return None


def _registry_cols(src) -> list:
    if isinstance(src, pa.Table):
        return list(src.column_names)
    if isinstance(src, str):
        return list(_parquet_cols(src))
    sch = src.schema()
    return list(sch.names)


def _table_cols(sf_dir: str, table) -> list:
    if isinstance(table, pa.Table):
        return list(table.column_names)
    if isinstance(table, tuple) and table and table[0] == "__series__":
        return [table[4]]
    if isinstance(table, Select):
        if isinstance(table.table, tuple) and table.table \
                and table.table[0] == "__series__" and any(
                isinstance(it, Node) and it.kind == "star"
                for it, _ in table.items):
            return [table.table[4]]
        if isinstance(table.table, pa.Table) and any(
                isinstance(it, Node) and it.kind == "star"
                for it, _ in table.items) and table.unpivot is None:
            return list(table.table.column_names)
        if table.unpivot is not None and any(
                isinstance(it, Node) and it.kind == "star"
                for it, _ in table.items):
            on, nc, vc = table.unpivot
            base = _table_cols(sf_dir, table.table)
            return [c for c in base if c not in on] + [nc, vc]
        return list(_out_names(table))
    src = _registry_get(table)
    if src is not None:
        return _registry_cols(src)
    from gdal_ray.util import sf_path

    return list(_parquet_cols(sf_path(sf_dir, table)))


def _avail_cols(core: Select, sf_dir: str) -> set:
    """Column names visible inside one Select's own scope (FROM + JOINs +
    special fields) — the basis for correlated-reference detection."""
    cols = set(_table_cols(sf_dir, core.table))
    for j in (core.joins or []):
        cols.update(_table_cols(sf_dir, j.table))
    cols.update(_SPECIAL_FIELDS)
    return cols


def _refed_cols(x, acc: set) -> None:
    """Collect column names referenced by an expression tree, NOT
    descending into nested subquery scopes (their columns are their own;
    correlation more than one level up is unsupported)."""
    if isinstance(x, Node):
        if x.kind == "col":
            acc.add(x.value)
            return
        if x.kind == "agg":
            _k, c = x.value
            for e in (c if isinstance(c, tuple) else (c,)):
                if isinstance(e, str):
                    acc.add(e)
                elif isinstance(e, Node):
                    _refed_cols(e, acc)
            return
        if x.kind in ("exists_sub", "scalar_sub"):
            return
        if x.kind == "in_sub":
            _refed_cols(x.args[0], acc)
            return
        if isinstance(x.value, (Node, tuple, list)):
            _refed_cols(x.value, acc)
        _refed_cols(x.args, acc)
        return
    if isinstance(x, (tuple, list)):
        for i in x:
            _refed_cols(i, acc)


def _is_correlated(sub: Select, sf_dir: str) -> bool:
    avail = _avail_cols(sub, sf_dir)
    acc: set = set()
    _refed_cols((sub.items, sub.where, sub.having), acc)
    for g in sub.group_by:
        if isinstance(g, str):
            acc.add(g)
        else:
            _refed_cols(g, acc)
    return bool(acc - avail)


def _split_conjuncts(n):
    if n is None:
        return []
    if n.kind == "bin" and n.value == "and":
        return _split_conjuncts(n.args[0]) + _split_conjuncts(n.args[1])
    return [n]


def _and_fold(conjs):
    out = None
    for c in conjs:
        out = c if out is None else Node("bin", "and", (out, c))
    return out


def _extract_correlation(sub: Select, outer_cols: set, sf_dir: str,
                         allow_nonequi: bool = False):
    """Split sub.where into equality-correlation key pairs
    [(outer_col, inner_col)] and a purely-local residue. With
    allow_nonequi, `inner_col <> outer_col` correlated conjuncts are
    additionally extracted as a third list [(outer_col, inner_col)]
    (used by the EXISTS grouped-count decorrelation, TPC-H q21 shape);
    other non-equality correlated predicates are rejected (not
    decorrelatable to a key join)."""
    inner = _avail_cols(sub, sf_dir)
    pairs, nonequi, local = [], [], []
    for c in _split_conjuncts(sub.where):
        if (c.kind == "bin" and c.value in ("=", "<>")
                and c.args[0].kind == "col" and c.args[1].kind == "col"):
            a, b = c.args[0].value, c.args[1].value
            dest = pairs if c.value == "=" else (
                nonequi if allow_nonequi else None)
            if dest is not None:
                if a in inner and b not in inner and b in outer_cols:
                    dest.append((b, a))
                    continue
                if b in inner and a not in inner and a in outer_cols:
                    dest.append((a, b))
                    continue
        acc: set = set()
        _refed_cols(c, acc)
        if acc - inner:
            raise ValueError(
                "unsupported correlated predicate (only equality "
                f"correlation outer_col = inner_col): {c}")
        local.append(c)
    if allow_nonequi:
        return pairs, nonequi, _and_fold(local)
    return pairs, _and_fold(local)


def _resolve_subqueries(core: Select, sf_dir: str) -> Select:
    """Replace uncorrelated IN (SELECT ...) / scalar (SELECT ...) nodes by
    running each subquery once on the driver (nested subqueries resolve
    depth-first). IN subquery results materialize as an IN-list — the
    value set must fit driver memory, the standard uncorrelated-subquery
    contract; the pa.Array ships with the eval closure into workers.
    Correlated subqueries are rejected naturally (unknown columns)."""
    from gdal_ray.util import to_arrow

    def run_sub(sub: Select) -> pa.Table:
        sub = _resolve_subqueries(sub, sf_dir)
        tbl = to_arrow(_execute_core(
            sub, sf_dir, sub.order_by, sub.limit, sub.offset))
        if tbl.num_columns == 0 and tbl.num_rows == 0:
            # Ray loses the schema of all-empty pipelines; rebuild the
            # typed empty from the subquery's statically-inferred schema
            tbl = _typed_empty_select(sub, sf_dir)
        if tbl.num_columns != 1:
            raise ValueError("subquery must return exactly one column")
        return tbl

    def walk_any(x):
        if isinstance(x, Node):
            return walk(x)
        if isinstance(x, tuple):
            return tuple(walk_any(i) for i in x)
        if isinstance(x, list):
            return [walk_any(i) for i in x]
        return x

    def walk(n: Node) -> Node:
        if n.kind == "in_sub":
            if _is_correlated(n.args[1], sf_dir):
                return Node("in_sub", None,
                            (walk_any(n.args[0]), n.args[1]))
            left = walk_any(n.args[0])
            col = run_sub(n.args[1]).column(0).combine_chunks()
            return Node("in_vals", col, (left,))
        if n.kind == "quant":
            # cmp ANY/ALL (SELECT ...): uncorrelated quantified
            # comparison — fold the subquery to its min/max bound plus
            # null/empty bookkeeping, then rewrite to a CASE tree with
            # SQL three-valued semantics (empty: ALL->TRUE, ANY->FALSE;
            # nulls in the sub make the undecided branch NULL)
            op, which = n.value
            left = walk_any(n.args[0])
            if _is_correlated(n.args[1], sf_dir):
                raise ValueError("correlated ANY/ALL subqueries are "
                                 "unsupported (use EXISTS)")
            col = run_sub(n.args[1]).column(0)
            vals = col.drop_null()
            has_null = col.null_count > 0
            NULL, TRUE, FALSE = (Node("lit", None), Node("lit", True),
                                 Node("lit", False))
            if len(col) == 0:
                return TRUE if which == "all" else FALSE
            isnull = Node("isnull", True, (left,))
            if op == "=" and which == "any":  # IN semantics
                return Node("in_vals", vals.combine_chunks(), (left,))
            if op == "<>" and which == "all":  # NOT IN semantics
                return Node("un", "not",
                            (Node("in_vals", vals.combine_chunks(),
                                  (left,)),))
            if len(vals) == 0:  # all-null subquery: always unknown
                return Node("case", NULL, ((isnull, NULL),))
            if op in ("<", "<=", ">", ">="):
                if which == "all":
                    agg = pc.min(vals) if op in ("<", "<=") else pc.max(vals)
                else:
                    agg = pc.max(vals) if op in ("<", "<=") else pc.min(vals)
                cmpn = Node("bin", op, (left, Node("lit", agg.as_py())))
                if which == "all":
                    whens = ((isnull, NULL),
                             (Node("un", "not", (cmpn,)), FALSE))
                    els = NULL if has_null else TRUE
                else:
                    whens = ((isnull, NULL), (cmpn, TRUE))
                    els = NULL if has_null else FALSE
                return Node("case", els, whens)
            # = ALL / <> ANY via the min/max-equality trick
            eq_all = Node("bin", "and", (
                Node("bin", "=", (left, Node("lit", pc.min(vals).as_py()))),
                Node("bin", "=", (left, Node("lit", pc.max(vals).as_py())))))
            if op == "=":
                whens = ((isnull, NULL),
                         (Node("un", "not", (eq_all,)), FALSE))
                els = NULL if has_null else TRUE
            else:  # <> ANY: exists v != x
                whens = ((isnull, NULL),
                         (Node("un", "not", (eq_all,)), TRUE))
                els = NULL if has_null else FALSE
            return Node("case", els, whens)
        if n.kind == "scalar_sub":
            if _is_correlated(n.args[0], sf_dir):
                return n  # decorrelated to a join in _execute_core
            tbl = run_sub(n.args[0])
            if tbl.num_rows != 1:
                raise ValueError(
                    f"scalar subquery returned {tbl.num_rows} rows, want 1")
            return Node("lit", tbl.column(0)[0].as_py())
        if n.kind == "exists_sub":
            if _is_correlated(n.args[0], sf_dir):
                return n  # decorrelated to a semi join in _execute_core
            sub = _resolve_subqueries(n.args[0], sf_dir)
            n_rows = _execute_core(sub, sf_dir, [], 1, None).count()
            return Node("lit", bool(n_rows))
        value = walk_any(n.value) if isinstance(n.value, (Node, tuple, list)) \
            else n.value
        return Node(n.kind, value, walk_any(n.args))

    core.items = [(walk_any(e), alias) for e, alias in core.items]
    core.where = walk_any(core.where)
    core.having = walk_any(core.having)
    core.qualify = walk_any(core.qualify)
    core.group_by = [walk_any(g) for g in core.group_by]
    core.order_by = walk_any(core.order_by)
    if isinstance(core.table, Select):
        core.table = _resolve_subqueries(core.table, sf_dir)
    for j in (core.joins or []):
        if isinstance(j.table, Select):
            j.table = _resolve_subqueries(j.table, sf_dir)
    return core


def _combine_set_ops(outs: list, ops: list, names: list):
    """Fold a parsed set-op chain. Standard SQL precedence: INTERSECT binds
    tighter than UNION/EXCEPT; UNION/EXCEPT associate left. All three
    DISTINCT variants compile to existing distributed operators: UNION ->
    union_all + distinct (tree merge), INTERSECT/EXCEPT -> distinct +
    hash-partitioned semi/anti join on the full row (semi_join_hash — one
    shuffle of each side, no broadcast of the big side)."""
    from gdal_ray.ops.relational import distinct as op_distinct
    from gdal_ray.ops.relational import semi_join_hash, union_all

    vals, vops = [outs[0]], []
    for op, o in zip(ops, outs[1:]):
        if op == "intersect":
            vals[-1] = semi_join_hash(
                op_distinct(vals[-1], names), o, names)
        elif op == "intersect_all":
            vals[-1] = _bag_set_op(vals[-1], o, names, "intersect")
        else:
            vops.append(op)
            vals.append(o)
    out = vals[0]
    for op, o in zip(vops, vals[1:]):
        if op == "union_all":
            out = union_all(out, o)
        elif op == "union":
            out = op_distinct(union_all(out, o), names)
        elif op == "except_all":
            out = _bag_set_op(out, o, names, "except")
        else:  # except
            out = semi_join_hash(op_distinct(out, names), o, names, anti=True)
    return out


def _bag_set_op(a, b, names: list, mode: str):
    """INTERSECT ALL / EXCEPT ALL (bag semantics): count multiplicities
    of each distinct full row on both sides (combiner groupby — one
    shuffle each), hash-join the count tables, then replicate each row
    min(na, nb) (intersect) or max(na - nb, 0) (except) times. No
    broadcast; full rows shuffle once per side."""
    from gdal_ray.ops.relational import groupby_agg, join_hash

    ca = groupby_agg(a, names, [("__na", "count_star", None)])
    cb = groupby_agg(b, names, [("__nb", "count_star", None)])
    joined = join_hash(ca, cb, names,
                       how="inner" if mode == "intersect" else "left")

    def rep(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.select(names)
        na = t["__na"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = np.nan_to_num(
            t["__nb"].to_numpy(zero_copy_only=False).astype(np.float64))
        k = np.minimum(na, nb) if mode == "intersect" else na - nb
        k = np.maximum(k, 0).astype(np.int64)
        idx = np.repeat(np.arange(len(t)), k)
        return t.select(names).take(pa.array(idx))

    return joined.map_batches(rep, batch_format="pyarrow", batch_size=None)


def explain(sql: str, sf_dir: str) -> str:
    """Human-readable plan sketch for a SELECT: per core, the FROM source
    with its pruned column list and pushed-down scan filter, each join
    with its chosen strategy (broadcast vs co-partitioned hash), the
    aggregate specs, and which subqueries decorrelate to joins. Purely
    static — nothing executes."""
    q = parse_query(sql)
    if q.rec_ctes:
        # the main plan depends on the fixpoint table's schema/size —
        # sketch only the recursion structure without executing
        return "\n".join(
            f"RECURSIVE CTE {nm!r}: driver fixpoint "
            f"[base once, distributed step per round, "
            f"{'UNION ALL' if ua else 'UNION (dedup vs seen)'}]"
            for nm, (_b, _s, ua) in q.rec_ctes.items())
    q = _resolve_scopes(q, sf_dir)
    lines = []
    for ci, core in enumerate(q.cores):
        if len(q.cores) > 1:
            lines.append(f"CORE {ci} ({(q.set_ops or ['?'])[ci - 1] if ci else 'first'}):")
        tbl = core.table
        if isinstance(tbl, Select):
            lines.append("SCAN derived subquery")
        elif _registry_get(tbl) is not None:
            lines.append(f"SCAN registered table {tbl!r} (as-is)")
        else:
            cols = _pruned_columns(core, q.order_by if ci == 0 else [],
                                   sf_dir)
            flt = _pushdown_filter(core, sf_dir)
            lines.append(
                f"SCAN {tbl} columns={cols if cols else 'ALL'}"
                + (f" pushdown=({flt})" if flt is not None else ""))
        for j in (core.joins or []):
            if j.asof_spec is not None:
                eqp, (op_, a_, b_) = j.asof_spec
                how = "ASOF LEFT" if j.left else "ASOF"
                strat = ("range-partitioned by on-quantiles" if not eqp
                         else "hash-partitioned by equi keys")
                lines.append(f"{how} JOIN "
                             f"{j.table if isinstance(j.table, str) else 'derived'}"
                             f" ON {a_} {op_} {b_} [{strat}]")
                continue
            if isinstance(j.table, Select):
                lines.append(f"JOIN derived subquery ON {j.left_key} = "
                             f"{j.right_key} [broadcast]")
                continue
            if _registry_get(j.table) is not None:
                lines.append(f"JOIN registered {j.table!r} ON {j.left_key} "
                             f"= {j.right_key} [broadcast]")
                continue
            import pyarrow.parquet as _pq

            from gdal_ray.util import sf_path as _sp

            n = _pq.read_metadata(_sp(sf_dir, j.table)).num_rows
            strat = ("co-partitioned hash (both sides shuffle)"
                     if n > _BROADCAST_JOIN_MAX_ROWS
                     else f"broadcast ({n} rows)")
            how = "LEFT" if j.left else "INNER"
            lines.append(f"{how} JOIN {j.table} ON {j.left_key} = "
                         f"{j.right_key} [{strat}]")
        subs: list = []

        def scan_subs(x):
            if isinstance(x, Node):
                if x.kind in ("exists_sub", "in_sub", "scalar_sub",
                              "quant"):
                    sub = x.args[-1] if x.kind != "exists_sub" else x.args[0]
                    if isinstance(sub, Select):
                        corr = _is_correlated(sub, sf_dir)
                        subs.append((x.kind, corr))
                    return
                scan_subs(x.value) if isinstance(
                    x.value, (Node, tuple, list)) else None
                scan_subs(x.args)
            elif isinstance(x, (tuple, list)):
                for i in x:
                    scan_subs(i)

        scan_subs((core.items, core.where, core.having))
        for kind, corr in subs:
            plan = {"exists_sub": "semi/anti join" if corr else "constant",
                    "in_sub": "semi join" if corr else "IN-list broadcast",
                    "scalar_sub": "groupby + broadcast left join" if corr
                    else "constant",
                    "quant": "min/max bound fold"}[kind]
            lines.append(f"SUBQUERY {kind} "
                         f"[{'correlated -> ' if corr else ''}{plan}]")
        if core.group_by or any(
                isinstance(i, Node) and i.kind == "agg"
                for i, _ in core.items):
            lines.append(f"AGGREGATE group_by={core.group_by} "
                         "[per-batch combiner + tree/hash merge]")
        if core.qualify is not None:
            lines.append("QUALIFY filter after window pass")
    if q.order_by:
        lines.append(f"ORDER BY {q.order_by}"
                     + (f" LIMIT {q.limit} [two-level top-k, no global "
                        "sort]" if q.limit else " [distributed sort]"))
    elif q.limit:
        lines.append(f"LIMIT {q.limit}")
    return "\n".join(lines)


def _run_recursive_cte(name: str, base: Select, step: Select,
                       union_all: bool, sf_dir: str,
                       max_iters: int = 10_000) -> pa.Table:
    """Fixpoint loop for one WITH RECURSIVE cte (linear recursion). Each
    round the CTE name is bound to the PREVIOUS round's new rows (the
    SQL:1999 working table) and the step runs as a full distributed
    pipeline; only the accumulated recursion table lives on the driver
    (the same bounded-result contract as uncorrelated IN-lists — a
    recursion table IS the query's working set). UNION dedups new rows
    against everything seen; UNION ALL stops when the step yields no
    rows. Reference shape: ops/graph.py frontier rounds, whose DuckDB
    oracles were recursive CTEs — this closes that loop in SQL."""
    from gdal_ray.ops.relational import key_codes
    from gdal_ray.util import to_arrow

    def run_core(core: Select) -> pa.Table:
        import copy as _copy

        c = _copy.deepcopy(core)
        qq = Query([c], [], None, None)
        _resolve_scopes(qq, sf_dir)
        c = _resolve_subqueries(qq.cores[0], sf_dir)
        return to_arrow(_execute_core(c, sf_dir, c.order_by, c.limit,
                                      c.offset)).combine_chunks()

    def dedup(t: pa.Table) -> pa.Table:
        # first occurrence of each distinct row (NULLs equal, as in UNION)
        first = np.unique(key_codes(t, t.column_names), return_index=True)[1]
        return t.take(np.sort(first))

    def anti(new: pa.Table, seen: pa.Table) -> pa.Table:
        if new.num_rows == 0 or seen.num_rows == 0:
            return new
        both = pa.concat_tables(
            [new, seen.select(new.column_names).cast(new.schema)])
        codes = key_codes(both, new.column_names)
        return new.filter(pa.array(
            ~np.isin(codes[:new.num_rows], codes[new.num_rows:])))

    total = run_core(base)
    names = total.column_names
    if not union_all:
        total = dedup(total)
    frontier = total
    it = 0
    while frontier.num_rows:
        it += 1
        if it > max_iters:
            raise ValueError(
                f"WITH RECURSIVE {name!r} exceeded {max_iters} iterations")
        register_table(name, frontier)
        try:
            new = run_core(step)
        finally:
            unregister_table(name)
        if new.num_rows == 0:
            break  # fixpoint (Ray may drop the schema of empty results)
        if new.num_columns != len(names):
            raise ValueError(
                f"recursive step of {name!r} yields {new.num_columns} "
                f"columns, base has {len(names)}")
        new = new.rename_columns(names)
        if union_all:
            fresh = new
        else:
            fresh = anti(dedup(new), total)
        if fresh.num_rows == 0:
            break
        total = pa.concat_tables([total, fresh.cast(total.schema)])
        frontier = fresh
    return total.combine_chunks()


_COPY_RE = re.compile(
    r"^\s*COPY\s*\((?P<sel>.*)\)\s*TO\s*'(?P<path>[^']+)'\s*"
    r"(?:\(\s*FORMAT\s+(?P<fmt>\w+)\s*\))?\s*;?\s*$",
    re.S | re.I)
_CTAS_RE = re.compile(
    r"^\s*CREATE\s+(?:OR\s+REPLACE\s+)?TABLE\s+(?P<name>\w+)\s+AS\s+"
    r"(?P<sel>.+?)\s*;?\s*$", re.S | re.I)


def _execute_statement(sql: str, sf_dir: str):
    """Non-SELECT statements: COPY (sel) TO 'path' [(FORMAT fmt)] writes
    the result (parquet/csv/jsonl by format or path suffix); CREATE [OR
    REPLACE] TABLE name AS sel registers the materialized result in the
    table registry (queryable by later execute() calls). Both return a
    one-row summary table. Returns None when sql is a plain SELECT."""
    m = _COPY_RE.match(sql)
    if m is not None:
        from gdal_ray.util import to_arrow

        res = to_arrow(execute(m.group("sel"), sf_dir))
        path = m.group("path")
        fmt = (m.group("fmt") or "").lower()
        if not fmt:
            fmt = ("csv" if path.endswith(".csv") else
                   "jsonl" if path.endswith((".jsonl", ".ndjson")) else
                   "parquet")
        if fmt == "parquet":
            import pyarrow.parquet as _pq

            _pq.write_table(res, path)
        elif fmt == "csv":
            import pyarrow.csv as _pcsv

            _pcsv.write_csv(res, path)
        elif fmt in ("jsonl", "json", "ndjson"):
            import json as _json

            with open(path, "w") as f:
                for row in res.to_pylist():
                    f.write(_json.dumps(row, default=str) + "\n")
        else:
            raise ValueError(f"COPY TO format {fmt!r} unsupported")
        return pa.table({"path": pa.array([path]),
                         "rows": pa.array([res.num_rows], pa.int64())})
    m = _CTAS_RE.match(sql)
    if m is not None and m.group("name").lower() not in ("table",):
        from gdal_ray.util import to_arrow

        res = to_arrow(execute(m.group("sel"), sf_dir))
        register_table(m.group("name"), res)
        return pa.table({"table": pa.array([m.group("name")]),
                         "rows": pa.array([res.num_rows], pa.int64())})
    return None


def execute(sql: str, sf_dir: str):
    """Compile + run a SELECT (or set-op chain: UNION [ALL] / INTERSECT /
    EXCEPT) against the sf_dir parquet tables; COPY (sel) TO / CREATE
    TABLE AS statements dispatch to _execute_statement."""
    from gdal_ray.ops.relational import topk, union_all

    head = sql.lstrip()[:6].upper()
    if head.startswith(("COPY", "CREATE")):
        out = _execute_statement(sql, sf_dir)
        if out is not None:
            return out
    q = parse_query(sql)
    if q.rec_ctes:
        # materialize each recursive CTE to a fixpoint table and bind it
        # for the main query (and for later recursive CTEs). The binding
        # is consumed at plan time (from_arrow captures the data), so the
        # lazy result Dataset stays valid after unregistration.
        bound = []
        try:
            for nm, (base, step, ua) in q.rec_ctes.items():
                register_table(nm, _run_recursive_cte(nm, base, step, ua,
                                                      sf_dir))
                bound.append(nm)
            q2 = Query(q.cores, q.order_by, q.limit, q.offset,
                       set_ops=q.set_ops)
            q2 = _resolve_scopes(q2, sf_dir)
            return _execute_rest(q2, sf_dir)
        finally:
            for nm in bound:
                unregister_table(nm)
    q = _resolve_scopes(q, sf_dir)
    return _execute_rest(q, sf_dir)


def _execute_rest(q: Query, sf_dir: str):
    from gdal_ray.ops.relational import topk, union_all
    q.cores = [_resolve_subqueries(c, sf_dir) for c in q.cores]
    if len(q.cores) == 1:
        out = _execute_core(q.cores[0], sf_dir, q.order_by, q.limit,
                            q.offset)
        return _with_schema_sentinel(out, q.cores[0], sf_dir)
    # Set-op chain: each core compiles independently; schemas align by
    # POSITION to the first core's output names (ogr_sql_dialect.rst:515-533
    # resolves union layer fields by the first layer's definition)
    first_names = _out_names(q.cores[0])
    outs = []
    for core in q.cores:
        o = _execute_core(core, sf_dir, [], None, None)
        if _out_names(core) != first_names:
            o = o.map_batches(
                lambda t, names=list(first_names): t.rename_columns(names),
                batch_format="pyarrow", batch_size=None,
            )
        outs.append(o)
    ops = q.set_ops or ["union_all"] * (len(outs) - 1)
    out = _combine_set_ops(outs, ops, first_names)
    want = q.limit + (q.offset or 0) if q.limit is not None else None
    if q.order_by:
        out, keys_, drop_ = _order_keys(out, q.order_by)
        if want is not None:
            out = topk(out, keys_, want)
        else:
            out = out.sort([c for c, _ in keys_],
                           descending=[d for _, d in keys_])
        out = _drop_cols(out, drop_)
    elif want is not None:
        out = out.limit(want)
    if q.offset:
        out = _apply_offset(out, q.offset)
    return _with_schema_sentinel(out, q.cores[0], sf_dir)


def _with_schema_sentinel(out, core: Select, sf_dir: str):
    """Union one statically-typed 0-row block onto the final dataset so an
    all-empty result still carries column names/types (Ray 2.49 loses the
    schema of empty pipelines). Skipped for window queries (their output
    types aren't statically modeled) and whenever inference fails."""
    found: list = []
    _collect_windows((core.items, core.having, core.order_by), found)
    if found:
        return out
    try:
        te = _typed_empty_select(core, sf_dir)
        import ray.data as _rd

        return out.union(_rd.from_arrow(te))
    except Exception:
        return out


def _order_keys(out, order_by, *, on_source=False):
    """Normalize ORDER BY items to plain column names. Expression items
    compute as hidden __ox columns via one map_batches (dropped by the
    caller after the sort/topk). Returns (ds, [(name, desc)], drop_cols)."""
    plain = [(c, d) for c, d in order_by if not isinstance(c, Node)]
    exprs = [(c, d) for c, d in order_by if isinstance(c, Node)]
    if not exprs:
        return out, list(order_by), []
    names = {}
    keylist = []
    for c, d in order_by:
        if isinstance(c, Node):
            nm = f"__ox{len(names)}"
            names[nm] = c
            keylist.append((nm, d))
        else:
            keylist.append((c, d))

    def add(t: pa.Table, cols=dict(names)) -> pa.Table:
        for nm, node in cols.items():
            v = eval_expr(node, t)
            if isinstance(v, pa.Scalar):
                v = pa.array([v.as_py()] * len(t))
            t = t.append_column(nm, v)
        return t

    return (out.map_batches(add, batch_format="pyarrow", batch_size=None),
            keylist, list(names))


def _drop_cols(out, cols):
    if not cols:
        return out
    return out.map_batches(lambda t, c=list(cols): t.drop_columns(c),
                           batch_format="pyarrow", batch_size=None)


def _collect_windows(x, found: list) -> None:
    if isinstance(x, Node):
        if x.kind == "win":
            found.append(x)
            return
        for a in x.args:
            _collect_windows(a, found)
    elif isinstance(x, (list, tuple)):
        for a in x:
            _collect_windows(a, found)


def _apply_windows(ds, q: Select):
    """Compute window-function columns (ROW_NUMBER/RANK/DENSE_RANK/LAG/
    LEAD/aggregate OVER) as hidden columns, rewriting the win nodes in the
    select items to plain column refs. One hash-partitioned pass per
    distinct (PARTITION BY, ORDER BY) spec."""
    wins: list = []
    for item, _ in q.items:
        _collect_windows(item, wins)
    _collect_windows(q.qualify, wins)
    if not wins and q.qualify is None:
        return ds, q
    if q.group_by and wins:
        raise ValueError("window functions cannot combine with GROUP BY")
    misplaced: list = []
    _collect_windows(q.where, misplaced)
    _collect_windows(q.having, misplaced)
    if misplaced:
        raise ValueError(
            "window functions are allowed only in SELECT items / QUALIFY")

    # QUALIFY may reference select-item ALIASES (QUALIFY rn = 1):
    # substitute the aliased expression before window rewriting
    if q.qualify is not None:
        alias_map = {a: i for i, a in q.items if a}

        def subst_alias(n):
            if not isinstance(n, Node):
                return n
            if n.kind == "col" and n.value in alias_map:
                return alias_map[n.value]
            return Node(n.kind, n.value, tuple(
                subst_alias(a) if isinstance(a, Node)
                else tuple(subst_alias(x) for x in a)
                if isinstance(a, tuple) else a
                for a in n.args))

        q.qualify = subst_alias(q.qualify)
        wins = []
        for item, _ in q.items:
            _collect_windows(item, wins)
        _collect_windows(q.qualify, wins)

    names: list[tuple[Node, str]] = []

    def name_for(w: Node) -> str:
        for n2, nm in names:
            if n2 == w:
                return nm
        nm = f"__win{len(names)}"
        names.append((w, nm))
        return nm

    def rw(x):
        if isinstance(x, Node):
            if x.kind == "win":
                return Node("col", name_for(x))
            if x.args:
                return Node(x.kind, x.value, tuple(
                    rw(a) if isinstance(a, Node)
                    else tuple(rw(e) for e in a) if isinstance(a, tuple)
                    else a
                    for a in x.args))
        return x

    q.items = [(rw(i), a) for i, a in q.items]
    qualify = rw(q.qualify) if q.qualify is not None else None
    q.qualify = None

    # expressions inside the window spec (SUM(CASE...) OVER, PARTITION BY
    # x % 3, ORDER BY a+b, LAG(x*2)) hoist into hidden columns computed by
    # ONE map_batches before any window pass (same pattern as the GROUP BY
    # pre-compute); the final projection drops them
    hoists: list[tuple[str, Node]] = []

    def _hname(expr: Node) -> str:
        for nm2, e2 in hoists:
            if e2 == expr:
                return nm2
        nm2 = f"__wx{len(hoists)}"
        hoists.append((nm2, expr))
        return nm2

    groups: dict = {}
    for w, nm in names:
        fnode, parts, order = w.args
        pcols = tuple(p.value if p.kind == "col" else _hname(p)
                      for p in parts)
        ocols = tuple((o.value if o.kind == "col" else _hname(o), d)
                      for o, d in order)
        if fnode.kind == "agg" and isinstance(fnode.value[1], Node):
            e = fnode.value[1]
            tgt = e.value if e.kind == "col" else _hname(e)
            fnode = Node("agg", (fnode.value[0], tgt), fnode.args)
        elif fnode.kind == "call" and fnode.value in (
                "lag", "lead", "first_value", "last_value", "nth_value"):
            a0 = fnode.args[0]
            if isinstance(a0, Node) and a0.kind != "col":
                fnode = Node(fnode.kind, fnode.value,
                             (Node("col", _hname(a0)),) + fnode.args[1:])
        groups.setdefault((pcols, ocols), []).append((nm, fnode, w.value))
    if hoists:
        def add_hidden(t: pa.Table, hs=tuple(hoists)) -> pa.Table:
            for nm2, e2 in hs:
                v = eval_expr(e2, t)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(t),
                                 v.type if not pa.types.is_null(v.type)
                                 else pa.int64())
                t = t.append_column(nm2, v)
            return t

        ds = ds.map_batches(add_hidden, batch_format="pyarrow",
                            batch_size=None)
    for (pcols, ocols), jobs in groups.items():
        ds = _window_pass(ds, list(pcols), list(ocols), jobs)
    if qualify is not None:
        # QUALIFY: filter AFTER window computation (DuckDB semantics);
        # the hidden __win columns stay available for the predicate and
        # are dropped by the final projection
        def qfilt(t: pa.Table, qn=qualify) -> pa.Table:
            return _filter_table(t, eval_expr(qn, t))

        ds = ds.map_batches(qfilt, batch_format="pyarrow", batch_size=None)
    return ds, q


def _const_value(node: Node):
    """Fold a constant expression to its Python value (a bare literal or
    arithmetic over literals — covers `-1`, which parses as 0 - 1)."""
    if node.kind == "lit":
        return node.value
    if node.kind == "bin" and node.value in ("+", "-", "*", "/"):
        a, b = (_const_value(x) for x in node.args)
        if node.value == "+":
            return a + b
        if node.value == "-":
            return a - b
        if node.value == "*":
            return a * b
        return a / b
    raise ValueError("literal argument required")


def _frame_bounds(frame, ctx):
    """ROWS / RANGE frame -> per-row inclusive [lo, hi] absolute index
    arrays (hi < lo means an empty frame). RANGE offsets are VALUE
    windows over the single numeric ORDER BY key: per segment one
    searchsorted against (key ± offset); CURRENT ROW means the peer
    group (SQL semantics), DESC orders negate the key so the same
    ascending logic applies."""
    n = ctx["n"]
    i = np.arange(n)
    starts_rep = ctx["starts_rep"]
    ends_rep = starts_rep + ctx["sizes_rep"]  # exclusive segment end
    _mode, (lk, ln), (hk, hn) = frame
    if _mode == "range":
        w = ctx.get("ov_num")
        if w is None:
            raise ValueError(
                "RANGE offset frames need exactly one numeric (or "
                "timestamp) ORDER BY key")
        starts, ends = ctx["starts"], ctx["ends"]
        lo = np.empty(n, np.int64)
        hi = np.empty(n, np.int64)
        for s, e in zip(starts, ends):
            seg = w[s:e]
            if lk == "up":
                lo[s:e] = s
            elif lk == "cr":
                lo[s:e] = ctx["peer_start"][s:e]
            else:
                off = -ln if lk == "p" else ln
                lo[s:e] = s + np.searchsorted(seg, seg + off, side="left")
            if hk == "uf":
                hi[s:e] = e - 1
            elif hk == "cr":
                hi[s:e] = ctx["peer_end"][s:e]
            else:
                off = -hn if hk == "p" else hn
                hi[s:e] = s + np.searchsorted(seg, seg + off,
                                              side="right") - 1
        return lo, hi

    def side(kind, k, default_lo):
        if kind == "up":
            return starts_rep.copy()
        if kind == "uf":
            return ends_rep - 1
        if kind == "cr":
            return i.copy()
        if kind == "p":
            return np.maximum(i - k, starts_rep) if default_lo \
                else i - k  # hi below segment start -> empty, keep raw
        return np.minimum(i + k, ends_rep - 1) if not default_lo \
            else i + k  # lo past segment end -> empty, keep raw

    lo = side(lk, ln, True)
    hi = side(hk, hn, False)
    return lo, hi


def _pick(col, idx: np.ndarray, bad=None):
    """col.take(idx) with NULL where bad is set; the column keeps its type."""
    if bad is not None and bad.any():
        idx = pa.array(np.where(bad, 0, idx), pa.int64(), mask=bad)
    return col.take(idx)


def _fill_bad(out, bad: np.ndarray, fill):
    """Replace the rows where bad is set with the constant fill (NULL when
    fill is None); the output takes the common type of out and fill."""
    if fill is None or not bad.any():
        return out
    return pc.if_else(pa.array(~bad), out, pa.scalar(fill))


def _f64(col) -> np.ndarray:
    """A column as float64 numpy, NULL as NaN."""
    return pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)


def _eval_window_fn(fnode: Node, t: pa.Table, ctx: dict, frame=None):
    """One window column over the sorted partition table t. ctx carries
    the vectorized segment/peer geometry (see _window_pass). frame is an
    optional explicit ROWS frame (ranking functions ignore it, per SQL).
    Returns a numpy array (NaN read as NULL) or an Arrow array."""
    n = ctx["n"]
    pos, sizes_rep = ctx["pos"], ctx["sizes_rep"]
    starts, ends, starts_rep = ctx["starts"], ctx["ends"], ctx["starts_rep"]
    sizes = ctx["sizes"]
    new_peer, peer_start, peer_end = (
        ctx.get("new_peer"), ctx.get("peer_start"), ctx.get("peer_end"))
    has_order = new_peer is not None

    if frame is not None and (
            fnode.kind == "agg"
            or (fnode.kind == "call"
                and fnode.value in ("first_value", "last_value",
                                    "nth_value"))):
        lo, hi = _frame_bounds(frame, ctx)
        empty = lo > hi
        if fnode.kind == "call":
            colnode = fnode.args[0]
            if colnode.kind != "col":
                raise ValueError(
                    "FIRST_VALUE/LAST_VALUE/NTH_VALUE supports plain "
                    "columns only")
            if fnode.value == "nth_value":
                k = int(_const_value(fnode.args[1]))
                raw = lo + (k - 1)
                empty = empty | (raw > hi)
                idx = np.clip(raw, 0, max(n - 1, 0))
            else:
                idx = np.clip(lo if fnode.value == "first_value" else hi,
                              0, max(n - 1, 0))
            return _pick(t[colnode.value], idx, empty)
        akind, col = fnode.value
        loc = np.clip(lo, 0, n)  # raw lo may exceed the segment (empty)
        hic = np.clip(hi + 1, 0, n)
        hic = np.maximum(hic, loc)  # empty -> zero-width slice
        if akind == "count_star":
            return (hic - loc).astype(np.int64)
        if not isinstance(col, str):
            raise ValueError("windowed aggregates support plain columns only")
        v = _f64(t[col])
        valid = ~np.isnan(v)
        vz = np.where(valid, v, 0.0)
        ccnt = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        cnt = ccnt[hic] - ccnt[loc]
        if akind == "count":
            return cnt.astype(np.int64)
        _mode, (lk2, _ln2), (hk2, _hn2) = frame
        bounded = lk2 != "up" and hk2 != "uf"
        if akind in ("sum", "mean"):
            if bounded:
                # direct per-window summation: a prefix-sum DIFFERENCE
                # carries the magnitude of the running total (~1e-10 abs
                # error at 10k rows) and flips rounded 4th digits vs the
                # oracle; small bounded windows sum exactly
                ssum = np.zeros(n)
                for j in np.flatnonzero(cnt > 0):
                    ssum[j] = np.sum(vz[loc[j]:hic[j]])
            else:
                csum = np.concatenate([[0.0], np.cumsum(vz)])
                ssum = csum[hic] - csum[loc]
            out = np.where(cnt > 0, ssum, np.nan)
            return out / np.maximum(cnt, 1) if akind == "mean" else out
        # min/max over explicit ROWS frames: per-segment numpy slices —
        # exact; windows are small by contract (bounded frame offsets)
        fn = np.fmin if akind == "min" else np.fmax
        out = np.full(n, np.nan)
        nonempty = loc < hic
        idxs = np.flatnonzero(nonempty)
        for j in idxs:
            w = v[loc[j]:hic[j]]
            w = w[~np.isnan(w)]
            if w.size:
                out[j] = fn.reduce(w)
        return out

    if fnode.kind == "call" and fnode.value == "row_number":
        return (pos + 1).astype(np.int64)
    if fnode.kind == "call" and fnode.value in ("rank", "dense_rank"):
        if not has_order:
            raise ValueError(f"{fnode.value.upper()}() requires ORDER BY")
        if fnode.value == "rank":
            return (peer_start - starts_rep + 1).astype(np.int64)
        cs = np.cumsum(new_peer)
        return (cs - cs[starts_rep] + 1).astype(np.int64)
    if fnode.kind == "call" and fnode.value == "percent_rank":
        if not has_order:
            raise ValueError("PERCENT_RANK() requires ORDER BY")
        rank0 = (peer_start - starts_rep).astype(np.float64)
        return rank0 / np.maximum(sizes_rep - 1, 1)  # 1-row partition -> 0.0
    if fnode.kind == "call" and fnode.value == "cume_dist":
        if not has_order:
            raise ValueError("CUME_DIST() requires ORDER BY")
        return (peer_end - starts_rep + 1) / sizes_rep.astype(np.float64)
    if fnode.kind == "call" and fnode.value == "ntile":
        k = int(_const_value(fnode.args[0]))
        if k <= 0:
            raise ValueError("NTILE bucket count must be positive")
        # SQL NTILE: first (size % k) buckets get one extra row
        quo = sizes_rep // k
        rem = sizes_rep % k
        boundary = rem * (quo + 1)
        small = pos < boundary
        bucket = np.where(
            small,
            pos // np.maximum(quo + 1, 1),
            rem + np.where(quo > 0, (pos - boundary) // np.maximum(quo, 1), 0))
        return (bucket + 1).astype(np.int64)
    if fnode.kind == "call" and fnode.value.endswith("#in"):
        # IGNORE NULLS navigation: per-row pick of the j-th non-null value
        # via one validity prefix-sum + one flatnonzero index table — no
        # per-row scan. Default frame only (explicit frames raise above).
        if frame is not None:
            raise ValueError("IGNORE NULLS with an explicit frame "
                             "is unsupported")
        base = fnode.value[:-3]
        colnode = fnode.args[0]
        if colnode.kind != "col":
            raise ValueError("IGNORE NULLS supports plain columns only")
        if not has_order:
            raise ValueError(f"{base.upper()} requires ORDER BY")
        col = t[colnode.value]
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        ccnt = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        validpos = np.flatnonzero(valid)
        i = np.arange(n, dtype=np.int64)
        end_rep = starts_rep + sizes_rep - 1
        if base == "lag":
            k = 1 if fnode.args[1] is None else int(_const_value(
                fnode.args[1]))
            ordv = ccnt[i] - k                      # k-th valid before row
            ok = ordv >= ccnt[starts_rep]
        elif base == "lead":
            k = 1 if fnode.args[1] is None else int(_const_value(
                fnode.args[1]))
            ordv = ccnt[i + 1] + k - 1              # k-th valid after row
            ok = ordv < ccnt[end_rep + 1]
        elif base == "first_value":
            ordv = ccnt[starts_rep]
            ok = ordv < ccnt[peer_end + 1]
        elif base == "last_value":
            ordv = ccnt[peer_end + 1] - 1
            ok = ordv >= ccnt[starts_rep]
        else:  # nth_value
            k = int(_const_value(fnode.args[1]))
            ordv = ccnt[starts_rep] + (k - 1)
            ok = ordv < ccnt[peer_end + 1]
        if validpos.size == 0:
            ok = np.zeros(n, bool)
            idx = np.zeros(n, np.int64)
        else:
            idx = validpos[np.clip(ordv, 0, validpos.size - 1)]
        fill = None
        if base in ("lag", "lead") and len(fnode.args) > 2 \
                and fnode.args[2] is not None:
            fill = _const_value(fnode.args[2])
        return _fill_bad(_pick(col, idx, ~ok), ~ok, fill)
    if fnode.kind == "call" and fnode.value in ("first_value", "last_value"):
        (colnode,) = fnode.args
        if colnode.kind != "col":
            raise ValueError("FIRST_VALUE/LAST_VALUE supports plain columns only")
        if not has_order:
            raise ValueError("FIRST_VALUE/LAST_VALUE requires ORDER BY")
        # default frame RANGE UNBOUNDED PRECEDING..CURRENT ROW: first is
        # the partition head, last is the current row's last peer
        idx = starts_rep if fnode.value == "first_value" else peer_end
        return _pick(t[colnode.value], idx)
    if fnode.kind == "call" and fnode.value == "nth_value":
        colnode, nn = fnode.args
        if colnode.kind != "col":
            raise ValueError("NTH_VALUE supports plain columns only")
        if not has_order:
            raise ValueError("NTH_VALUE requires ORDER BY")
        k = int(_const_value(nn))
        raw = starts_rep + (k - 1)
        # default frame UP..CURRENT-peers: NULL until the nth row enters
        return _pick(t[colnode.value], np.clip(raw, 0, max(n - 1, 0)),
                     raw > peer_end)
    if fnode.kind == "call" and fnode.value in ("lag", "lead"):
        colnode, offn, defn = fnode.args
        if colnode.kind != "col":
            raise ValueError("LAG/LEAD supports plain columns only")
        if not has_order:
            raise ValueError("LAG/LEAD requires ORDER BY")
        k = 1 if offn is None else int(_const_value(offn))
        i = np.arange(n, dtype=np.int64)
        if fnode.value == "lag":
            idx, bad = i - k, pos < k
        else:
            idx, bad = i + k, pos >= sizes_rep - k
        out = _pick(t[colnode.value], np.clip(idx, 0, max(n - 1, 0)), bad)
        return _fill_bad(out, bad, None if defn is None else _const_value(defn))
    if fnode.kind == "agg":
        akind, col = fnode.value
        if akind == "count_star":
            out = ((peer_end - starts_rep + 1) if has_order else sizes_rep)
            return out.astype(np.int64)
        if not isinstance(col, str):
            raise ValueError("windowed aggregates support plain columns only")
        v = _f64(t[col])
        valid = ~np.isnan(v)
        vz = np.where(valid, v, 0.0)
        if not has_order:  # unbounded frame: one value per partition
            cnt = np.add.reduceat(valid.astype(np.int64), starts)
            if akind == "count":
                return np.repeat(cnt, sizes).astype(np.int64)
            if akind in ("sum", "mean"):
                ssum = np.add.reduceat(vz, starts)
                agg = np.where(cnt > 0, ssum, np.nan)
                if akind == "mean":
                    agg = agg / np.maximum(cnt, 1)
                return np.repeat(agg, sizes)
            fn = np.fmin if akind == "min" else np.fmax
            return np.repeat(fn.reduceat(v, starts), sizes)
        # ORDER BY: running frame RANGE UNBOUNDED PRECEDING..CURRENT ROW
        # (peers included — SQL's default aggregate frame)
        hi = peer_end + 1
        ccnt = np.concatenate([[0], np.cumsum(valid.astype(np.int64))])
        cnt = ccnt[hi] - ccnt[starts_rep]
        if akind == "count":
            return cnt.astype(np.int64)
        if akind in ("sum", "mean"):
            csum = np.concatenate([[0.0], np.cumsum(vz)])
            ssum = csum[hi] - csum[starts_rep]
            out = np.where(cnt > 0, ssum, np.nan)
            return out / np.maximum(cnt, 1) if akind == "mean" else out
        fn = np.fmin if akind == "min" else np.fmax
        acc = np.empty(n)
        for s0, e0 in zip(starts, ends):  # vectorized accumulate per segment
            acc[s0:e0] = fn.accumulate(v[s0:e0])
        return acc[peer_end]
    raise ValueError(f"unsupported window function {fnode.kind}:{fnode.value}")


def _window_pass(ds, part_cols: list, order_spec: list, jobs: list):
    """One hash-partitioned pass computing every window column that shares
    a (PARTITION BY, ORDER BY) spec. Scale contract: all rows of ONE key
    hash to one partition (same as rank_within, ops/relational.py); an
    empty PARTITION BY is an inherent single-partition funnel — the SQL
    semantics demand a global view — and is documented as such."""
    from gdal_ray.ops.relational import (hash_partition_reduce, key_codes,
                                         sort_segments)

    ocols = [c for c, _ in order_spec]
    order = [(c, "descending" if d else "ascending") for c, d in order_spec]
    is_global = not part_cols

    def wpart(t: pa.Table) -> pa.Table:
        if is_global and "__wk" in t.column_names:
            t = t.drop_columns(["__wk"])
        t, starts = sort_segments(t, part_cols, order)
        n = len(t)
        ends = np.append(starts[1:], n).astype(np.int64)
        sizes = ends - starts
        starts_rep = np.repeat(starts, sizes)
        sizes_rep = np.repeat(sizes, sizes)
        pos = np.arange(n) - starts_rep
        ctx = {"n": n, "pos": pos, "sizes_rep": sizes_rep, "starts": starts,
               "ends": ends, "starts_rep": starts_rep, "sizes": sizes}
        if ocols:
            # peers share every ORDER BY value (NULLs are peers, as in SQL)
            oc = key_codes(t, ocols)
            new_peer = np.zeros(n, bool)
            new_peer[1:] = oc[1:] != oc[:-1]
            new_peer[starts] = True
            ctx["new_peer"] = new_peer
            ctx["peer_start"] = np.maximum.accumulate(
                np.where(new_peer, np.arange(n), 0))
            is_last = np.append(new_peer[1:], True)[:n]
            pe = np.where(is_last, np.arange(n), n)
            ctx["peer_end"] = np.minimum.accumulate(pe[::-1])[::-1]
            o1 = t[ocols[0]]
            if len(ocols) == 1 and (pa.types.is_timestamp(o1.type)
                                    or pa.types.is_integer(o1.type)
                                    or pa.types.is_floating(o1.type)):
                # numeric ORDER BY key for RANGE offset frames (DESC
                # negates so ascending searchsorted logic applies)
                if pa.types.is_timestamp(o1.type):
                    o1 = pc.cast(pc.cast(o1, pa.timestamp("us")), pa.int64())
                ov1 = _f64(o1)
                ctx["ov_num"] = -ov1 if order_spec[0][1] else ov1
        for nm, fnode, frame in jobs:
            col = _eval_window_fn(fnode, t, ctx, frame)
            if isinstance(col, np.ndarray):
                col = pa.array(col, from_pandas=True)  # NaN reads as NULL
            t = (t.set_column(t.column_names.index(nm), nm, col)
                 if nm in t.column_names else t.append_column(nm, col))
        return t

    if is_global:
        ds = ds.map_batches(
            lambda t: t.append_column("__wk", pa.array(np.zeros(len(t), np.int64))),
            batch_format="pyarrow", batch_size=None)
        return hash_partition_reduce(ds, ["__wk"], wpart, num_parts=1)
    return hash_partition_reduce(ds, part_cols, wpart)


def _mentions_fid(x) -> bool:
    """Walk parse-tree fragments for a FID column reference (the OGR FID
    special field, ogr/ogrfeaturequery.cpp:37-38): its presence switches
    the scan to the fid-synthesizing read."""
    if isinstance(x, Node):
        if x.kind == "col" and x.value == "FID":
            return True
        # agg nodes carry their target column in value=(kind, col)
        if isinstance(x.value, (list, tuple)) and _mentions_fid(x.value):
            return True
        return any(_mentions_fid(a) for a in x.args)
    if isinstance(x, (list, tuple)):
        return any(_mentions_fid(a) for a in x)
    return x == "FID"


def _execute_group_sets(q: Select, sf_dir: str):
    """ROLLUP / CUBE / GROUPING SETS: one full GROUP BY pipeline per
    grouping set (each a normal distributed groupby_agg), rolled-up key
    columns padded with typed nulls, results unioned. N_sets scans of the
    source — the trade for keeping every set a plain one-shuffle
    aggregate (a ROLLUP of k keys is k+1 small aggregates, not a wide
    re-shuffle of the first one)."""
    from gdal_ray.ops.relational import topk, union_all

    names = _out_names(q)
    per_set = []      # (out, present_names, padded_names)
    col_items = {}    # out_name -> source col for plain group-col items
    for idx, (item, alias) in enumerate(q.items):
        if item.kind == "col" and item.value in q.group_by:
            col_items[_item_name(item, alias, idx)] = item.value
    def _subst_grouping(x, S):
        # GROUPING(a, b) -> literal bitmask for this set (leftmost arg =
        # most significant bit; 1 = rolled up)
        if not isinstance(x, Node):
            return x
        if x.kind == "call" and x.value == "grouping":
            bits = 0
            for a in x.args:
                bits = bits * 2 + (0 if a.value in S else 1)
            return Node("lit", bits)
        val = (_subst_grouping(x.value, S)
               if isinstance(x.value, Node) else x.value)
        return Node(x.kind, val, tuple(
            _subst_grouping(a, S) if isinstance(a, Node)
            else (tuple(_subst_grouping(e, S) if isinstance(e, Node) else e
                        for e in a) if isinstance(a, tuple) else a)
            for a in x.args))

    def _has_grouping(x):
        if not isinstance(x, Node):
            return False
        if x.kind == "call" and x.value == "grouping":
            return True
        return any(_has_grouping(a) or (isinstance(a, tuple) and any(
            _has_grouping(e) for e in a)) for a in x.args)

    for S in q.group_sets:
        keep, dropped = [], []
        for idx, (item, alias) in enumerate(q.items):
            nm = _item_name(item, alias, idx)
            if nm in col_items and col_items[nm] not in S:
                dropped.append(nm)
            elif _has_grouping(item):
                # pin the output name: the substituted literal would
                # otherwise render a different default name per set
                keep.append((_subst_grouping(item, S), alias or nm))
            else:
                keep.append((item, alias))
        having_S = (_subst_grouping(q.having, S)
                    if isinstance(q.having, Node) else q.having)
        qS = Select(keep, q.distinct, q.table, q.where, list(S), [], None,
                    joins=q.joins, having=having_S)
        o = _execute_core(qS, sf_dir, [], None, None)
        per_set.append((o, [n for n in names if n not in dropped], dropped))
    # types for padded key columns, from any set that groups on them
    types = {}
    for o, present, _ in per_set:
        sch = o.schema()
        for n, typ in zip(sch.names, sch.types):
            types.setdefault(n, typ)
    outs = []
    for o, present, dropped in per_set:
        if dropped:
            o = o.map_batches(
                lambda t, dr=list(dropped), ns=list(names):
                    pa.table({n: (t[n] if n in t.column_names
                                  else pa.nulls(len(t), types[n]))
                              for n in ns}),
                batch_format="pyarrow", batch_size=None)
        else:
            o = o.map_batches(lambda t, ns=list(names): t.select(ns),
                              batch_format="pyarrow", batch_size=None)
        outs.append(o)
    out = union_all(*outs)
    want = q.limit + (q.offset or 0) if q.limit is not None else None
    if q.order_by:
        out, keys_, drop_ = _order_keys(out, q.order_by)
        if want is not None:
            out = topk(out, keys_, want)
        else:
            out = out.sort([c for c, _ in keys_],
                           descending=[d for _, d in keys_])
        out = _drop_cols(out, drop_)
    elif want is not None:
        out = out.limit(want)
    if q.offset:
        out = _apply_offset(out, q.offset)
    return out


def _canon_name(c: str, key_alias: dict) -> str:
    seen = set()
    while c in key_alias and c not in seen:
        seen.add(c)
        c = key_alias[c]
    return c


def _canon_cols(q: Select, key_alias: dict, order_by=None):
    """Rewrite references to inner-join-dropped key columns to the
    surviving (coalesced) name — in this scope only (sub-Select scopes
    keep their own names; their correlated refs canonicalize at
    decorrelation time). Unaliased top-level col items keep their
    original output name via a synthesized alias."""

    def rw(n):
        if not isinstance(n, Node):
            return n
        if n.kind == "col":
            return Node("col", _canon_name(n.value, key_alias))
        if n.kind in ("exists_sub", "scalar_sub"):
            return n
        if n.kind == "in_sub":
            return Node("in_sub", n.value, (rw(n.args[0]), n.args[1]))
        if n.kind == "agg":
            k_, c = n.value

            def canon(e):
                return (_canon_name(e, key_alias) if isinstance(e, str)
                        else rw(e))

            c = (tuple(canon(e) for e in c) if isinstance(c, tuple)
                 else canon(c) if c is not None else None)
            return Node("agg", (k_, c), n.args)
        value = n.value
        if isinstance(value, Node):
            value = rw(value)
        elif isinstance(value, tuple):
            value = tuple(rw(x) if isinstance(x, Node) else x for x in value)
        args = tuple(
            rw(a) if isinstance(a, Node)
            else tuple(rw(x) if isinstance(x, Node) else x for x in a)
            if isinstance(a, tuple) else a
            for a in n.args)
        return Node(n.kind, value, args)

    new_items = []
    for item, alias in q.items:
        new_item = rw(item)
        if (alias is None and isinstance(item, Node) and item.kind == "col"
                and new_item.value != item.value):
            alias = item.value
        new_items.append((new_item, alias))
    q.items = new_items
    q.where = rw(q.where) if q.where is not None else None
    q.having = rw(q.having) if q.having is not None else None
    q.qualify = rw(q.qualify) if q.qualify is not None else None
    q.group_by = [(_canon_name(g, key_alias) if isinstance(g, str)
                   else rw(g)) for g in q.group_by]
    # ORDER BY: rewrite expression entries; plain strings are output
    # aliases or column names of the result table — leave them
    q.order_by = [(rw(c) if isinstance(c, Node) else c, d)
                  for c, d in (q.order_by or [])]
    return [(rw(c) if isinstance(c, Node) else c, d)
            for c, d in (order_by or [])]


# ---------------------------------------------------------------------------
# typed-empty sentinel: Ray 2.49 loses the schema of an all-empty pipeline
# (every block is 0 rows -> pa.table({})). execute() unions one 0-row block
# with the statically-inferred output schema onto the final dataset, so an
# empty result still reports its column names/types (SQL semantics; the
# oracle comparison needs the names even for 0 rows).
# ---------------------------------------------------------------------------

def _agg_out_type(kind: str, col, E: pa.Table):
    if kind in ("count_star", "count", "count_distinct"):
        return pa.int64()
    if kind in ("mean", "std", "skew", "kurt", "kurt_pop", "product",
                "cov_samp", "cov_pop", "cov_sum", "entropy"):
        return pa.float64()
    if kind == "string_agg":
        return pa.string()  # the reducer writes VARCHAR text of any input
    if isinstance(col, Node):
        t = _expr_type(col, E)
    elif isinstance(col, str) and col in E.column_names:
        t = E[col].type
    else:
        t = pa.float64()
    if kind == "sum" and pa.types.is_integer(t):
        return pa.int64()  # Arrow group_by sum widens ints
    if kind == "array_agg":
        return pa.list_(t)
    return t


def _expr_type(node: Node, E: pa.Table):
    """Output type of an expression, inferred by EVALUATING it on the
    0-row typed table E (pyarrow kernels are type-deterministic); agg
    subtrees are replaced by typed placeholder columns first."""
    repl: dict = {}

    def strip(n):
        if not isinstance(n, Node):
            return n
        if n.kind == "agg":
            k_, c = n.value
            nm = f"__ty{len(repl)}"
            repl[nm] = _agg_out_type(k_, c, E)
            return Node("col", nm)
        if n.kind == "unnest":
            nm = f"__ty{len(repl)}"
            if n.value is None:
                ty = _expr_type(n.args[0], E)
            else:
                ty = (E[n.value].type if n.value in E.column_names
                      else pa.float64())
            repl[nm] = (ty.value_type
                        if (pa.types.is_list(ty) or pa.types.is_large_list(ty)
                            or pa.types.is_fixed_size_list(ty))
                        else pa.float64())
            return Node("col", nm)
        return Node(n.kind, n.value, tuple(
            strip(a) if isinstance(a, Node)
            else tuple(strip(x) if isinstance(x, Node) else x for x in a)
            if isinstance(a, tuple) else a
            for a in n.args))

    E2 = E
    n2 = strip(node)
    for nm, ty in repl.items():
        E2 = E2.append_column(nm, pa.chunked_array([pa.array([], ty)]))
    v = eval_expr(n2, E2)
    return _type_of(v)


def _empty_input_table(q: Select, sf_dir: str) -> pa.Table:
    """0-row typed table with q's FROM + JOIN columns (right join keys
    dropped, matching pyarrow join coalescing)."""
    import pyarrow.parquet as pq

    from gdal_ray.util import sf_path

    def base(tref):
        if isinstance(tref, Select):
            return _typed_empty_select(tref, sf_dir)
        src = _registry_get(tref)
        if src is not None:
            if isinstance(src, pa.Table):
                return src.schema.empty_table()
            if isinstance(src, str):
                return pq.read_schema(src).empty_table()
            sch = src.schema()
            return pa.schema(
                [pa.field(n, t) for n, t in zip(sch.names, sch.types)]
            ).empty_table()
        return pq.read_schema(sf_path(sf_dir, tref)).empty_table()

    E = base(q.table)
    cols = {c: E[c] for c in E.column_names}
    for j in (q.joins or []):
        R = base(j.table)
        rks = set()
        for jl, jr in [(j.left_key, j.right_key)] + list(j.extra_pairs or []):
            rks.add(jr if jr in R.column_names else jl)
        for c in R.column_names:
            if c not in rks and c not in cols:
                cols[c] = R[c]
    return pa.table(cols)


def _typed_empty_select(q: Select, sf_dir: str) -> pa.Table:
    """0-row typed table matching q's OUTPUT schema."""
    E = _empty_input_table(q, sf_dir)
    cols = {}
    for idx, (item, alias) in enumerate(q.items):
        if isinstance(item, Node) and item.kind == "star":
            if not item.value:
                return E
            excl, repl = item.value
            rmap = {nm: e for e, nm in repl}
            out = {}
            for c in E.column_names:
                if c in excl:
                    continue
                out[c] = (pa.chunked_array(
                    [pa.array([], _expr_type(rmap[c], E))])
                    if c in rmap else E[c])
            return pa.table(out)
        name = _item_name(item, alias, idx)
        if item.kind == "col" and item.value in E.column_names:
            cols[name] = E[item.value]
        else:
            cols[name] = pa.chunked_array([pa.array([], _expr_type(item, E))])
    return pa.table(cols)


def _all_col_refs(x, acc: set) -> bool:
    """Collect EVERY column name an expression tree might touch —
    including inside nested subquery scopes (over-collection is safe for
    pruning: the set is intersected with the table schema). Returns False
    when pruning must be disabled (SELECT * or a special field)."""
    ok = True
    if isinstance(x, Select):
        for item, _ in x.items:
            ok &= _all_col_refs(item, acc)
        ok &= _all_col_refs(x.where, acc)
        ok &= _all_col_refs(x.having, acc)
        ok &= _all_col_refs(x.qualify, acc)
        for g in x.group_by:
            if isinstance(g, str):
                acc.add(g)
            else:
                ok &= _all_col_refs(g, acc)
        for c, _ in (x.order_by or []):
            if isinstance(c, str):
                acc.add(c)
            else:
                ok &= _all_col_refs(c, acc)
        for j in (x.joins or []):
            acc.add(j.left_key)
            acc.add(j.right_key)
            for jl, jr in (j.extra_pairs or []):
                acc.add(jl)
                acc.add(jr)
            if isinstance(j.table, Select):
                ok &= _all_col_refs(j.table, acc)
        if isinstance(x.table, Select):
            ok &= _all_col_refs(x.table, acc)
        return ok
    if isinstance(x, Node):
        if x.kind == "star":
            return False
        if x.kind == "col":
            if x.value in _SPECIAL_FIELDS:
                return False  # special fields read geometry/style columns
            acc.add(x.value)
            return True
        if x.kind == "unnest":
            if x.value is None:
                ok &= _all_col_refs(x.args[0], acc)
            else:
                acc.add(x.value)
            return ok
        if x.kind == "agg":
            k_, c = x.value
            for e in (c if isinstance(c, tuple) else (c,)):
                if isinstance(e, str):
                    acc.add(e)
                elif isinstance(e, Node):
                    ok &= _all_col_refs(e, acc)
            if k_ == "string_agg":  # ORDER BY column rides in args[1]
                acc.add(x.args[1].value)
            if k_ in ("arg_max", "arg_min", "array_agg"):
                # order column rides in args[0]
                acc.add(x.args[0].value)
            return ok
        if x.kind == "exists_sub":
            # EXISTS(SELECT * ...): the conventional star projects nothing
            # — only the sub's predicates (which carry any correlated
            # outer references) matter for pruning
            sub = x.args[0]
            ok &= _all_col_refs(sub.where, acc)
            ok &= _all_col_refs(sub.having, acc)
            for j in (sub.joins or []):
                acc.add(j.left_key)
                acc.add(j.right_key)
            if isinstance(sub.table, Select):
                ok &= _all_col_refs(sub.table, acc)
            return ok
        if isinstance(x.value, (Node, tuple, list, Select)):
            ok &= _all_col_refs(x.value, acc)
        ok &= _all_col_refs(x.args, acc)
        return ok
    if isinstance(x, (tuple, list)):
        for i in x:
            ok &= _all_col_refs(i, acc)
    return ok


def _pruned_columns(q: Select, order_by, sf_dir: str) -> list | None:
    """Column list for the FROM-table read (prune at the read: only
    referenced columns leave storage), or None when pruning is unsafe
    (SELECT *, special fields, or nothing resolvable)."""
    acc: set = set()
    if not _all_col_refs(q, acc):
        return None
    for c, _ in (order_by or []):
        if isinstance(c, str):
            acc.add(c)
        elif not _all_col_refs(c, acc):
            return None
    from gdal_ray.util import sf_path

    schema_cols = list(_parquet_cols(sf_path(sf_dir, q.table)))
    cols = [c for c in schema_cols if c in acc]
    # a pure COUNT(*) references nothing: read the narrowest single
    # column (row count still needs one column off disk)
    return cols or [schema_cols[0]]


def _lit_for_field(v, ftype):
    """Coerce a SQL literal to the parquet field's type family for a
    dataset-expression comparison (the scanner does not apply SQL's
    implicit temporal coercion). None = not coercible, skip pushdown."""
    import datetime as _dt

    if v is None:
        return None
    if pa.types.is_timestamp(ftype):
        if isinstance(v, _dt.datetime):
            return v
        if isinstance(v, _dt.date):
            return _dt.datetime(v.year, v.month, v.day)
        if isinstance(v, str):
            try:
                return _dt.datetime.fromisoformat(v)
            except ValueError:
                return None
        return None
    if pa.types.is_date(ftype):
        if isinstance(v, _dt.datetime):
            return v.date()
        if isinstance(v, _dt.date):
            return v
        if isinstance(v, str):
            try:
                return _dt.date.fromisoformat(v)
            except ValueError:
                return None
        return None
    if isinstance(v, (int, float)) and (pa.types.is_integer(ftype)
                                        or pa.types.is_floating(ftype)):
        return v
    if isinstance(v, str) and pa.types.is_string(ftype):
        return v
    return None


def _pushdown_filter(q: Select, sf_dir: str):
    """pyarrow dataset expression for the WHERE conjuncts that name only
    FROM-table columns and literals (col CMP lit / BETWEEN / IN) — pushed
    into read_parquet so row groups prune at the scan. Advisory only: the
    full WHERE still evaluates after the read (idempotent conjuncts)."""
    if q.where is None or isinstance(q.table, Select) \
            or _registry_get(q.table) is not None:
        return None
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    from gdal_ray.util import sf_path

    schema = pq.read_schema(sf_path(sf_dir, q.table))
    types = {f.name: f.type for f in schema}

    def litval(n):
        """Literal value of a constant expression (folds DATE ± INTERVAL
        via eval on an empty table); None when not constant."""
        if n.kind == "lit":
            return n.value
        acc: set = set()
        _refed_cols(n, acc)
        if acc or _has_sub_nodes(n):
            return None
        try:
            v = eval_expr(n, pa.table({}))
        except Exception:
            return None
        return v.as_py() if isinstance(v, pa.Scalar) else None

    def conv(c):
        if c.kind == "bin" and c.value in ("=", "<>", "<", "<=", ">", ">="):
            a, b = c.args
            op = c.value
            if b.kind == "col" and a.kind != "col":
                a, b = b, a
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            if a.kind != "col" or a.value not in types:
                return None
            bv = litval(b)
            if bv is None:
                return None
            v = _lit_for_field(bv, types[a.value])
            if v is None:
                return None
            f = pds.field(a.value)
            return {"=": f == v, "<>": f != v, "<": f < v, "<=": f <= v,
                    ">": f > v, ">=": f >= v}[op]
        if c.kind == "between":
            x, lo, hi = c.args
            if x.kind != "col" or x.value not in types:
                return None
            lov, hiv = litval(lo), litval(hi)
            if lov is None or hiv is None:
                return None
            vlo = _lit_for_field(lov, types[x.value])
            vhi = _lit_for_field(hiv, types[x.value])
            if vlo is None or vhi is None:
                return None
            f = pds.field(x.value)
            return (f >= vlo) & (f <= vhi)
        if c.kind == "in":
            x, vals = c.args
            if x.kind != "col" or x.value not in types:
                return None
            out = []
            for vn in vals:
                if vn.kind != "lit":
                    return None
                v = _lit_for_field(vn.value, types[x.value])
                if v is None:
                    return None
                out.append(v)
            return pds.field(x.value).isin(out)
        return None

    exprs = [e for e in map(conv, _split_conjuncts(q.where))
             if e is not None]
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = out & e
    return out


def _has_sub_nodes(x) -> bool:
    if isinstance(x, Node):
        if x.kind in ("in_sub", "exists_sub", "scalar_sub"):
            return True
        return (_has_sub_nodes(x.value) if isinstance(x.value, (Node, tuple, list)) else False) or _has_sub_nodes(x.args)
    if isinstance(x, (tuple, list)):
        return any(_has_sub_nodes(i) for i in x)
    return False


def _decorrelate_where(ds, q: Select, sf_dir: str, key_alias: dict):
    """Rewrite correlated subqueries left in q.where into distributed
    joins (classic decorrelation; only equality correlation):

    - [NOT] EXISTS (SELECT ... WHERE ok = ik AND local)  ->  hash
      semi/anti join of the outer stream against the locally-filtered
      inner keys (semi_join_hash — both sides shuffle, neither
      broadcasts).
    - expr IN (SELECT ic FROM ... WHERE ok = ik)         ->  same semi
      join with (expr-col, ic) as an extra key pair.
    - cmp (SELECT AGG(x) FROM t WHERE ok = ik AND local) ->  GROUP BY ik
      aggregate of the inner, broadcast LEFT-joined onto the outer; the
      scalar node becomes a plain column reference (missing groups join
      to NULL, so the comparison is NULL -> filtered, SQL semantics).

    Returns the possibly-joined ds and q with q.where rewritten."""
    import copy

    from gdal_ray.ops.relational import broadcast_join, semi_join_hash
    from gdal_ray.util import to_arrow

    outer_cols = _avail_cols(q, sf_dir)

    def canon(c):  # physical name after inner-join key coalescing
        return _canon_name(c, key_alias)

    semi_specs = []    # (anti, sub2: Select, outer_keys)
    scalar_specs = []  # (hidden, sub2: Select, outer_keys, inner_out_keys)
    exagg_specs = []   # (sub2: Select, outer_keys, inner_out_keys)

    kept = []
    for c in _split_conjuncts(q.where):
        node, neg = c, False
        if (node.kind == "un" and node.args
                and isinstance(node.args[0], Node)
                and node.args[0].kind in ("exists_sub", "in_sub")):
            neg, node = True, node.args[0]
        if node.kind == "exists_sub" and _is_correlated(node.args[0], sf_dir):
            sub = copy.deepcopy(node.args[0])
            pairs, nonequi, local = _extract_correlation(
                sub, outer_cols, sf_dir, allow_nonequi=True)
            if not pairs:
                raise ValueError("EXISTS correlation has no equality key")
            if nonequi:
                # mixed-correlation EXISTS (TPC-H q21 shape):
                #   EXISTS(... WHERE ik = ok AND ik2 <> ok2 AND local)
                # decorrelates to a grouped count comparison: per equi
                # key, n = COUNT(DISTINCT ik2) and m = MIN(ik2) of the
                # locally-filtered inner; then
                #   EXISTS     <=> n >= 2 OR (n = 1 AND m <> ok2)
                #   NOT EXISTS <=> n IS NULL OR n = 0 OR (n = 1 AND m = ok2)
                # (plus an ok2-null guard for SQL three-valued semantics).
                if len(nonequi) != 1:
                    raise ValueError(
                        "EXISTS supports at most one <> correlation")
                ok2, ik2 = nonequi[0]
                i = len(exagg_specs)
                ncol, mcol = f"__exn{i}", f"__exm{i}"
                knames = [f"__exk{i}_{j}" for j in range(len(pairs))]
                sub2 = Select(
                    [(Node("col", ik), kn)
                     for (ok, ik), kn in zip(pairs, knames)]
                    + [(Node("agg", ("count_distinct", ik2)), ncol),
                       (Node("agg", ("min", ik2)), mcol)],
                    False, sub.table, local,
                    [ik for _, ik in pairs], [], None, joins=sub.joins)
                exagg_specs.append(
                    (sub2, [canon(ok) for ok, _ in pairs], knames))
                n_ref = Node("col", ncol)
                m_ref = Node("col", mcol)
                o_ref = Node("col", canon(ok2))
                one_neq = Node("bin", "and", (
                    Node("bin", "=", (n_ref, Node("lit", 1))),
                    Node("bin", "<>", (m_ref, o_ref))))
                if not neg:
                    pred = Node("bin", "and", (
                        Node("isnull", False, (o_ref,)),
                        Node("bin", "or", (
                            Node("bin", ">=", (n_ref, Node("lit", 2))),
                            one_neq))))
                else:
                    one_eq = Node("bin", "and", (
                        Node("bin", "=", (n_ref, Node("lit", 1))),
                        Node("bin", "=", (m_ref, o_ref))))
                    pred = Node("bin", "or", (Node("bin", "or", (
                        Node("isnull", True, (o_ref,)),
                        Node("isnull", True, (n_ref,)))),
                        Node("bin", "or", (
                            Node("bin", "=", (n_ref, Node("lit", 0))),
                            one_eq))))
                kept.append(pred)
                continue
            sub2 = Select([(Node("col", ik), canon(ok)) for ok, ik in pairs],
                          False, sub.table, local, [], [], None,
                          joins=sub.joins)
            semi_specs.append((neg, sub2, [canon(ok) for ok, _ in pairs]))
            continue
        if node.kind == "in_sub" and _is_correlated(node.args[1], sf_dir):
            left, sub = node.args
            if left.kind != "col":
                raise ValueError("correlated IN: left side must be a column")
            sub = copy.deepcopy(sub)
            item0, _a0 = sub.items[0]
            if item0.kind != "col":
                raise ValueError("correlated IN: subquery item must be a column")
            pairs, local = _extract_correlation(sub, outer_cols, sf_dir)
            pairs = [(left.value, item0.value)] + pairs
            sub2 = Select([(Node("col", ik), canon(ok)) for ok, ik in pairs],
                          False, sub.table, local, [], [], None,
                          joins=sub.joins)
            semi_specs.append((neg, sub2, [canon(ok) for ok, _ in pairs]))
            continue
        kept.append(c)

    def rw(n):
        if not isinstance(n, Node):
            return n
        if n.kind == "scalar_sub" and _is_correlated(n.args[0], sf_dir):
            sub = copy.deepcopy(n.args[0])
            if len(sub.items) != 1:
                raise ValueError("scalar subquery must have one item")
            item0, _a0 = sub.items[0]
            pairs, local = _extract_correlation(sub, outer_cols, sf_dir)
            if not pairs:
                raise ValueError("scalar-subquery correlation has no "
                                 "equality key")
            i = len(scalar_specs)
            hid = f"__scs{i}"
            key_names = [f"__sck{i}_{j}" for j in range(len(pairs))]
            sub2 = Select([(Node("col", ik), kn)
                           for (ok, ik), kn in zip(pairs, key_names)]
                          + [(item0, hid)],
                          False, sub.table, local,
                          [ik for _, ik in pairs], [], None,
                          joins=sub.joins)
            scalar_specs.append((hid, sub2, [canon(ok) for ok, _ in pairs],
                                 key_names))
            return Node("col", hid)
        new_args = tuple(
            rw(a) if isinstance(a, Node)
            else tuple(rw(x) for x in a) if isinstance(a, tuple)
            else a
            for a in n.args)
        return Node(n.kind, n.value, new_args)

    kept = [rw(c) for c in kept]
    q.where = _and_fold(kept)

    # correlated scalar subqueries in SELECT items: same grouped
    # decorrelation; a COUNT subquery additionally coalesces to 0 for
    # outer rows with no matching group (DuckDB/standard semantics —
    # in WHERE the NULL comparison already filters correctly)
    def rw_item(n):
        if not isinstance(n, Node):
            return n
        if n.kind == "exists_sub" and _is_correlated(n.args[0], sf_dir):
            # [NOT] EXISTS as a SELECT-item boolean: rewrite to a grouped
            # COUNT(*) scalar subquery compared against 0
            sub = copy.deepcopy(n.args[0])
            sub.items = [(Node("agg", ("count_star", None)), None)]
            cnt = rw_item(Node("scalar_sub", None, (sub,)))
            return Node("bin", ">", (cnt, Node("lit", 0)))
        if n.kind == "scalar_sub" and _is_correlated(n.args[0], sf_dir):
            sub = copy.deepcopy(n.args[0])
            if len(sub.items) != 1:
                raise ValueError("scalar subquery must have one item")
            item0, _a0 = sub.items[0]
            pairs, local = _extract_correlation(sub, outer_cols, sf_dir)
            if not pairs:
                raise ValueError("scalar-subquery correlation has no "
                                 "equality key")
            i = len(scalar_specs)
            hid = f"__scs{i}"
            key_names = [f"__sck{i}_{j}" for j in range(len(pairs))]
            sub2 = Select([(Node("col", ik), kn)
                           for (ok, ik), kn in zip(pairs, key_names)]
                          + [(item0, hid)],
                          False, sub.table, local,
                          [ik for _, ik in pairs], [], None,
                          joins=sub.joins)
            scalar_specs.append((hid, sub2, [canon(ok) for ok, _ in pairs],
                                 key_names))
            ref = Node("col", hid)
            if (isinstance(item0, Node) and item0.kind == "agg"
                    and item0.value[0] in ("count_star", "count",
                                           "count_distinct")):
                ref = Node("call", "coalesce", (ref, Node("lit", 0)))
            return ref
        def rec(a):
            if isinstance(a, Node):
                return rw_item(a)
            if isinstance(a, tuple):
                return tuple(rec(x) for x in a)
            return a

        val = n.value
        if isinstance(val, Node):
            val = rw_item(val)
        elif isinstance(val, tuple):
            val = tuple(rec(x) for x in val)
        return Node(n.kind, val, tuple(rec(a) for a in n.args))

    q.items = [(rw_item(it) if isinstance(it, Node) else it, al)
               for it, al in q.items]

    def _left_join_inner(ds, inner: pa.Table, okeys, ikeys):
        """Grouped decorrelation results join back LEFT onto the outer
        stream: broadcast when dimension-sized, co-partitioned hash join
        when the group count itself is big (correlated aggregates keyed
        by a fact-table column at scale)."""
        if inner.num_rows > _BROADCAST_JOIN_MAX_ROWS:
            import ray.data as _rd

            from gdal_ray.ops.relational import join_hash

            return join_hash(ds, _rd.from_arrow(inner.to_batches()),
                             okeys, right_keys=ikeys, how="left")
        return broadcast_join(ds, inner, keys=okeys, right_keys=ikeys,
                              how="left")

    for hid, sub2, okeys, ikeys in scalar_specs:
        inner = to_arrow(_execute_core(
            _resolve_subqueries(sub2, sf_dir), sf_dir, [], None, None))
        ds = _left_join_inner(ds, inner, okeys, ikeys)
    for sub2, okeys, ikeys in exagg_specs:
        inner = to_arrow(_execute_core(
            _resolve_subqueries(sub2, sf_dir), sf_dir, [], None, None))
        ds = _left_join_inner(ds, inner, okeys, ikeys)
    for anti, sub2, okeys in semi_specs:
        inner_ds = _execute_core(
            _resolve_subqueries(sub2, sf_dir), sf_dir, [], None, None)
        ds = semi_join_hash(ds, inner_ds, okeys, anti=anti)
    return ds, q


def _attach_quantiles(out, ds, q: Select, qt_specs):
    """QUANTILE_DISC aggregates: non-algebraic, so they bypass the
    combiner — one extra hash shuffle by the group keys through
    ops.sketch.groupby_quantiles (exact, DuckDB quantile_disc
    convention), then a broadcast LEFT join back onto the algebraic
    aggregate (grouped results are the small side by construction; an
    all-null-value group joins to NULL, SQL semantics). The input ds is
    traversed a second time — quantiles need every row, not a partial."""
    import ray.data as rd

    from gdal_ray.ops.relational import broadcast_join
    from gdal_ray.ops.sketch import groupby_quantiles
    from gdal_ray.util import to_arrow

    keys = list(q.group_by)
    dsq = ds
    if not keys:
        dsq = ds.map_batches(
            lambda t: t.append_column(
                "__qk", pa.array(np.zeros(len(t), np.int8))),
            batch_format="pyarrow", batch_size=None)
        keys = ["__qk"]
    bycol: dict = {}
    bycol_cont: dict = {}
    sa_specs = []
    mode_specs = []
    ent_specs = []
    arg_specs = []
    aa_specs = []
    for name, col, qv in qt_specs:
        if isinstance(qv, tuple) and qv[0] == "string_agg":
            sa_specs.append((name, col, qv[1], qv[2]))
        elif isinstance(qv, tuple) and qv[0] == "mode":
            mode_specs.append((name, col))
        elif isinstance(qv, tuple) and qv[0] == "entropy":
            ent_specs.append((name, col))
        elif isinstance(qv, tuple) and qv[0] == "array_agg":
            aa_specs.append((name, col, qv[1]))
        elif isinstance(qv, tuple) and qv[0] in ("arg_max", "arg_min"):
            arg_specs.append((name, col, qv[1], qv[0] == "arg_max"))
        elif isinstance(qv, tuple) and qv[0] == "cont":
            bycol_cont.setdefault(col, []).append((name, qv[1]))
        else:
            bycol.setdefault(col, []).append((name, qv))
    for spec in mode_specs + arg_specs + aa_specs:
        from gdal_ray.ops.relational import (groupby_arg_extreme,
                                             groupby_array_agg,
                                             groupby_mode)

        is_list = False
        if len(spec) == 2:
            name, col = spec
            qt = to_arrow(groupby_mode(dsq, keys, col, out=name))
        elif len(spec) == 3:
            name, col, ocol = spec
            qt = to_arrow(groupby_array_agg(dsq, keys, col, ocol, out=name))
            is_list = True
        else:
            name, col, ocol, desc = spec
            qt = to_arrow(groupby_arg_extreme(dsq, keys, col, ocol,
                                              desc=desc, out=name))
        if is_list and q.group_by:
            # Acero hash join rejects nested payload columns — attach the
            # (small, grouped) list column via a broadcast dict lookup
            lookup = dict(zip(
                zip(*(qt[k].to_pylist() for k in q.group_by)),
                qt[name].to_pylist()))
            vtype = qt.schema.field(name).type

            def attach(t: pa.Table, lk=lookup, kl=list(q.group_by),
                       nm=name, ty=vtype) -> pa.Table:
                kcols = [t[k].to_pylist() for k in kl]
                vals = [lk.get(kv) for kv in zip(*kcols)]
                return t.append_column(nm, pa.array(vals, ty))

            out = out.map_batches(attach, batch_format="pyarrow",
                                  batch_size=None)
        elif q.group_by:
            out = broadcast_join(out, qt, keys=list(q.group_by), how="left")
        else:
            base = to_arrow(out)
            if qt.num_rows == len(base) and name in qt.column_names:
                v = qt[name]
            else:
                ty = (qt.schema.field(name).type
                      if name in qt.column_names else pa.float64())
                v = pa.nulls(len(base), ty)
            out = rd.from_arrow(base.append_column(name, v))
    for name, col in ent_specs:
        from gdal_ray.ops.relational import groupby_entropy

        qt = to_arrow(groupby_entropy(dsq, keys, col, out=name))
        if q.group_by:
            out = broadcast_join(out, qt, keys=list(q.group_by), how="left")
        else:
            base = to_arrow(out)
            v = qt[name] if qt.num_rows == len(base) else \
                pa.nulls(len(base), pa.float64())
            out = rd.from_arrow(base.append_column(name, v))
    for name, col, sep, ocol in sa_specs:
        from gdal_ray.ops.relational import groupby_string_agg

        qt = to_arrow(groupby_string_agg(dsq, keys, col, ocol,
                                         sep=sep, out=name))
        if q.group_by:
            out = broadcast_join(out, qt, keys=list(q.group_by), how="left")
        else:
            base = to_arrow(out)
            v = qt[name] if qt.num_rows == len(base) else \
                pa.nulls(len(base), pa.string())
            out = rd.from_arrow(base.append_column(name, v))
    for interp, colmap in ((False, bycol), (True, bycol_cont)):
        for col, entries in colmap.items():
            qs = [qv for _, qv in entries]
            qt = to_arrow(groupby_quantiles(dsq, keys, col, qs=qs,
                                            interpolate=interp))
            ren = {("q" + str(qv).replace(".", "_")): name
                   for name, qv in entries}
            qt = qt.rename_columns([ren.get(c, c) for c in qt.column_names])
            if q.group_by:
                out = broadcast_join(out, qt, keys=list(q.group_by),
                                     how="left")
            else:
                base = to_arrow(out)
                for name, _qv in entries:
                    v = qt[name] if qt.num_rows == len(base) else \
                        pa.nulls(len(base), pa.float64())
                    base = base.append_column(name, v)
                out = rd.from_arrow(base)
    return out


def _apply_asof_join(ds, j: Join, sf_dir: str, key_alias: dict, q: Select):
    """Plan one SQL ASOF [LEFT] JOIN onto ops.relational.asof_join: equi
    conjuncts become `by` keys (hash-partitioned; keyless falls to the
    range-partitioned path), the single inequality picks the on-column
    and direction, right columns rename to the left key names (asof_join
    matches by name), and a hidden match indicator implements the
    default INNER semantics (DuckDB drops unmatched left rows; ASOF LEFT
    JOIN keeps them)."""
    import ray.data as rd

    from gdal_ray.ops.relational import asof_join
    from gdal_ray.util import read_table, sf_path

    eq, (op, a, b) = j.asof_spec
    if isinstance(j.table, Select):
        right_ds = _execute_core(j.table, sf_dir, j.table.order_by,
                                 j.table.limit, j.table.offset)
        rcols = set(_out_names(j.table))
    else:
        src = _registry_get(j.table)
        if src is not None:
            right_ds = (rd.from_arrow(src) if isinstance(src, pa.Table)
                        else rd.read_parquet(src) if isinstance(src, str)
                        else src)
            rcols = set(_registry_cols(src))
        else:
            rcols = set(_parquet_cols(sf_path(sf_dir, j.table)))
            acc: set = set()
            rneed = None
            if _all_col_refs(q, acc):
                acc.update(x for pair in eq for x in pair)
                acc.update((a, b))
                rneed = [c for c in rcols if c in acc]
            right_ds = read_table(sf_dir, j.table, columns=rneed)

    def orient(x, y):
        """Return (left_col, right_col, swapped) for two (side, name)
        operands — qualifier-derived side marks first, column membership
        fallback. swapped means y is the left column."""
        (sx, nx), (sy, ny) = x, y
        if sx == "r" and sy != "r":
            return ny, nx, True
        if sy == "r" and sx != "r":
            return nx, ny, False
        if sx == "l" and sy != "l":
            return nx, ny, False
        if sy == "l" and sx != "l":
            return ny, nx, True
        if ny in rcols and nx not in rcols:
            return nx, ny, False
        if nx in rcols and ny not in rcols:
            return ny, nx, True
        raise ValueError(f"ASOF JOIN key {nx} = {ny}: ambiguous sides")

    by_pairs = [orient(x, y)[:2] for x, y in eq]
    lon, ron, swapped = orient(a, b)
    a_is_left = not swapped
    direction = ("backward" if (op == ">=") == a_is_left else "forward")
    by_pairs = [(_canon_name(lx, key_alias), rx) for lx, rx in by_pairs]
    lon = _canon_name(lon, key_alias)
    ren = {rx: lx for lx, rx in by_pairs}
    ren[ron] = lon

    def prep(t: pa.Table, ren=dict(ren)) -> pa.Table:
        t = t.rename_columns([ren.get(c, c) for c in t.column_names])
        return t.append_column(
            "__asof_m", pa.array(np.ones(len(t), np.int8)))

    right_ds = right_ds.map_batches(prep, batch_format="pyarrow",
                                    batch_size=None)
    out = asof_join(ds, right_ds, on=lon, by=[lx for lx, _ in by_pairs],
                    direction=direction)

    def finish(t: pa.Table, inner=not j.left) -> pa.Table:
        if inner and len(t):
            t = t.filter(pc.is_valid(t["__asof_m"]))
        return t.drop_columns(
            [c for c in ("__asof_m",) if c in t.column_names])

    return out.map_batches(finish, batch_format="pyarrow", batch_size=None)


def _execute_core(q: Select, sf_dir: str, order_by, limit, offset):
    """Compile + run one SELECT core."""
    from gdal_ray.ops.relational import broadcast_join
    from gdal_ray.ops.relational import distinct as op_distinct
    from gdal_ray.ops.relational import groupby_agg, topk
    from gdal_ray.util import read_table, read_table_with_fid

    q = Select(q.items, q.distinct, q.table, q.where, q.group_by,
               list(order_by), limit, joins=q.joins, having=q.having,
               offset=offset, group_sets=q.group_sets, qualify=q.qualify,
               unpivot=q.unpivot, distinct_on=q.distinct_on)
    if q.group_sets is not None:
        return _execute_group_sets(q, sf_dir)
    wants_fid = _mentions_fid(
        (q.items, q.where, q.group_by, q.having, q.order_by))
    from_src = (_registry_get(q.table)
                if not isinstance(q.table, (Select, pa.Table, tuple))
                else None)
    if isinstance(q.table, pa.Table):
        # inline VALUES table
        import ray.data as _rd

        ds = _rd.from_arrow(q.table)
    elif isinstance(q.table, tuple) and q.table and q.table[0] == "__series__":
        # generate_series / range table function: distributed ray.data
        # integer range, affine-mapped per batch (zero driver rows)
        import ray.data as _rd

        n, a, step, colname = _series_table(q.table)
        ds = _rd.range(n).map_batches(
            lambda t, a=a, s=step, c=colname: pa.table(
                {c: pc.add(pc.multiply(pc.cast(t["id"], pa.int64()), s), a)}),
            batch_format="pyarrow", batch_size=None)
    elif isinstance(q.table, Select):
        # derived table: FROM (SELECT ...) alias — executes recursively
        # as its own streaming pipeline
        ds = _execute_core(q.table, sf_dir, q.table.order_by,
                           q.table.limit, q.table.offset)
    elif from_src is not None:
        # registered table (ExecuteSQL-on-a-Dataset): use the bound
        # Dataset / Arrow table / path as the FROM source
        import ray.data as _rd

        if isinstance(from_src, pa.Table):
            ds = _rd.from_arrow(from_src)
        elif isinstance(from_src, str):
            ds = _rd.read_parquet(from_src)
        else:
            ds = from_src
    elif wants_fid:
        ds = read_table_with_fid(sf_dir, q.table, fid_col="FID")
    else:
        # prune at the read: only referenced columns leave storage, and
        # literal WHERE conjuncts push down to row-group pruning
        ds = read_table(sf_dir, q.table,
                        columns=_pruned_columns(q, order_by, sf_dir),
                        filter=_pushdown_filter(q, sf_dir))

    if q.unpivot is not None:
        on_cols, name_c, val_c = q.unpivot

        def unpivot_fn(t: pa.Table, cols=on_cols, nc=name_c,
                       vc=val_c) -> pa.Table:
            others = [c for c in t.column_names if c not in cols]
            n = len(t)
            k = len(cols)
            vals = _unify_numeric([t[c].combine_chunks()
                                   if isinstance(t[c], pa.ChunkedArray)
                                   else t[c] for c in cols])
            value = pa.concat_arrays([
                v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v
                for v in vals])
            idx = pa.array(np.tile(np.arange(n, dtype=np.int64), k))
            out = {c: t[c].take(idx) for c in others}
            out[nc] = pa.array(np.repeat(np.array(cols, dtype=object), n),
                               pa.string())
            out[vc] = value
            res = pa.table(out)
            # DuckDB default: NULL cells are excluded from the long form
            return res.filter(pc.is_valid(res[vc]))

        ds = ds.map_batches(unpivot_fn, batch_format="pyarrow",
                            batch_size=None)

    key_alias: dict = {}
    for ji, j in enumerate(q.joins or []):
        import pyarrow.parquet as pq

        from gdal_ray.util import sf_path, to_arrow

        if j.asof_spec is not None:
            ds = _apply_asof_join(ds, j, sf_dir, key_alias, q)
            continue
        right = None
        right_rows = 0
        jsrc = (_registry_get(j.table)
                if not isinstance(j.table, Select) else None)
        if isinstance(j.table, Select):
            # derived join side: run and broadcast (the classic
            # dimension-side plan)
            right = to_arrow(_execute_core(
                j.table, sf_dir, j.table.order_by, j.table.limit,
                j.table.offset))
            rcols = right.column_names
        elif jsrc is not None:
            right = (jsrc if isinstance(jsrc, pa.Table)
                     else pq.read_table(jsrc) if isinstance(jsrc, str)
                     else to_arrow(jsrc))
            rcols = right.column_names
        else:
            path = sf_path(sf_dir, j.table)
            rcols = list(_parquet_cols(path))
            right_rows = pq.read_metadata(path).num_rows
        if j.natural:
            # shared column names become the keys (schemas only known
            # here); rewrite into the plain equi path below
            lcols = set(_table_cols(sf_dir, q.table))
            for j2 in (q.joins or []):
                if j2 is j:
                    break
                lcols.update(_table_cols(sf_dir, j2.table))
            shared = [c for c in rcols if c in lcols]
            if not shared:
                # SQL standard: NATURAL JOIN with no common columns
                # degenerates to a cross join (DuckDB parity)
                j = Join(j.table, j.alias, j.left, "", "", cross=True)
            else:
                j = Join(j.table, j.alias, j.left, shared[0], shared[0],
                         extra_pairs=([(c, c) for c in shared[1:]] or None))
        if j.cross:
            # cartesian product: broadcast the (pruned) right table, one
            # repeat/tile take per batch — streams on the left side
            from gdal_ray.ops.relational import cross_join

            if right is None:
                acc: set = set()
                rneed = None
                if _all_col_refs(q, acc):
                    for c, _ in (order_by or []):
                        if isinstance(c, str):
                            acc.add(c)
                    rneed = [c for c in rcols if c in acc]
                if rneed == []:
                    # no right column is read: a 0-column Arrow table loses
                    # its row count, which would collapse the product, so
                    # one all-null column under a name of its own carries it
                    right = pa.table({f"__cross_rows{ji}": pa.nulls(right_rows)})
                else:
                    right = pq.read_table(sf_path(sf_dir, j.table),
                                          columns=rneed)
            if right.num_rows > _BROADCAST_JOIN_MAX_ROWS:
                raise ValueError(
                    "CROSS JOIN right side too large to broadcast")
            ds = cross_join(ds, right)
            continue
        # ON a = b: decide which side names a right-table column
        # (composite-key joins from comma-FROM planning carry extra pairs)
        lks, rks = [], []
        for jl, jr in [(j.left_key, j.right_key)] + list(j.extra_pairs or []):
            if jr in rcols:
                lk, rk = jl, jr
            elif jl in rcols:
                lk, rk = jr, jl
            else:
                raise ValueError(f"JOIN key not found in {j.table}")
            while lk in key_alias:  # key itself dropped by an earlier join
                lk = key_alias[lk]
            lks.append(lk)
            rks.append(rk)
        rneed = None
        if not isinstance(j.table, Select):
            acc: set = set()
            if _all_col_refs(q, acc):
                for c, _ in (order_by or []):
                    if isinstance(c, str):
                        acc.add(c)
                acc.update(rks)
                rneed = [c for c in rcols if c in acc]
        if right_rows > _BROADCAST_JOIN_MAX_ROWS:
            # big right side: co-partitioned hash join — both sides
            # shuffle, nothing broadcasts (the 100-TB path; the row bound
            # keeps dimension tables on the one-shuffle-cheaper broadcast
            # plan). join_hash keeps the LEFT key name, same coalescing
            # contract as the broadcast path.
            from gdal_ray.ops.relational import join_hash

            right_ds = read_table(sf_dir, j.table, columns=rneed)
            ds = join_hash(ds, right_ds, lks, right_keys=rks,
                           how="left" if j.left else "inner")
        else:
            if right is None:
                right = pq.read_table(sf_path(sf_dir, j.table),
                                      columns=rneed)
            ds = broadcast_join(ds, right, keys=lks, right_keys=rks,
                                how="left" if j.left else "inner")
        if not j.left:
            # pyarrow join coalesces the right key column away; on an
            # inner join the dropped name is value-equal to the kept one,
            # so later references canonicalize to the surviving column
            for lk, rk in zip(lks, rks):
                key_alias[rk] = lk

    if key_alias:
        order_by = _canon_cols(q, key_alias, order_by)

    if (q.where is not None and _has_sub_nodes(q.where)) or any(
            isinstance(it, Node) and _has_sub_nodes(it)
            for it, _ in q.items):
        ds, q = _decorrelate_where(ds, q, sf_dir, key_alias)

    if q.where is not None:
        where = q.where

        def filt(t: pa.Table) -> pa.Table:
            return _filter_table(t, eval_expr(where, t))

        ds = ds.map_batches(filt, batch_format="pyarrow", batch_size=None)

    expr_unns = [item for item, _ in q.items
                 if isinstance(item, Node) and item.kind == "unnest"
                 and item.value is None]
    if expr_unns:
        # UNNEST(list_expr): materialize the expression as a hidden list
        # column, then the plain-column fan-out below takes over
        if len(expr_unns) > 1:
            raise ValueError("multiple UNNEST expressions unsupported")
        e = expr_unns[0].args[0]
        hidden = "__un_src"

        def addsrc(t: pa.Table, e=e, nn=hidden) -> pa.Table:
            v = eval_expr(e, t)
            if isinstance(v, pa.Scalar):
                v = pa.array([v.as_py()] * len(t), type=v.type)
            return t.append_column(nn, v)

        ds = ds.map_batches(addsrc, batch_format="pyarrow", batch_size=None)
        q.items = [(Node("unnest", hidden), alias)
                   if isinstance(item, Node) and item.kind == "unnest"
                   and item.value is None else (item, alias)
                   for item, alias in q.items]

    unn_cols = {item.value for item, _ in q.items
                if isinstance(item, Node) and item.kind == "unnest"}
    if unn_cols:
        # UNNEST fan-out: repeat every other column per list element
        # (vectorized np.repeat + list_flatten — the explode_list shape);
        # WHERE already ran, matching DuckDB's evaluation order
        if len(unn_cols) > 1:
            raise ValueError("multiple UNNEST columns unsupported")
        ucol = next(iter(unn_cols))
        newname = f"__un_{ucol}"

        def unfan(t: pa.Table, c=ucol, nn=newname) -> pa.Table:
            col = t[c].combine_chunks()
            lens = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            parent = pa.array(
                np.repeat(np.arange(len(t), dtype=np.int64), lens))
            out = {k: t[k].take(parent) for k in t.column_names if k != c}
            out[nn] = pc.list_flatten(col)
            return pa.table(out)

        ds = ds.map_batches(unfan, batch_format="pyarrow", batch_size=None)
        q.items = [(Node("col", newname), alias)
                   if isinstance(item, Node) and item.kind == "unnest"
                   else (item, alias) for item, alias in q.items]

    ds, q = _apply_windows(ds, q)

    def _has_agg(n):
        if not isinstance(n, Node):
            return False
        if n.kind == "agg":
            return True
        return any(_has_agg(a) or (isinstance(a, tuple)
                                   and any(_has_agg(x) for x in a))
                   for a in n.args)

    has_agg = any(_has_agg(item) for item, _ in q.items)
    if has_agg or q.group_by:
        # aggregates over EXPRESSIONS (SUM(CASE WHEN ...), COUNT(x+1), ...)
        # pre-compute each distinct expression as a hidden column
        pre_cols: dict = {}

        def _agg_target(col):
            if not isinstance(col, Node):
                return col
            for n, nd in pre_cols.items():
                if nd == col:
                    return n
            name = f"__ax{len(pre_cols)}"
            pre_cols[name] = col
            return name

        def _rw(node):
            if not isinstance(node, Node):
                return node
            if node.kind == "agg":
                kind, col = node.value
                if isinstance(col, tuple):  # co-moment pair target
                    col = tuple(_agg_target(c) for c in col)
                else:
                    col = _agg_target(col)
                return Node("agg", (kind, col), node.args)
            if node.args:
                return Node(node.kind, node.value,
                            tuple(_rw(a) if isinstance(a, Node)
                                  else tuple(_rw(x) for x in a)
                                  if isinstance(a, tuple) else a
                                  for a in node.args))
            return node

        q.items = [(_rw(item), alias) for item, alias in q.items]
        if q.having is not None:
            q.having = _rw(q.having)
        # GROUP BY expressions: each Node entry becomes a hidden column
        # (same pre-compute pass); a select item EQUAL to a group
        # expression becomes a reference to that column
        group_names = []
        gexprs = []
        for g in q.group_by:
            if isinstance(g, Node):
                nm = _agg_target(g)
                gexprs.append((g, nm))
                group_names.append(nm)
            else:
                group_names.append(g)
        if gexprs:
            new_items = []
            for item, alias in q.items:
                for node, nm in gexprs:
                    if item == node:
                        item = Node("col", nm)
                        break
                new_items.append((item, alias))
            q.items = new_items
        q.group_by = group_names
        if pre_cols:
            items_pre = dict(pre_cols)

            def add_pre(t: pa.Table, cols=items_pre) -> pa.Table:
                for name, nd in cols.items():
                    v = eval_expr(nd, t)
                    if isinstance(v, pa.Scalar):
                        v = pa.array([v.as_py()] * len(t),
                                     v.type if not pa.types.is_null(v.type)
                                     else pa.int64())
                    t = t.append_column(name, v)
                return t

            ds = ds.map_batches(add_pre, batch_format="pyarrow", batch_size=None)
        specs = []
        cd_specs = []  # COUNT(DISTINCT col) computed via a distinct pass
        names = []
        post_exprs = {}  # name -> expression evaluated AFTER aggregation

        def _hoist_aggs(node: Node) -> Node:
            # expression over aggregates (ROUND(SUM(x),2), SUM(a)/COUNT(*)):
            # each agg subnode becomes a hidden spec column; the remaining
            # expression evaluates over the aggregated table (group keys
            # are present there, so expressions of keys work too)
            if not isinstance(node, Node):
                return node
            if node.kind == "agg":
                kind, col = node.value
                if kind in ("count_distinct", "string_agg", "array_agg"):
                    raise ValueError(
                        f"expressions over {kind.upper()} unsupported")
                if kind in ("quantile_disc", "quantile_cont", "mode",
                            "entropy", "arg_max", "arg_min"):
                    # hoist onto the non-algebraic attach path: the qt
                    # columns are joined back BEFORE post-expression
                    # evaluation, so ROUND(MEDIAN(x), 4) etc. just work
                    nm = f"__qx{len(qt_specs)}"
                    if kind == "quantile_disc":
                        qt_specs.append(
                            (nm, col, float(node.args[0].value)))
                    elif kind == "quantile_cont":
                        qt_specs.append(
                            (nm, col, ("cont", float(node.args[0].value))))
                    elif kind in ("mode", "entropy"):
                        qt_specs.append((nm, col, (kind,)))
                    else:
                        qt_specs.append((nm, col,
                                         (kind, node.args[0].value)))
                    return Node("col", nm)
                nm = f"__px{len(specs)}"
                specs.append((nm, kind, col))
                return Node("col", nm)
            if node.args:
                return Node(node.kind, node.value,
                            tuple(_hoist_aggs(a) if isinstance(a, Node)
                                  else tuple(_hoist_aggs(x) for x in a)
                                  if isinstance(a, tuple) else a
                                  for a in node.args))
            return node

        qt_specs = []  # (name, col, q): non-algebraic, via groupby_quantiles
        for idx, (item, alias) in enumerate(q.items):
            name = _item_name(item, alias, idx)
            names.append(name)
            if item.kind == "agg":
                kind, col = item.value
                if kind == "count_distinct":
                    cd_specs.append((name, col))
                elif kind == "quantile_disc":
                    qt_specs.append((name, col, float(item.args[0].value)))
                elif kind == "quantile_cont":
                    qt_specs.append(
                        (name, col, ("cont", float(item.args[0].value))))
                elif kind == "string_agg":
                    qt_specs.append((name, col, ("string_agg",
                                                 item.args[0].value,
                                                 item.args[1].value)))
                elif kind in ("mode", "entropy"):
                    qt_specs.append((name, col, (kind,)))
                elif kind in ("arg_max", "arg_min", "array_agg"):
                    qt_specs.append((name, col,
                                     (kind, item.args[0].value)))
                else:
                    specs.append((name, kind, col))
            elif item.kind == "col":
                if item.value not in q.group_by:
                    raise ValueError(f"non-aggregated column {item.value}")
            else:
                post_exprs[name] = _hoist_aggs(item)
        sel_cols = [item.value if item.kind == "col" else nm
                    for (item, _), nm in zip(q.items, names)]
        having = q.having
        hidden: list = []
        if having is not None:
            match = specs + [(n, "count_distinct", c) for n, c in cd_specs]
            having = _rewrite_having(having, match, hidden)
        # a HAVING referencing COUNT(DISTINCT x) not in the SELECT list
        # lands in `hidden` with kind count_distinct — route it to the
        # distinct pipeline (groupby_agg has no such kind)
        hidden_cd = [(n, c) for n, k, c in hidden if k == "count_distinct"]
        hidden = [(n, k, c) for n, k, c in hidden if k != "count_distinct"]
        if cd_specs or hidden_cd:
            if post_exprs or qt_specs:
                raise ValueError("expressions over aggregates / quantiles "
                                 "cannot be combined with COUNT(DISTINCT)")
            return _execute_with_count_distinct(
                ds, q, specs + hidden, cd_specs + hidden_cd, names, having)
        if qt_specs and not (specs + hidden):
            hidden.append(("__qcnt", "count_star", None))
        out = groupby_agg(ds, q.group_by, specs + hidden)
        if not q.group_by:
            # global aggregate over zero rows must still yield ONE row
            # (COUNT -> 0, other aggregates -> NULL), SQL semantics
            import ray.data as _rd

            from gdal_ray.util import to_arrow as _ta

            tbl = _ta(out)
            if tbl.num_rows == 0:
                cols = {}
                for nm_, kind, _c in specs + hidden:
                    if kind in ("count_star", "count"):
                        cols[nm_] = pa.array([0], pa.int64())
                    else:
                        cols[nm_] = pa.array([None], pa.float64())
                tbl = pa.table(cols)
            out = _rd.from_arrow(tbl)
        if qt_specs:
            out = _attach_quantiles(out, ds, q, qt_specs)

        def proj(t: pa.Table, hv=having, nm=list(names),
                 sc=list(sel_cols), pe=dict(post_exprs)) -> pa.Table:
            if hv is not None:
                t = _filter_table(t, eval_expr(hv, t))
            for name, nd in pe.items():
                v = eval_expr(nd, t)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(t), v.type)
                t = t.append_column(name, v)
            # order output columns as written (hidden HAVING specs
            # dropped; hidden group-expression keys rename to item names)
            return t.select(sc).rename_columns(nm)

        out = out.map_batches(proj, batch_format="pyarrow", batch_size=None)
    else:
        items = list(q.items)

        def project(t: pa.Table) -> pa.Table:
            cols = {}
            for idx, (item, alias) in enumerate(items):
                if item.kind == "star":
                    excl, repl = item.value or ((), ())
                    rmap = {nm: e for e, nm in repl}
                    for c in t.column_names:
                        if c in excl:
                            continue
                        if c in rmap:
                            v = eval_expr(rmap[c], t)
                            if isinstance(v, pa.Scalar):
                                v = pa.array([v.as_py()] * len(t))
                            cols[c] = v
                        else:
                            cols[c] = t[c]
                    continue
                v = eval_expr(item, t)
                if isinstance(v, pa.Scalar):
                    v = pa.array([v.as_py()] * len(t))
                cols[_item_name(item, alias, idx)] = v
            return pa.table(cols)

        # ORDER BY may reference source columns that the projection drops
        # (standard SQL); order/limit on the filtered source first, then
        # project — unless every order key survives projection
        out_cols = set()
        for idx, (item, alias) in enumerate(items):
            if item.kind != "star":
                out_cols.add(_item_name(item, alias, idx))
        want = q.limit + (q.offset or 0) if q.limit is not None else None
        order_pre = bool(q.order_by) and not all(
            (not isinstance(c, Node)) and c in out_cols for c, _ in q.order_by)
        if order_pre:
            if q.distinct_on:
                raise ValueError("DISTINCT ON requires plain output-column "
                                 "ORDER BY")
            ds, keys_, drop_ = _order_keys(ds, q.order_by)
            if want is not None:
                ds = topk(ds, keys_, want)
            else:
                ds = ds.sort([c for c, _ in keys_],
                             descending=[d for _, d in keys_])
            # hidden __ox columns drop in the projection below
            out = ds.map_batches(project, batch_format="pyarrow", batch_size=None)
            if q.distinct:
                out = op_distinct(out, [c for c in _out_names(q)])
            if q.offset:
                out = _apply_offset(out, q.offset)
            return out
        out = ds.map_batches(project, batch_format="pyarrow", batch_size=None)

    if q.distinct:
        out = op_distinct(out, [c for c in _out_names(q)])
    if q.distinct_on:
        # DISTINCT ON (k): first row per key under the query's ORDER BY
        # (first_by winners: the shuffle moves one row per (key, block))
        from gdal_ray.ops.relational import first_by

        names_ = _out_names(q)
        for c in q.distinct_on:
            if c not in names_:
                raise ValueError(f"DISTINCT ON column {c!r} must be "
                                 "in the SELECT list")
        oc, asc = [], []
        for c, d in (q.order_by or []):
            if not isinstance(c, str) or c not in names_:
                raise ValueError("DISTINCT ON requires plain output-column "
                                 "ORDER BY")
            if c not in q.distinct_on:
                oc.append(c)
                asc.append(not d)
        if not oc:
            raise ValueError("DISTINCT ON needs an ORDER BY tiebreaker "
                             "beyond the ON keys (determinism)")
        out = first_by(out, list(q.distinct_on), oc, ascending=asc)
    want = q.limit + (q.offset or 0) if q.limit is not None else None
    if q.order_by:
        out, keys_, drop_ = _order_keys(out, q.order_by)
        if want is not None:
            out = topk(out, keys_, want)
        else:
            out = out.sort([c for c, _ in keys_],
                           descending=[d for _, d in keys_])
        out = _drop_cols(out, drop_)
    elif want is not None:
        out = out.limit(want)
    if q.offset:
        out = _apply_offset(out, q.offset)
    return out


def _out_names(q: Select):
    names = []
    for idx, (item, alias) in enumerate(q.items):
        if item.kind == "star":
            raise ValueError("DISTINCT * not supported")
        names.append(_item_name(item, alias, idx))
    return names
