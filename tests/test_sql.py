"""SQL-subset compiler: the SAME string runs through our compiler and
through DuckDB — perfect oracle symmetry."""

import duckdb
import pytest

from gdal_ray.ops.sql import execute, parse_select
from gdal_ray.util import sf_path, to_arrow

CASES = [
    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 45 AND l_returnflag = 'R'",
    "SELECT o_orderkey, o_totalprice * 2 AS dbl FROM orders WHERE o_totalprice BETWEEN 1000 AND 2000",
    "SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS total FROM customer GROUP BY c_mktsegment",
    "SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem",
    "SELECT DISTINCT o_orderpriority FROM orders",
    "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 7",
    "SELECT p_partkey FROM part WHERE p_brand IN ('Brand#11', 'Brand#22') OR p_size >= 49",
    "SELECT p_partkey, CAST(p_retailprice AS BIGINT) AS rp FROM part WHERE p_name LIKE '%ol%' LIMIT 5000",
    "SELECT s_suppkey FROM supplier WHERE NOT s_acctbal < 0",
    "SELECT event_id, event_id % 7 AS bucket FROM events WHERE event_id < 100",
    # round-2 surface: JOIN / LEFT JOIN / UNION ALL / HAVING / OFFSET /
    # string fns — every string still runs verbatim in DuckDB
    "SELECT c_custkey, c_name, n_name FROM customer JOIN nation ON c_nationkey = n_nationkey WHERE c_custkey < 200",
    "SELECT o_orderkey, c_name FROM orders LEFT JOIN customer ON o_custkey = c_custkey WHERE o_orderkey < 300",
    "SELECT c_mktsegment AS seg FROM customer UNION ALL SELECT o_orderpriority AS seg FROM orders",
    "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY c_mktsegment HAVING COUNT(*) > 25",
    "SELECT c_nationkey, SUM(c_acctbal) AS total FROM customer GROUP BY c_nationkey HAVING SUM(c_acctbal) > 10000 AND COUNT(*) > 2",
    "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10 OFFSET 5",
    "SELECT p_partkey, UPPER(p_brand) AS ub, LOWER(p_type) AS lt FROM part WHERE p_name ILIKE '%OL%' LIMIT 4000",
    "SELECT c_custkey, CONCAT(c_name, '-', c_mktsegment) AS tag, SUBSTR(c_name, 1, 8) AS pre FROM customer WHERE c_custkey < 50",
    "SELECT s_suppkey, s_name || '_' || CAST(s_nationkey AS TEXT) AS label, LENGTH(s_name) AS ln FROM supplier",
    "SELECT c_mktsegment, COUNT(DISTINCT c_nationkey) AS n_nat, COUNT(*) AS n FROM customer GROUP BY c_mktsegment",
    "SELECT COUNT(DISTINCT l_partkey) AS np FROM lineitem",
    "SELECT c_nationkey, COUNT(DISTINCT c_mktsegment) AS segs FROM customer GROUP BY c_nationkey ORDER BY segs DESC, c_nationkey LIMIT 5",
    "SELECT event_id FROM events WHERE ts < '2024-01-01 01:00:00'",
    "SELECT event_id, CAST(ts AS DATE) AS d FROM events WHERE event_id < 50",
    # round-3 surface: CASE / COALESCE / NULLIF / math + string functions
    "SELECT o_orderkey, CASE WHEN o_totalprice > 2000 THEN 'big' WHEN o_totalprice > 500 THEN 'mid' ELSE 'small' END AS bucket FROM orders WHERE o_orderkey < 400",
    "SELECT o_orderkey, CASE o_orderpriority WHEN '1-URGENT' THEN 1 WHEN '2-HIGH' THEN 2 END AS pri FROM orders WHERE o_orderkey < 300",
    "SELECT c_custkey, COALESCE(NULLIF(c_mktsegment, 'BUILDING'), 'OTHER') AS seg FROM customer WHERE c_custkey < 200",
    "SELECT l_orderkey, ABS(l_quantity - 25.0) AS dq, ROUND(l_extendedprice / 7, 2) AS re, FLOOR(l_discount * 100) AS fd, CEIL(l_tax * 100) AS ct FROM lineitem WHERE l_orderkey < 60",
    "SELECT s_suppkey, REPLACE(s_name, 'Supplier', 'S') AS sn, TRIM(CONCAT('  ', s_name, ' ')) AS tc, LTRIM(CONCAT(' ', s_name)) AS lt, RTRIM(CONCAT(s_name, ' ')) AS rt FROM supplier WHERE s_suppkey < 40",
    "SELECT c_mktsegment, SUM(CASE WHEN c_acctbal > 5000 THEN 1 ELSE 0 END) AS rich FROM customer GROUP BY c_mktsegment",
    # round-3b: GROUP BY / ORDER BY expressions + aliased group keys
    "SELECT FLOOR(o_totalprice / 50000) AS bucket, COUNT(*) AS n FROM orders GROUP BY FLOOR(o_totalprice / 50000)",
    "SELECT c_nationkey % 5 AS g, SUM(c_acctbal) AS total FROM customer GROUP BY c_nationkey % 5 ORDER BY g",
    "SELECT c_mktsegment AS seg, COUNT(*) AS n FROM customer GROUP BY c_mktsegment ORDER BY n DESC, seg",
    "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_totalprice * -1, o_orderkey LIMIT 12",
    "SELECT p_partkey, p_retailprice FROM part ORDER BY ABS(p_retailprice - 1500), p_partkey LIMIT 9",
    # round-4 surface: window functions (ROW_NUMBER/RANK/DENSE_RANK/LAG/
    # LEAD/aggregate OVER) — same strings run verbatim in DuckDB
    "SELECT c_custkey, c_nationkey, ROW_NUMBER() OVER (PARTITION BY c_nationkey ORDER BY c_acctbal DESC, c_custkey) AS rn FROM customer WHERE c_custkey < 300",
    "SELECT c_custkey, RANK() OVER (PARTITION BY c_nationkey ORDER BY c_mktsegment) AS r, DENSE_RANK() OVER (PARTITION BY c_nationkey ORDER BY c_mktsegment) AS dr FROM customer",
    "SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_orderpriority) AS tot, COUNT(*) OVER (PARTITION BY o_orderpriority) AS n, AVG(o_totalprice) OVER (PARTITION BY o_orderpriority) AS av FROM orders WHERE o_orderkey < 500",
    "SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS run_sum, COUNT(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS run_n FROM orders WHERE o_orderkey < 400",
    "SELECT o_orderkey, MIN(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS run_min, MAX(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS run_max FROM orders WHERE o_orderkey < 400",
    "SELECT o_orderkey, LAG(o_totalprice, 1, 0.0) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS prev, LEAD(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS nxt FROM orders WHERE o_orderkey < 300",
    "SELECT n_nationkey, ROW_NUMBER() OVER (ORDER BY n_name DESC) AS rn FROM nation",
    "SELECT c_custkey, ROW_NUMBER() OVER (PARTITION BY c_nationkey, c_mktsegment ORDER BY c_custkey) AS rn FROM customer WHERE c_custkey < 250",
    # round-4b: distribution windows + set operators
    "SELECT c_custkey, NTILE(3) OVER (PARTITION BY c_nationkey ORDER BY c_custkey) AS nt FROM customer WHERE c_custkey < 400",
    "SELECT c_custkey, PERCENT_RANK() OVER (PARTITION BY c_nationkey ORDER BY c_custkey) AS pr, CUME_DIST() OVER (PARTITION BY c_nationkey ORDER BY c_custkey) AS cd FROM customer WHERE c_custkey < 350",
    "SELECT o_orderkey, FIRST_VALUE(o_custkey) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS fv, LAST_VALUE(o_custkey) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS lv FROM orders WHERE o_orderkey < 600",
    "SELECT c_nationkey FROM customer INTERSECT SELECT s_nationkey FROM supplier",
    "SELECT n_nationkey FROM nation EXCEPT SELECT s_nationkey FROM supplier WHERE s_suppkey < 30",
    "SELECT c_mktsegment AS v FROM customer UNION SELECT o_orderpriority AS v FROM orders",
    "SELECT c_nationkey AS k FROM customer WHERE c_acctbal > 9000 UNION ALL SELECT s_nationkey AS k FROM supplier INTERSECT SELECT n_nationkey AS k FROM nation WHERE n_nationkey > 10",
    # round-4c: ROLLUP / CUBE / GROUPING SETS
    "SELECT c_mktsegment, c_nationkey, COUNT(*) AS n, MIN(c_acctbal) AS lo FROM customer GROUP BY ROLLUP(c_mktsegment, c_nationkey)",
    "SELECT c_mktsegment, c_nationkey, COUNT(*) AS n FROM customer GROUP BY CUBE(c_mktsegment, c_nationkey)",
    "SELECT c_mktsegment, c_nationkey, COUNT(*) AS n FROM customer GROUP BY GROUPING SETS ((c_mktsegment), (c_nationkey), ())",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders GROUP BY ROLLUP(o_orderpriority) ORDER BY n DESC, o_orderpriority LIMIT 4",
    # round-4d: math fns / date parts / expressions over aggregates
    "SELECT o_orderkey, SQRT(o_totalprice) AS sq, LN(o_totalprice) AS l, EXP(o_totalprice / 500000) AS e, POWER(o_totalprice, 0.25) AS p, LOG2(o_totalprice) AS l2, LOG10(o_totalprice) AS l10, SIGN(o_totalprice - 150000) AS sg FROM orders WHERE o_orderkey < 400",
    "SELECT event_id, EXTRACT(year FROM ts) AS y, EXTRACT(month FROM ts) AS mo, EXTRACT(day FROM ts) AS d, EXTRACT(hour FROM ts) AS h, EXTRACT(minute FROM ts) AS mi, EXTRACT(dow FROM ts) AS dw, EXTRACT(doy FROM ts) AS dy, EXTRACT(week FROM ts) AS wk, EXTRACT(quarter FROM ts) AS q, EXTRACT(epoch FROM ts) AS ep FROM events WHERE event_id < 60",
    "SELECT o_orderkey, YEAR(o_orderdate) AS y, MONTH(o_orderdate) AS m, DAY(o_orderdate) AS d, QUARTER(o_orderdate) AS q, DAYOFWEEK(o_orderdate) AS dw, DAYOFYEAR(o_orderdate) AS dy FROM orders WHERE o_orderkey < 250",
    "SELECT event_id, DATE_TRUNC('month', ts) AS mt, DATE_TRUNC('day', ts) AS dt, DATE_TRUNC('hour', ts) AS ht, DATE_TRUNC('week', ts) AS wt FROM events WHERE event_id < 80",
    "SELECT event_id, DATE_PART('year', ts) AS y, DATE_PART('dow', ts) AS dw FROM events WHERE event_id < 40",
    "SELECT o_orderstatus, ROUND(SUM(o_totalprice), 2) AS tot2, SUM(o_totalprice) / COUNT(*) AS avg_price, MAX(o_totalprice) - MIN(o_totalprice) AS spread FROM orders GROUP BY o_orderstatus",
    "SELECT c_nationkey, SUM(c_acctbal) / SUM(CASE WHEN c_acctbal > 0 THEN 1 ELSE 0 END) AS pos_avg, COUNT(*) * 100 AS pct_base FROM customer GROUP BY c_nationkey",
    "SELECT EXTRACT(month FROM o_orderdate) AS m, COUNT(*) AS n, ROUND(AVG(o_totalprice), 1) AS ap FROM orders GROUP BY EXTRACT(month FROM o_orderdate) ORDER BY m",
    "SELECT SQRT(SUM(o_totalprice)) AS rt, LN(COUNT(*)) AS lc FROM orders",
    # round-4e: string function catalogue
    "SELECT s_suppkey, STRPOS(s_name, '1') AS sp, CONTAINS(s_name, 'Supplier') AS ct, STARTS_WITH(s_name, 'Sup') AS sw, ENDS_WITH(s_name, '3') AS ew FROM supplier",
    "SELECT c_custkey, LEFT(c_name, 8) AS l8, RIGHT(c_name, 4) AS r4, REVERSE(c_mktsegment) AS rv, REPEAT(c_mktsegment, 2) AS rp FROM customer WHERE c_custkey < 60",
    "SELECT s_suppkey, LPAD(s_name, 12, '*') AS lp, RPAD(s_name, 20, '.') AS rpd, LPAD(CAST(s_suppkey AS TEXT), 5, '0') AS z5 FROM supplier",
    "SELECT c_custkey, SPLIT_PART(c_name, '#', 2) AS num, SPLIT_PART(c_name, '#', 5) AS oob, SPLIT_PART(c_mktsegment, 'I', 1) AS seg1 FROM customer WHERE c_custkey < 80",
    "SELECT o_orderkey, LEAST(o_totalprice, 100000) AS lo, GREATEST(o_totalprice, 100000, o_orderkey) AS hi, MOD(o_orderkey, 7) AS m7 FROM orders WHERE o_orderkey < 200",
    "SELECT s_suppkey, REGEXP_REPLACE(s_name, '[0-9]+', 'N') AS rr, REGEXP_REPLACE(s_name, '[0-9]', 'N', 'g') AS rrg, REGEXP_MATCHES(s_name, '^Supplier#0*[0-9]$') AS rm FROM supplier",
    # round-4h: ORDER BY / LIMIT inside subqueries and derived tables
    "SELECT COUNT(*) AS n FROM orders WHERE o_custkey = (SELECT c_custkey FROM customer ORDER BY c_acctbal DESC LIMIT 1)",
    "SELECT SUM(o_totalprice) AS tot FROM (SELECT o_totalprice FROM orders ORDER BY o_totalprice DESC LIMIT 10) t",
    "SELECT COUNT(*) AS n FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer ORDER BY c_acctbal DESC LIMIT 5)",
    "SELECT COUNT(*) AS n FROM orders JOIN (SELECT c_custkey AS top_ck FROM customer ORDER BY c_acctbal DESC LIMIT 20) tc ON top_ck = o_custkey",
    # round-4h: quantified ANY / ALL / SOME subqueries
    "SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > ALL (SELECT s_acctbal FROM supplier WHERE s_nationkey < 5)",
    "SELECT COUNT(*) AS n FROM customer WHERE c_acctbal < ANY (SELECT s_acctbal FROM supplier)",
    "SELECT COUNT(*) AS n FROM customer WHERE c_nationkey = ANY (SELECT s_nationkey FROM supplier WHERE s_suppkey < 4)",
    "SELECT COUNT(*) AS n FROM customer WHERE c_nationkey <> ALL (SELECT s_nationkey FROM supplier WHERE s_suppkey < 4)",
    "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice >= ALL (SELECT o_totalprice FROM orders WHERE o_orderkey < 0)",
    "SELECT COUNT(*) AS n FROM orders WHERE o_totalprice > SOME (SELECT o_totalprice FROM orders WHERE o_orderkey < 0)",
    "SELECT COUNT(*) AS n FROM customer WHERE c_nationkey = ALL (SELECT s_nationkey FROM supplier WHERE s_suppkey = 2)",
    # round-4h: bag-semantics set operators
    "SELECT c_nationkey AS k FROM customer INTERSECT ALL SELECT s_nationkey AS k FROM supplier",
    "SELECT c_nationkey AS k FROM customer EXCEPT ALL SELECT s_nationkey AS k FROM supplier",
    "SELECT c_mktsegment AS v FROM customer WHERE c_custkey < 100 EXCEPT ALL SELECT c_mktsegment AS v FROM customer WHERE c_custkey < 40",
    "SELECT o_orderpriority AS p FROM orders WHERE o_orderkey < 200 INTERSECT ALL SELECT o_orderpriority AS p FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 300",
    # round-4h: STRING_AGG with required ORDER BY
    "SELECT c_nationkey, STRING_AGG(c_name, '|' ORDER BY c_custkey) AS members, COUNT(*) AS n FROM customer WHERE c_custkey < 60 GROUP BY c_nationkey ORDER BY c_nationkey",
    "SELECT STRING_AGG(n_name, ',' ORDER BY n_nationkey) AS all_nations FROM nation",
    # STRING_AGG over DOUBLE / TIMESTAMP values writes DuckDB's VARCHAR text
    "SELECT l_orderkey, STRING_AGG(l_quantity, ',' ORDER BY l_linenumber) AS q, STRING_AGG(l_shipdate, '|' ORDER BY l_linenumber) AS d FROM lineitem WHERE l_orderkey < 40 GROUP BY l_orderkey ORDER BY l_orderkey",
    # round-4h: QUANTILE_DISC aggregates (exact, non-algebraic)
    "SELECT c_mktsegment, QUANTILE_DISC(c_acctbal, 0.5) AS med, QUANTILE_DISC(c_acctbal, 0.9) AS p90, COUNT(*) AS n FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
    "SELECT QUANTILE_DISC(o_totalprice, 0.5) AS med FROM orders",
    "SELECT l_returnflag, QUANTILE_DISC(l_quantity, 0.25) AS q1, QUANTILE_DISC(l_quantity, 0.75) AS q3, SUM(l_quantity) AS tot FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
    # round-4g: STDDEV / VARIANCE aggregates
    "SELECT c_mktsegment, ROUND(STDDEV(c_acctbal), 4) AS sd, ROUND(VARIANCE(c_acctbal), 2) AS vr, COUNT(*) AS n FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
    "SELECT ROUND(STDDEV_SAMP(o_totalprice), 4) AS sd, ROUND(VAR_SAMP(o_totalprice), 2) AS vr FROM orders",
    # round-4g: QUALIFY / ordinals / COUNT(DISTINCT expr)
    "SELECT c_nationkey, c_custkey, c_acctbal FROM customer QUALIFY ROW_NUMBER() OVER (PARTITION BY c_nationkey ORDER BY c_acctbal DESC, c_custkey) = 1",
    "SELECT c_nationkey, c_custkey, ROW_NUMBER() OVER (PARTITION BY c_nationkey ORDER BY c_acctbal DESC, c_custkey) AS rn FROM customer QUALIFY rn <= 3",
    "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY 1 ORDER BY 2 DESC, 1",
    "SELECT o_orderpriority, o_orderstatus, COUNT(*) AS n FROM orders GROUP BY 1, 2 ORDER BY 1, 2",
    "SELECT COUNT(DISTINCT c_nationkey % 7) AS n7 FROM customer",
    "SELECT c_mktsegment, COUNT(DISTINCT c_nationkey % 5) AS g5 FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
    # round-4f: JSON property extraction (flat paths)
    "SELECT event_id, JSON_EXTRACT_STRING(props, '$.k') AS k FROM events WHERE event_id < 120",
    "SELECT CAST(JSON_EXTRACT_STRING(props, '$.k') AS BIGINT) % 5 AS kb, COUNT(*) AS n FROM events GROUP BY CAST(JSON_EXTRACT_STRING(props, '$.k') AS BIGINT) % 5 ORDER BY kb",
    # round-4f: explicit ROWS window frames
    "SELECT o_orderkey, AVG(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS ma4 FROM orders WHERE o_orderkey < 500",
    "SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s5, COUNT(*) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS c5 FROM orders WHERE o_orderkey < 400",
    "SELECT o_orderkey, MIN(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS mn, MAX(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS 2 PRECEDING) AS mx FROM orders WHERE o_orderkey < 400",
    "SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN 2 FOLLOWING AND 4 FOLLOWING) AS fut FROM orders WHERE o_orderkey < 300",
    "SELECT o_orderkey, FIRST_VALUE(o_custkey) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS fv, LAST_VALUE(o_custkey) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS lv FROM orders WHERE o_orderkey < 300",
    "SELECT o_orderkey, AVG(o_totalprice) OVER (ORDER BY o_orderkey ROWS BETWEEN 9 PRECEDING AND CURRENT ROW) AS ma10 FROM orders WHERE o_orderkey < 200",
    # round-5: comma-separated FROM (implicit joins lifted out of WHERE)
    "SELECT n_name, COUNT(*) AS c FROM customer, nation WHERE c_nationkey = n_nationkey GROUP BY n_name ORDER BY n_name",
    "SELECT n_name, SUM(o_totalprice) AS rev FROM orders, customer, nation WHERE o_custkey = c_custkey AND c_nationkey = n_nationkey AND o_orderkey < 2000 GROUP BY n_name ORDER BY n_name",
    # round-5: alias-qualified self-joins (duplicated base table)
    "SELECT n1.n_name AS a, n2.n_name AS b FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_nationkey < n2.n_nationkey ORDER BY a, b",
    "SELECT n1.n_regionkey AS rk, COUNT(*) AS pairs FROM nation n1, nation n2 WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_nationkey <> n2.n_nationkey GROUP BY n1.n_regionkey ORDER BY rk",
    # round-5: composite-key comma join (both equalities must join, not filter)
    "SELECT COUNT(*) AS n FROM lineitem l1, lineitem l2 WHERE l1.l_orderkey = l2.l_orderkey AND l1.l_linenumber = l2.l_linenumber",
    # round-5: mixed =/<> correlated EXISTS (TPC-H q21 shape, grouped-count
    # decorrelation) on a self-joined alias
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders o1 WHERE EXISTS (SELECT * FROM orders o2 WHERE o2.o_custkey = o1.o_custkey AND o2.o_orderkey <> o1.o_orderkey) GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders o1 WHERE NOT EXISTS (SELECT * FROM orders o2 WHERE o2.o_custkey = o1.o_custkey AND o2.o_orderkey <> o1.o_orderkey AND o2.o_totalprice > 100000) GROUP BY o_orderpriority ORDER BY o_orderpriority",
    # round-5 aggregate wave: MEDIAN / ARG_MAX / ARG_MIN (unique order col
    # keeps DuckDB deterministic) / BOOL_AND / BOOL_OR / COVAR / CORR
    "SELECT o_orderpriority, MEDIAN(o_totalprice) AS med, ARG_MAX(o_totalprice, o_orderkey) AS last_price, ARG_MIN(o_totalprice, o_orderkey) AS first_price FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT BOOL_AND(o_totalprice > 0) AS ball, BOOL_OR(o_totalprice > 400000) AS bany, MEDIAN(o_totalprice) AS med FROM orders",
    "SELECT l_returnflag, ROUND(COVAR_SAMP(l_extendedprice, l_quantity), 4) AS cvs, ROUND(COVAR_POP(l_extendedprice, l_quantity), 4) AS cvp, ROUND(CORR(l_extendedprice, l_quantity), 6) AS cr FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
    "SELECT user_id % 3 AS ug, BOOL_AND(value > 1.0) AS ball, BOOL_OR(value > 900.0) AS bany, ROUND(MEDIAN(value) + 1.0, 4) AS medp1 FROM events GROUP BY user_id % 3 ORDER BY ug",
    # round-5 ergonomics: GROUP BY ALL, star EXCLUDE / REPLACE
    "SELECT o_orderpriority, o_orderstatus, COUNT(*) AS n FROM orders GROUP BY ALL ORDER BY o_orderpriority, o_orderstatus",
    "SELECT * EXCLUDE (n_regionkey) FROM nation ORDER BY n_nationkey",
    "SELECT * REPLACE (n_nationkey * 10 AS n_nationkey) FROM nation ORDER BY n_name",
    # round-5 list/split/regex wave: STRING_SPLIT, LEN over lists, bracket
    # indexing (1-based, negative, OOB->NULL), LIST_CONTAINS over a computed
    # list, UNNEST over an expression, REGEXP_EXTRACT group addressing
    "SELECT doc_id, LEN(STRING_SPLIT(text, ' ')) AS nw, LENGTH(text) AS nc FROM documents WHERE doc_id < 50 ORDER BY doc_id",
    "SELECT w AS word, COUNT(*) AS cnt FROM (SELECT UNNEST(STRING_SPLIT(text, ' ')) AS w FROM documents WHERE doc_id < 200) WHERE LENGTH(w) > 4 GROUP BY w ORDER BY cnt DESC, word LIMIT 25",
    "SELECT vec_id, LEN(embedding) AS dim, ROUND(CAST(embedding[1] AS DOUBLE), 6) AS e1, ROUND(CAST(LIST_EXTRACT(embedding, -1) AS DOUBLE), 6) AS el, CAST(embedding[99] AS DOUBLE) AS oob FROM embeddings WHERE vec_id < 25 ORDER BY vec_id",
    "SELECT LIST_CONTAINS(STRING_SPLIT(text, ' '), 'window') AS h, COUNT(*) AS n FROM documents GROUP BY 1 ORDER BY 1",
    "SELECT c_custkey, REGEXP_EXTRACT(c_name, '([a-z]+)#([0-9]+)', 2) AS g2, REGEXP_EXTRACT(c_name, '[0-9]+') AS whole, REGEXP_EXTRACT(c_name, 'zzz') AS miss FROM customer WHERE c_custkey < 30 ORDER BY c_custkey",
    "SELECT c_custkey, STRING_SPLIT_REGEX(c_name, '[#]')[1] AS p1, STRING_SPLIT(c_name, '#')[2] AS p2 FROM customer WHERE c_custkey < 20 ORDER BY c_custkey",
    # round-5: GROUPING() bitmask over ROLLUP/CUBE/GROUPING SETS (incl.
    # multi-arg and HAVING references)
    "SELECT o_orderpriority, o_orderstatus, GROUPING(o_orderpriority) AS gp, GROUPING(o_orderstatus) AS gs, COUNT(*) AS n FROM orders GROUP BY ROLLUP (o_orderpriority, o_orderstatus) ORDER BY gp, gs, o_orderpriority, o_orderstatus",
    "SELECT o_orderpriority, o_orderstatus, GROUPING(o_orderpriority, o_orderstatus) AS g, SUM(o_totalprice) AS s FROM orders GROUP BY CUBE (o_orderpriority, o_orderstatus) ORDER BY g, o_orderpriority, o_orderstatus",
    "SELECT o_orderstatus, GROUPING(o_orderstatus) AS g, COUNT(*) AS n FROM orders GROUP BY GROUPING SETS ((o_orderstatus), ()) HAVING GROUPING(o_orderstatus) = 1 OR COUNT(*) > 100 ORDER BY g, o_orderstatus",
    # round-5: UNPIVOT (wide->long, NULL cells dropped) and static PIVOT
    "SELECT l_orderkey, k AS metric, v AS val FROM (UNPIVOT lineitem ON l_quantity, l_extendedprice, l_discount INTO NAME k VALUE v) WHERE l_orderkey < 10 ORDER BY l_orderkey, metric, val",
    "SELECT k AS metric, ROUND(SUM(v), 4) AS s, COUNT(*) AS n FROM (UNPIVOT lineitem ON l_quantity, l_discount, l_tax INTO NAME k VALUE v) GROUP BY k ORDER BY metric",
    "SELECT k, ROUND(AVG(v), 6) AS m FROM (UNPIVOT (SELECT l_quantity, l_discount FROM lineitem WHERE l_orderkey < 500) ON l_quantity, l_discount INTO NAME k VALUE v) GROUP BY k ORDER BY k",
    "SELECT * FROM (PIVOT orders ON o_orderstatus IN ('F','O','P') USING SUM(o_totalprice) GROUP BY o_orderpriority) ORDER BY o_orderpriority",
    "SELECT * FROM (PIVOT orders ON o_orderstatus IN ('F','O') USING COUNT(*) GROUP BY o_orderpriority) ORDER BY o_orderpriority",
    # round-5: IGNORE NULLS navigation fns (DuckDB in-paren placement) +
    # STRFTIME
    "SELECT o_orderkey, LAG(v IGNORE NULLS) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS pv, FIRST_VALUE(v IGNORE NULLS) OVER (PARTITION BY o_orderpriority ORDER BY o_orderkey) AS fv FROM (SELECT o_orderkey, o_orderpriority, CASE WHEN o_totalprice > 150000 THEN o_totalprice END AS v FROM orders WHERE o_orderkey < 2000) t ORDER BY o_orderkey",
    "SELECT o_orderkey, LEAD(v, 2 IGNORE NULLS) OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey) AS nv, LAST_VALUE(v IGNORE NULLS) OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey) AS lv, NTH_VALUE(v, 3 IGNORE NULLS) OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey) AS n3 FROM (SELECT o_orderkey, o_orderstatus, CASE WHEN o_totalprice > 250000 THEN o_totalprice END AS v FROM orders WHERE o_orderkey < 1500) t ORDER BY o_orderkey",
    "SELECT o_orderkey, LAG(o_totalprice RESPECT NULLS) OVER (ORDER BY o_orderkey) AS pv FROM orders WHERE o_orderkey < 300 ORDER BY o_orderkey",
    "SELECT o_orderkey, STRFTIME(o_orderdate, '%Y-%m') AS ym, STRFTIME(o_orderdate, '%d/%m/%Y') AS dmy, STRFTIME(o_orderdate, '%j') AS doy FROM orders WHERE o_orderkey < 50 ORDER BY o_orderkey",
    # round-5: VALUES inline tables (standalone, joined, default col names)
    "SELECT * FROM (VALUES (1, 'a'), (2, 'b'), (3, NULL)) AS t(id, label) ORDER BY id",
    "SELECT n_name, label FROM nation JOIN (VALUES (0, 'zero'), (1, 'one')) AS m(rk, label) ON n_regionkey = rk ORDER BY n_name",
    "SELECT n_name, label FROM nation LEFT JOIN (VALUES (0, 'zero'), (1, 'one')) AS m(rk, label) ON n_regionkey = rk ORDER BY n_name",
    "SELECT col0 + col1 AS s FROM (VALUES (1, 10), (2, 20)) t ORDER BY s",
    # round-5: series table functions + per-row list aggregates
    "SELECT * FROM generate_series(1, 10) ORDER BY generate_series",
    "SELECT i, i * i AS sq FROM range(0, 20, 3) AS r(i) ORDER BY i",
    "SELECT COUNT(*) AS n, CAST(SUM(generate_series) AS BIGINT) AS s FROM generate_series(1, 100000)",
    # list_min/max: CAST to DOUBLE before ROUND — DuckDB keeps float32
    # through the list aggregate and its float32 round lands off the
    # double rounding grid (the float-parity memory's float32 trap)
    "SELECT vec_id, ROUND(list_sum(embedding), 4) AS ls, ROUND(list_avg(embedding), 6) AS la, ROUND(CAST(list_min(embedding) AS DOUBLE), 6) AS lmin, ROUND(CAST(list_max(embedding) AS DOUBLE), 6) AS lmax FROM embeddings WHERE vec_id < 20 ORDER BY vec_id",
    # round-5c: vector-similarity catalogue (embedding columns). CAST to
    # DOUBLE[] on both sides — DuckDB computes float32 otherwise (the
    # float-parity memory's float32 trap applies to vectors too).
    "SELECT a.vec_id AS ida, ROUND(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.emb2 AS DOUBLE[])), 4) AS cos, ROUND(list_dot_product(CAST(a.embedding AS DOUBLE[]), CAST(b.emb2 AS DOUBLE[])), 4) AS dot, ROUND(list_distance(CAST(a.embedding AS DOUBLE[]), CAST(b.emb2 AS DOUBLE[])), 4) AS dist FROM embeddings a JOIN (SELECT vec_id - 250 AS mid, embedding AS emb2 FROM embeddings) b ON a.vec_id = b.mid ORDER BY ida",
    "SELECT n_nationkey, ROUND(list_cosine_similarity([1.0,2.0],[3.0,-4.0]), 6) AS c, ROUND(list_inner_product([1.5,2.0,0.5],[2.0,1.0,-2.0]), 6) AS ip, ROUND(list_distance([0.0,3.0],[4.0,0.0]), 6) AS d FROM nation WHERE n_nationkey < 3 ORDER BY n_nationkey",
    # round-5: aggregate FILTER clause + DISTINCT ON
    "SELECT o_orderpriority, COUNT(*) AS n, COUNT(*) FILTER (WHERE o_totalprice > 150000) AS big, ROUND(SUM(o_totalprice) FILTER (WHERE o_orderstatus = 'F'), 4) AS f_rev, MAX(o_totalprice) FILTER (WHERE o_orderstatus = 'O') AS o_max FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT AVG(o_totalprice) FILTER (WHERE o_orderkey % 2 = 0) AS a0 FROM orders",
    "SELECT DISTINCT ON (o_orderpriority) o_orderpriority, o_orderkey, o_totalprice FROM orders ORDER BY o_orderpriority, o_totalprice DESC, o_orderkey",
    "SELECT DISTINCT ON (o_orderpriority, o_orderstatus) o_orderpriority, o_orderstatus, o_orderkey FROM orders ORDER BY o_orderpriority, o_orderstatus, o_orderkey",
    # round-5: date/string utility wave
    "SELECT o_orderkey, DATE_DIFF('day', DATE '1995-01-01', o_orderdate) AS dd, DATE_DIFF('month', DATE '1995-01-15', o_orderdate) AS dm, DATE_DIFF('year', DATE '1995-06-01', o_orderdate) AS dy, DATE_DIFF('quarter', DATE '1995-06-01', o_orderdate) AS dq, DATE_DIFF('week', DATE '1995-01-01', o_orderdate) AS dw FROM orders WHERE o_orderkey < 40 ORDER BY o_orderkey",
    "SELECT o_orderkey, LAST_DAY(o_orderdate) AS ld, MAKE_DATE(1995 + o_orderkey % 3, 1 + o_orderkey % 12, 1 + o_orderkey % 28) AS md FROM orders WHERE o_orderkey < 40 ORDER BY o_orderkey",
    "SELECT CONCAT_WS('-', lang, source, CASE WHEN n_chars > 400 THEN 'long' END) AS tag, COUNT(*) AS n FROM documents GROUP BY 1 ORDER BY 1",
    "SELECT DATE_DIFF('hour', TIMESTAMP '2020-01-01 10:30:00', ts) AS dh FROM events WHERE event_id < 10 ORDER BY dh",
    # round-5: named WINDOW clauses (shared specs, QUALIFY interop)
    "SELECT o_orderkey, ROW_NUMBER() OVER w AS rn, ROUND(SUM(o_totalprice) OVER w, 4) AS running FROM orders WHERE o_orderkey < 500 WINDOW w AS (PARTITION BY o_orderpriority ORDER BY o_orderkey) ORDER BY o_orderkey",
    "SELECT o_orderkey, RANK() OVER w1 AS r, AVG(o_totalprice) OVER w2 AS ma FROM orders WHERE o_orderkey < 300 WINDOW w1 AS (PARTITION BY o_orderstatus ORDER BY o_totalprice DESC), w2 AS (ORDER BY o_orderkey ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) ORDER BY o_orderkey",
    "SELECT o_orderkey, ROW_NUMBER() OVER w AS rn FROM orders WHERE o_orderkey < 200 WINDOW w AS (PARTITION BY o_orderpriority ORDER BY o_orderkey) QUALIFY rn <= 2 ORDER BY o_orderkey",
    # round-5: correlated scalar subqueries in SELECT items (COUNT
    # coalesces to 0 for unmatched outer rows; expressions compose)
    "SELECT c_custkey, (SELECT COUNT(*) FROM orders WHERE o_custkey = c_custkey) AS n FROM customer WHERE c_custkey < 30 ORDER BY c_custkey",
    "SELECT c_custkey, (SELECT MAX(o_totalprice) FROM orders WHERE o_custkey = c_custkey) AS mx FROM customer WHERE c_custkey < 30 ORDER BY c_custkey",
    "SELECT c_custkey, (SELECT COUNT(*) FROM orders WHERE o_custkey = c_custkey) + c_custkey AS npl FROM customer WHERE c_custkey < 20 ORDER BY c_custkey",
    # round-5: [NOT] EXISTS as SELECT-item booleans (incl. inside FILTER)
    "SELECT c_custkey, EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey AND o_totalprice > 300000) AS has_big FROM customer WHERE c_custkey < 40 ORDER BY c_custkey",
    "SELECT c_custkey, NOT EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey) AS no_orders FROM customer WHERE c_custkey < 40 ORDER BY c_custkey",
    "SELECT c_mktsegment, COUNT(*) FILTER (WHERE EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey AND o_orderstatus = 'F')) AS with_f FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
    # round-5: duplicated-CTE alias self-joins (triangle counting shape)
    "WITH e AS (SELECT c_custkey % 11 AS a, c_nationkey % 7 AS b FROM customer) SELECT e1.a, COUNT(*) AS n FROM e e1, e e2 WHERE e1.b = e2.b AND e1.a < e2.a GROUP BY e1.a ORDER BY 1",
    # round-5 session 3: CROSS JOIN (broadcast right, per-batch cartesian)
    "SELECT r.r_name, n.n_name FROM region r CROSS JOIN nation n WHERE n.n_nationkey < 5 ORDER BY 1, 2",
    "SELECT s.st, COUNT(*) AS n FROM orders o CROSS JOIN (SELECT DISTINCT o_orderstatus AS st FROM orders) s WHERE o.o_orderstatus = s.st GROUP BY 1 ORDER BY 1",
    "SELECT a.o_orderpriority, b.st, COUNT(*) AS n FROM (SELECT DISTINCT o_orderpriority FROM orders) a CROSS JOIN (SELECT DISTINCT o_orderstatus AS st FROM orders) b GROUP BY 1, 2 ORDER BY 1, 2",
    "SELECT COUNT(*) AS n FROM nation a CROSS JOIN nation b",
    # a self join's same-named columns both survive the projection
    "SELECT a.n_name, b.n_name FROM nation a CROSS JOIN nation b WHERE a.n_nationkey = 0 AND b.n_nationkey = 1",
    # NATURAL JOIN (shared names resolved at execute time) + USING
    "SELECT rk, n_name, r_name FROM (SELECT n_regionkey AS rk, n_name FROM nation) a NATURAL JOIN (SELECT r_regionkey AS rk, r_name FROM region) b ORDER BY n_name",
    "SELECT rk, n_name, r_name FROM (SELECT n_regionkey AS rk, n_name FROM nation) a JOIN (SELECT r_regionkey AS rk, r_name FROM region) b USING (rk) ORDER BY n_name",
    # FROM-less SELECT (one-row dual table)
    "SELECT 1 AS one, 'x' AS s, 2.5 AS f",
    # bitwise operators + xor() (precedence: | < & < shifts < additive)
    "SELECT o_orderkey, o_orderkey & 7 AS a, o_orderkey | 8 AS o, xor(o_orderkey, 5) AS x, o_orderkey << 2 AS s, o_orderkey >> 1 AS r FROM orders WHERE o_orderkey < 50 ORDER BY o_orderkey",
    "SELECT o_orderkey % 16 & 12 | 1 AS m, COUNT(*) AS n FROM orders GROUP BY 1 ORDER BY 1",
    # PERCENTILE_CONT/DISC ... WITHIN GROUP + ORDER BY ALL
    "SELECT o_orderpriority, ROUND(PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY o_totalprice), 4) AS med, ROUND(PERCENTILE_CONT(0.9) WITHIN GROUP (ORDER BY o_totalprice DESC), 4) AS p90d, PERCENTILE_DISC(0.25) WITHIN GROUP (ORDER BY o_totalprice) AS q1 FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
    "SELECT o_orderstatus, o_orderpriority, COUNT(*) AS n FROM orders GROUP BY o_orderstatus, o_orderpriority ORDER BY ALL",
    "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus ORDER BY ALL DESC",
    # composite AND-ed ON equalities (alias-qualified, executor orients)
    "SELECT g.lang, g.st, COALESCE(c.n, 0) AS n FROM (SELECT l.lang, s.st FROM (SELECT DISTINCT lang FROM documents) l CROSS JOIN (SELECT DISTINCT source AS st FROM documents) s) g LEFT JOIN (SELECT lang, source AS st, COUNT(*) AS n FROM documents GROUP BY 1, 2) c ON g.lang = c.lang AND g.st = c.st ORDER BY g.lang, g.st",
    "SELECT a.o_orderpriority AS p, a.o_orderstatus AS st, a.n, b.tot FROM (SELECT o_orderpriority, o_orderstatus, COUNT(*) AS n FROM orders GROUP BY 1, 2) a JOIN (SELECT o_orderpriority, o_orderstatus, SUM(o_orderkey) AS tot FROM orders GROUP BY 1, 2) b ON a.o_orderpriority = b.o_orderpriority AND a.o_orderstatus = b.o_orderstatus ORDER BY 1, 2",
    # feature combinations: hoisted window exprs + QUALIFY / named windows
    "SELECT o_orderkey, ROUND(SUM(o_totalprice) OVER (PARTITION BY o_custkey % 3), 4) AS s FROM orders WHERE o_orderkey < 1000 QUALIFY s > 500000 ORDER BY o_orderkey",
    "SELECT o_orderkey, NTILE(4) OVER (PARTITION BY o_orderkey % 2 ORDER BY o_totalprice, o_orderkey) AS q FROM orders WHERE o_orderkey < 400 ORDER BY o_orderkey",
    "SELECT o_orderstatus, ROUND(PERCENTILE_CONT(0.5) WITHIN GROUP (ORDER BY o_totalprice), 4) AS med FROM orders GROUP BY o_orderstatus HAVING COUNT(*) > 10 ORDER BY ALL",
    # window specs over EXPRESSIONS (hidden-column hoist before the pass)
    "SELECT o_orderkey, ROW_NUMBER() OVER (PARTITION BY o_custkey % 5 ORDER BY o_totalprice DESC, o_orderkey) AS rn FROM orders WHERE o_orderkey < 300 ORDER BY o_orderkey",
    "SELECT o_orderkey, SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) OVER (ORDER BY o_orderkey) AS nf FROM orders WHERE o_orderkey < 300 ORDER BY o_orderkey",
    "SELECT o_orderkey, LAG(o_totalprice * 2) OVER (PARTITION BY o_orderstatus ORDER BY o_orderkey) AS lp FROM orders WHERE o_orderkey < 300 ORDER BY o_orderkey",
    "SELECT o_orderkey, RANK() OVER (ORDER BY o_totalprice - o_orderkey) AS r FROM orders WHERE o_orderkey < 200 ORDER BY o_orderkey",
    # an empty window spec: the whole input is one partition
    "SELECT n_nationkey, COUNT(*) OVER () AS c, SUM(n_regionkey) OVER () AS s FROM nation",
    "SELECT COUNT(*) AS n, SUM(rn) AS s, MAX(rn) AS m FROM (SELECT ROW_NUMBER() OVER () AS rn FROM nation) t",
]


@pytest.fixture(scope="module")
def con(sf_dir):
    con = duckdb.connect()
    for t in ["lineitem", "orders", "customer", "part", "supplier", "events",
              "nation", "region", "documents", "embeddings"]:
        con.execute(f"create view {t} as select * from read_parquet('{sf_path(sf_dir, t)}')")
    return con


@pytest.mark.parametrize("sql", CASES)
def test_sql_matches_duckdb(sf_dir, con, sql):
    got = to_arrow(execute(sql, sf_dir)).to_pandas()
    exp = con.execute(sql).df()
    assert sorted(got.columns) == sorted(exp.columns), sql
    got = got[sorted(got.columns)].sort_values(list(sorted(got.columns))).reset_index(drop=True)
    exp = exp[sorted(exp.columns)].sort_values(list(sorted(exp.columns))).reset_index(drop=True)
    assert len(got) == len(exp), sql
    for c in got.columns:
        gv, ev = got[c], exp[c]
        if gv.dtype.kind == "f" or ev.dtype.kind == "f":
            import numpy as np

            assert np.allclose(gv.astype(float), ev.astype(float), rtol=1e-9, equal_nan=True), (sql, c)
        else:
            assert (gv.astype(str) == ev.astype(str)).all(), (sql, c)


def test_fid_special_field_deterministic(sf_dir):
    """FID special field (ogr/ogrfeaturequery.cpp:37): synthesized stable
    row id (fragment_index << 32 | row_in_fragment). Two reads of the same
    files must agree, and FIDs map to file row order."""
    import pyarrow.parquet as pq

    sql = "SELECT FID, c_custkey FROM customer WHERE FID < 10 ORDER BY FID"
    a = to_arrow(execute(sql, sf_dir))
    b = to_arrow(execute(sql, sf_dir))
    assert a.num_rows == 10
    assert a.column("FID").to_pylist() == list(range(10))
    assert a.equals(b)  # determinism across two reads
    # FID i == physical row i of the (single-fragment) file
    direct = pq.read_table(sf_path(sf_dir, "customer"), columns=["c_custkey"])
    assert a.column("c_custkey").to_pylist() == direct["c_custkey"].to_pylist()[:10]


def test_fid_in_aggregate(sf_dir):
    got = to_arrow(execute(
        "SELECT COUNT(*) AS n, MIN(FID) AS lo, MAX(FID) AS hi FROM nation", sf_dir))
    import pyarrow.parquet as pq

    n = pq.read_table(sf_path(sf_dir, "nation")).num_rows
    assert got.column("n").to_pylist() == [n]
    assert got.column("lo").to_pylist() == [0]
    assert got.column("hi").to_pylist() == [n - 1]


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_select("SELECT FROM lineitem")
    with pytest.raises(ValueError):
        parse_select("SELECT a lineitem")
    # SUM(a + b) and COUNT(DISTINCT a + b) are legal since rounds 3/4c
    # (expression targets pre-compute as hidden columns)
    parse_select("SELECT COUNT(DISTINCT a + b) FROM t")


def test_ogr_geom_area_special_field(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gdal_ray.geo import wkb as W

    tri = ("polygon", [np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [0.0, 0.0]])])
    sq = ("polygon", [np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 0.0]])])
    pq.write_table(pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "geometry": pa.array([W.geom_to_wkb(tri), W.geom_to_wkb(sq)], pa.binary()),
    }), str(tmp_path / "polys.parquet"))
    out = to_arrow(execute(
        "SELECT id, OGR_GEOM_AREA AS a FROM polys WHERE OGR_GEOM_AREA > 5", str(tmp_path)
    )).to_pandas().sort_values("id")
    assert out["id"].tolist() == [1] and out["a"].tolist() == [6.0]


def test_custom_sql_function():
    import numpy as np
    import pyarrow as pa

    from gdal_ray.ops.sql import register_sql_function

    def double_plus(col, k):
        import pyarrow.compute as pc

        kv = k.as_py() if isinstance(k, pa.Scalar) else k
        return pc.add(pc.multiply(col, 2), kv)

    register_sql_function("double_plus", double_plus)
    got = to_arrow(execute(
        "SELECT event_id, double_plus(event_id, 5) AS dp FROM events WHERE event_id < 4",
        "/root/testdata/sf0.001",
    )).to_pandas().sort_values("event_id")
    assert got["dp"].tolist() == [5, 7, 9, 11]


def test_ogr_geom_wkt_special_field(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gdal_ray.geo import wkb as W

    pts = W.encode_points(np.array([1.5]), np.array([2.5]))
    pq.write_table(pa.table({
        "id": pa.array([1], pa.int64()),
        "geometry": pa.array(pts, pa.binary()),
    }), str(tmp_path / "pts.parquet"))
    out = to_arrow(execute("SELECT id, OGR_GEOM_WKT AS w FROM pts", str(tmp_path)))
    assert out["w"][0].as_py().startswith("POINT")
    assert "1.5" in out["w"][0].as_py() and "2.5" in out["w"][0].as_py()


def test_ogr_geometry_special_field(tmp_path):
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gdal_ray.geo import wkb as W

    tri = ("polygon", [np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [0.0, 0.0]])])
    pt = W.encode_points(np.array([1.0]), np.array([2.0]))[0]
    pq.write_table(pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "geometry": pa.array([W.geom_to_wkb(tri), pt], pa.binary()),
    }), str(tmp_path / "mix.parquet"))
    out = to_arrow(execute(
        "SELECT id FROM mix WHERE OGR_GEOMETRY = 'POINT'", str(tmp_path)))
    assert out["id"].to_pylist() == [2]


# ---------------------------------------------------------------------------
# round-3 NULL-semantics parity (ADVICE fixes): COUNT(DISTINCT) ignores
# NULLs / all-NULL groups appear with 0; HAVING COUNT(DISTINCT) not in the
# SELECT list; CONCAT skips NULLs while || propagates; SUBSTR with computed
# start/length. Every string runs verbatim in DuckDB.
# ---------------------------------------------------------------------------

NULL_CASES = [
    "SELECT grp, COUNT(DISTINCT val) AS nd FROM nully GROUP BY grp",
    "SELECT grp, COUNT(DISTINCT val) AS nd, COUNT(*) AS n FROM nully GROUP BY grp",
    "SELECT COUNT(DISTINCT val) AS nd FROM nully",
    "SELECT COUNT(DISTINCT val) AS nd FROM nully WHERE grp = 'empty'",
    "SELECT grp, COUNT(*) AS n FROM nully GROUP BY grp HAVING COUNT(DISTINCT val) >= 2",
    "SELECT grp, CONCAT(s, '-', s2) AS c3 FROM nully",
    "SELECT grp, s || s2 AS cat FROM nully",
    "SELECT grp, SUBSTR(s, CAST(pos AS INTEGER)) AS tail FROM nully WHERE s IS NOT NULL",
    "SELECT grp, SUBSTR(s, CAST(pos AS INTEGER), 2) AS mid FROM nully WHERE s IS NOT NULL",
]


@pytest.fixture(scope="module")
def nully_dir(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("nully")
    pq.write_table(pa.table({
        "grp": pa.array(["a", "a", "a", "b", "b", "empty", "empty"]),
        "val": pa.array([1, 2, None, 7, None, None, None], pa.int64()),
        "s": pa.array(["hello", None, "world", "xy", None, "qrs", None]),
        "s2": pa.array([None, "B", "C", None, "E", None, "G"]),
        "pos": pa.array([2, 1, 3, 1, 2, 2, 1], pa.int64()),
    }), str(d / "nully.parquet"))
    return str(d)


@pytest.mark.parametrize("sql", NULL_CASES)
def test_null_semantics_match_duckdb(nully_dir, sql):
    con = duckdb.connect()
    con.execute(
        f"create view nully as select * from read_parquet('{nully_dir}/nully.parquet')")
    got = to_arrow(execute(sql, nully_dir)).to_pandas()
    exp = con.execute(sql).df()
    assert sorted(got.columns) == sorted(exp.columns), sql
    cols = sorted(got.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    exp = exp[cols].sort_values(cols).reset_index(drop=True)
    assert len(got) == len(exp), (sql, got, exp)
    for c in cols:
        gv = got[c].where(got[c].notna(), None).astype(str)
        ev = exp[c].where(exp[c].notna(), None).astype(str)
        assert (gv == ev).all(), (sql, c, got, exp)


def test_cross_join_shared_first_column_count(tmp_path):
    """The right side of a CROSS JOIN whose columns the query never reads
    still has to carry its row count; that carrier must not collide with a
    left column of the same name (both tables here start with `k`)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({"k": [1, 2, 3], "a": ["x", "y", "z"]}),
                   str(tmp_path / "t1.parquet"))
    pq.write_table(pa.table({"k": [10, 20], "b": [0.5, 1.5]}),
                   str(tmp_path / "t2.parquet"))
    con = duckdb.connect()
    for t in ("t1", "t2"):
        con.execute(f"create view {t} as select * from "
                    f"read_parquet('{tmp_path}/{t}.parquet')")
    for sql in ["SELECT COUNT(*) AS n FROM t1 CROSS JOIN t2",
                "SELECT a, COUNT(*) AS n FROM t1, t2 GROUP BY a ORDER BY a",
                "SELECT a, b FROM t1 CROSS JOIN t2 ORDER BY a, b"]:
        got = to_arrow(execute(sql, str(tmp_path))).to_pylist()
        exp = con.execute(sql).arrow().to_pylist()
        assert got == exp, sql


def test_hstore_get_value_and_ogr_style(tmp_path):
    """HSTORE_GET_VALUE special function + OGR_STYLE special field
    (ogr/ogrfeaturequery.cpp:37-38, ogr_swq.h:66)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "tags": pa.array(['"name"=>"cafe", "amenity"=>"bar"',
                          'name=>shop, floors=>2', None]),
    }), str(tmp_path / "osm.parquet"))
    out = to_arrow(execute(
        "SELECT id, HSTORE_GET_VALUE(tags, 'name') AS name, "
        "OGR_STYLE AS style FROM osm", str(tmp_path)
    )).to_pandas().sort_values("id")
    assert out["name"].tolist()[:2] == ["cafe", "shop"]
    assert out["name"].isna().tolist() == [False, False, True]
    assert out["style"].isna().all()
    # quoted keys with escapes + missing key -> NULL
    out2 = to_arrow(execute(
        "SELECT id FROM osm WHERE HSTORE_GET_VALUE(tags, 'amenity') = 'bar'",
        str(tmp_path))).to_pandas()
    assert out2["id"].tolist() == [1]


def test_driver_registry_open(tmp_path):
    """register_driver + open_source (Python driver loader surface)."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    from gdal_ray.sources import open_source, register_driver, unregister_driver

    pq.write_table(pa.table({"a": [1, 2]}), str(tmp_path / "t.parquet"))
    # extension dispatch
    assert to_arrow(open_source(str(tmp_path / "t.parquet"))).num_rows == 2
    # custom scheme
    def read_double(path):
        import ray.data as rd
        return rd.read_parquet(path).map_batches(
            lambda t: t.set_column(0, "a", pa.compute.multiply(t["a"], 2)),
            batch_format="pyarrow", batch_size=None)

    register_driver("dbl", read_double)
    try:
        t = to_arrow(open_source(f"dbl://{tmp_path}/t.parquet"))
        assert sorted(t["a"].to_pylist()) == [2, 4]
    finally:
        unregister_driver("dbl")
    with pytest.raises(ValueError, match="no driver"):
        open_source("nope://x")


def test_in_subquery_and_scalar_subquery(ray_session, sf_dir):
    """Uncorrelated IN (SELECT ...) + scalar (SELECT agg ...) resolve
    against the parquet tables and match DuckDB."""
    import duckdb

    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    sqls = [
        """SELECT c_custkey FROM customer WHERE c_nationkey IN
           (SELECT n_nationkey FROM nation WHERE n_regionkey = 2)""",
        """SELECT o_orderkey,
                  o_totalprice - (SELECT MIN(o_totalprice) FROM orders)
                  AS over_min
           FROM orders WHERE o_orderkey < 100""",
        """SELECT n_name FROM nation WHERE n_regionkey NOT IN
           (SELECT r_regionkey FROM region WHERE r_regionkey IN
              (SELECT n_regionkey FROM nation WHERE n_nationkey < 3))""",
    ]
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "orders"):
        con.execute(f"create view {t} as select * from "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    for s in sqls:
        got = to_arrow(execute(s, sf_dir)).to_pandas()
        exp = con.execute(s).df()
        g = got.sort_values(list(got.columns)).reset_index(drop=True)
        e = exp.sort_values(list(exp.columns)).reset_index(drop=True)
        assert len(g) == len(e), s
        for c in g.columns:
            import numpy as np
            import pandas as pd
            if pd.api.types.is_float_dtype(g[c]):
                assert np.allclose(g[c].to_numpy(), e[c].to_numpy()), (s, c)
            else:
                assert (g[c].to_numpy() == e[c].to_numpy()).all(), (s, c)


def test_scalar_subquery_row_count_error(ray_session, sf_dir):
    import pytest

    from gdal_ray.ops.sql import execute

    with pytest.raises(ValueError, match="scalar subquery"):
        execute("SELECT c_custkey FROM customer WHERE c_acctbal > "
                "(SELECT c_acctbal FROM customer)", sf_dir)


def test_exists_subquery(ray_session, sf_dir):
    """Uncorrelated EXISTS / NOT EXISTS is a constant predicate resolved
    against sf_dir (limit-1 early-out) — matches DuckDB row counts."""
    import duckdb

    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    con = duckdb.connect()
    for t in ("nation", "customer"):
        con.execute(f"create view {t} as select * from "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    sqls = [
        """SELECT n_name FROM nation WHERE EXISTS
           (SELECT n_nationkey FROM nation WHERE n_regionkey = 4)""",
        """SELECT n_name FROM nation WHERE EXISTS
           (SELECT n_nationkey FROM nation WHERE n_regionkey = 99)""",
        """SELECT c_custkey FROM customer WHERE c_custkey < 50 AND
           NOT EXISTS (SELECT n_name FROM nation WHERE n_regionkey = 77)""",
    ]
    for s in sqls:
        got = to_arrow(execute(s, sf_dir)).to_pandas()
        exp = con.execute(s).df()
        assert len(got) == len(exp), s


def test_partsupp_synthesis_deterministic(sf_dir, tmp_path):
    """The synthesized partsupp table (sources/tpch_extra.py) is a pure
    function of the sf_dir's part/supplier keys: two generations produce
    byte-identical tables, keys form a valid primary key, and every
    ps_suppkey exists in supplier (referential integrity the TPC-H
    queries rely on)."""
    import pyarrow.parquet as pq

    from gdal_ray.sources.tpch_extra import ensure_partsupp

    p1 = ensure_partsupp(sf_dir, path=str(tmp_path / "ps1.parquet"))
    p2 = ensure_partsupp(sf_dir, path=str(tmp_path / "ps2.parquet"))
    t1, t2 = pq.read_table(p1), pq.read_table(p2)
    assert t1.equals(t2)
    assert t1.column_names == ["ps_partkey", "ps_suppkey", "ps_availqty",
                               "ps_supplycost"]
    import pandas as pd

    df = t1.to_pandas()
    assert not df.duplicated(["ps_partkey", "ps_suppkey"]).any()
    skeys = set(pq.read_table(sf_path(sf_dir, "supplier"),
                              columns=["s_suppkey"])["s_suppkey"].to_pylist())
    assert set(df["ps_suppkey"]).issubset(skeys)
    assert (df["ps_availqty"] >= 1).all() and (df["ps_availqty"] <= 9999).all()
    # ~4 suppliers per part (dedup may trim at tiny supplier counts)
    per_part = df.groupby("ps_partkey").size()
    assert per_part.max() <= 4 and per_part.median() >= 2


def test_recursive_cte_fixpoint(sf_dir):
    """WITH RECURSIVE (linear recursion): UNION dedup semantics, working
    table = previous round's new rows, natural termination on an empty
    step — verified against DuckDB's recursive CTE on the same string."""
    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    sql = """
    WITH RECURSIVE r AS (
      SELECT CAST(0 AS BIGINT) AS n FROM region
      UNION
      SELECT r.n + 1 FROM r WHERE r.n < 7
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS cnt, CAST(SUM(n) AS BIGINT) AS s FROM r
    """
    got = to_arrow(execute(sql, sf_dir)).to_pandas()
    con = duckdb.connect()
    con.execute(f"create view region as select * from "
                f"read_parquet('{sf_path(sf_dir, 'region')}')")
    exp = con.execute(sql).df()
    assert got["cnt"].iloc[0] == exp["cnt"].iloc[0] == 8
    assert got["s"].iloc[0] == exp["s"].iloc[0] == 28


def test_recursive_cte_union_all_and_guard(sf_dir):
    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    # UNION ALL recursion terminates when the step yields no rows
    sql = """
    WITH RECURSIVE r AS (
      SELECT CAST(1 AS BIGINT) AS n FROM region WHERE r_regionkey = 0
      UNION ALL
      SELECT r.n * 2 FROM r WHERE r.n < 16
    )
    SELECT CAST(SUM(n) AS BIGINT) AS s FROM r
    """
    got = to_arrow(execute(sql, sf_dir)).to_pandas()
    assert got["s"].iloc[0] == 1 + 2 + 4 + 8 + 16
    # non-self-referential UNION body is rejected with a clear error
    with pytest.raises(ValueError, match="self-reference"):
        execute("""WITH x AS (SELECT 1 AS a FROM region UNION
                   SELECT 2 AS a FROM region) SELECT a FROM x""", sf_dir)


def test_sql_asof_join_variants(sf_dir, con):
    """SQL ASOF [LEFT] JOIN vs DuckDB's native ASOF JOIN: keyless
    (range-partitioned path), keyed, LEFT (unmatched rows kept), and
    forward direction via a flipped inequality."""
    import numpy as np

    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    sqls = [
        """SELECT l.event_id AS event_id, r.value AS ref_value
FROM (SELECT event_id, ts FROM events WHERE event_id % 5 = 0) l
ASOF JOIN (SELECT ts, value FROM events WHERE event_id % 9 = 0) r
ON l.ts >= r.ts ORDER BY event_id""",
        """SELECT l.event_id AS event_id, r.value AS ref_value
FROM (SELECT event_id, user_id, ts FROM events WHERE event_id % 5 = 0) l
ASOF LEFT JOIN (SELECT user_id, ts, value FROM events WHERE event_id % 4 = 0) r
ON l.user_id = r.user_id AND l.ts >= r.ts ORDER BY event_id""",
        """SELECT l.event_id AS event_id, r.value AS ref_value
FROM (SELECT event_id, ts FROM events WHERE event_id % 5 = 0) l
ASOF JOIN (SELECT ts, value FROM events WHERE event_id % 9 = 0) r
ON l.ts <= r.ts ORDER BY event_id""",
    ]
    for sql in sqls:
        got = to_arrow(execute(sql, sf_dir)).to_pandas().reset_index(drop=True)
        exp = con.execute(sql).df().reset_index(drop=True)
        assert len(got) == len(exp), sql
        assert (got["event_id"].to_numpy() == exp["event_id"].to_numpy()).all()
        gv = got["ref_value"].to_numpy(float)
        ev = exp["ref_value"].to_numpy(float)
        assert np.all((np.isnan(gv) & np.isnan(ev))
                      | np.isclose(gv, ev, rtol=1e-12, equal_nan=True)), sql


def test_group_by_alias(sf_dir, con):
    """GROUP BY <select alias> (DuckDB shorthand; real columns take
    precedence)."""
    import numpy as np

    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    for sql in [
        "SELECT c_nationkey % 5 AS g, COUNT(*) AS n FROM customer GROUP BY g ORDER BY g",
        "SELECT UPPER(c_mktsegment) AS seg, COUNT(*) AS n FROM customer GROUP BY seg ORDER BY seg",
    ]:
        got = to_arrow(execute(sql, sf_dir)).to_pandas().reset_index(drop=True)
        exp = con.execute(sql).df().reset_index(drop=True)
        assert len(got) == len(exp), sql
        for c in got.columns:
            assert (got[c].astype(str) == exp[c].astype(str)).all(), (sql, c)


def test_range_offset_frames(sf_dir, con):
    """RANGE offset window frames (value windows over the ORDER BY key)
    vs DuckDB — ASC, DESC, asymmetric bounds, CURRENT ROW peers."""
    import numpy as np

    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    sqls = [
        """SELECT o_orderkey, CAST(COUNT(*) OVER (PARTITION BY o_orderpriority ORDER BY o_totalprice
           RANGE BETWEEN 5000 PRECEDING AND 5000 FOLLOWING) AS BIGINT) AS near
           FROM orders WHERE o_orderkey < 400""",
        """SELECT o_orderkey, SUM(o_totalprice) OVER (PARTITION BY o_orderpriority ORDER BY o_totalprice
           RANGE BETWEEN 10000 PRECEDING AND CURRENT ROW) AS s
           FROM orders WHERE o_orderkey < 400""",
        """SELECT o_orderkey, CAST(COUNT(*) OVER (PARTITION BY o_orderpriority ORDER BY o_totalprice DESC
           RANGE BETWEEN 2500 PRECEDING AND 7500 FOLLOWING) AS BIGINT) AS near
           FROM orders WHERE o_orderkey < 300""",
    ]
    for sql in sqls:
        got = to_arrow(execute(sql, sf_dir)).to_pandas()
        exp = con.execute(sql).df()
        got = got.sort_values(list(sorted(got.columns))).reset_index(drop=True)
        exp = exp.sort_values(list(sorted(exp.columns))).reset_index(drop=True)
        assert len(got) == len(exp), sql
        for c in got.columns:
            if got[c].dtype.kind == "f":
                assert np.allclose(got[c], exp[c].astype(float),
                                   rtol=1e-9, equal_nan=True), (sql, c)
            else:
                assert (got[c].astype(str) == exp[c].astype(str)).all(), (sql, c)


def test_nth_value_window(sf_dir, con):
    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    sql = ("SELECT o_orderkey, NTH_VALUE(o_custkey, 3) OVER "
           "(PARTITION BY o_orderpriority ORDER BY o_orderkey) AS nv, "
           "NTH_VALUE(o_custkey, 2) OVER (PARTITION BY o_orderpriority "
           "ORDER BY o_orderkey ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING)"
           " AS nvf FROM orders WHERE o_orderkey < 400")
    got = to_arrow(execute(sql, sf_dir)).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    exp = con.execute(sql).df().sort_values("o_orderkey") \
        .reset_index(drop=True)
    for c in ("nv", "nvf"):
        g = got[c].astype("float64")
        e = exp[c].astype("float64")
        assert ((g.isna() == e.isna()) & ((g == e) | g.isna())).all(), c


def test_array_agg(sf_dir, con):
    """ARRAY_AGG(col ORDER BY col) — ordered typed lists per key, grouped
    and global (list columns need list-aware comparison, so not in CASES)."""
    sql = ("SELECT n_regionkey AS rk, ARRAY_AGG(n_name ORDER BY n_name) "
           "AS names FROM nation GROUP BY n_regionkey ORDER BY rk")
    got = to_arrow(execute(sql, sf_dir)).to_pandas().reset_index(drop=True)
    exp = con.execute(sql).df().reset_index(drop=True)
    assert got["rk"].tolist() == exp["rk"].tolist()
    assert [list(v) for v in got["names"]] == \
           [list(v) for v in exp["names"]]
    sql2 = ("SELECT LIST(n_nationkey ORDER BY n_nationkey) AS ks "
            "FROM nation WHERE n_regionkey = 1")
    g2 = to_arrow(execute(sql2, sf_dir)).to_pandas()
    e2 = con.execute(sql2).df()
    assert list(g2["ks"][0]) == list(e2["ks"][0])


@pytest.mark.parametrize("sql", [
    "SELECT LIST(n_nationkey ORDER BY n_nationkey) AS ks FROM nation "
    "WHERE n_regionkey = 1",
    "SELECT l_orderkey, STRING_AGG(l_discount, ',' ORDER BY l_linenumber) "
    "AS d FROM lineitem WHERE l_orderkey < 40 GROUP BY l_orderkey",
])
def test_list_and_string_agg_blocks_share_one_schema(sf_dir, sql):
    """The typed 0-row block unioned onto every result types LIST as a list
    of its element and STRING_AGG as VARCHAR, as the reducers write them."""
    import ray

    ds = execute(sql, sf_dir)
    schemas = {ray.get(r).schema for r in ds.to_arrow_refs()}
    assert len(schemas) == 1, schemas


def test_try_cast_matches_duckdb(sf_dir, con):
    """TRY_CAST: per-row NULL on conversion failure, including integer
    text outside the target type; numeric strings round half away from
    zero for integer targets (DuckDB measured behavior)."""
    import pyarrow as pa

    from gdal_ray.ops.sql import register_table, unregister_table

    strs = ["12", "x", "3.5", "", None, "-7", "1e3", "08", "2.5", "-2.5",
            "99999999999999999999", "9223372036854775807",
            "-9223372036854775809", "3000000000", "1e30"]
    tb = pa.table({"i": pa.array(range(len(strs)), pa.int64()),
                   "s": pa.array(strs)})
    register_table("tc_try", tb)
    con.register("tc_try", tb)
    try:
        sql = ("SELECT i, TRY_CAST(s AS BIGINT) AS bi, "
               "TRY_CAST(s AS INTEGER) AS ii, "
               "TRY_CAST(s AS DOUBLE) AS dd FROM tc_try ORDER BY i")
        got = to_arrow(execute(sql, sf_dir)).to_pandas()
        exp = con.execute(sql).df()
        for c in ("bi", "ii", "dd"):
            assert (got[c].isna() == exp[c].isna()).all(), c
            assert got[c].dropna().tolist() == exp[c].dropna().tolist(), c
    finally:
        unregister_table("tc_try")


def test_like_escape_similar_to(sf_dir, con):
    """LIKE ... ESCAPE (regex translation honoring the escape char) and
    SIMILAR TO (full-match regex), incl. NOT SIMILAR TO."""
    import pyarrow as pa

    from gdal_ray.ops.sql import register_table, unregister_table

    tb = pa.table({"i": pa.array(range(5), pa.int64()),
                   "s": pa.array(["100%", "10_0", "abc", "a%c", "x_y"])})
    register_table("lk_esc", tb)
    con.register("lk_esc", tb)
    try:
        for sql in [
            "SELECT i, s FROM lk_esc WHERE s LIKE '%!%%' ESCAPE '!' ORDER BY i",
            "SELECT i, s FROM lk_esc WHERE s LIKE '%!_%' ESCAPE '!' ORDER BY i",
            "SELECT i, s FROM lk_esc WHERE s SIMILAR TO '[a-z]+' ORDER BY i",
            "SELECT i, s FROM lk_esc WHERE s NOT SIMILAR TO '[a-z%_0-9]+' ORDER BY i",
        ]:
            got = to_arrow(execute(sql, sf_dir)).to_pandas()
            exp = con.execute(sql).df()
            assert got["i"].tolist() == exp["i"].tolist(), sql
    finally:
        unregister_table("lk_esc")


def test_is_distinct_from_matches_duckdb(sf_dir, con):
    """IS [NOT] DISTINCT FROM: null-safe comparison, never NULL (NULLs
    equal each other, distinct from every value). IFNULL = 2-arg
    COALESCE (NVL accepted as an alias engine-side)."""
    import pyarrow as pa

    from gdal_ray.ops.sql import register_table, unregister_table

    tb = pa.table({"i": pa.array(range(6), pa.int64()),
                   "a": pa.array([1, None, 3, None, 5, 1], pa.int64()),
                   "b": pa.array([1, None, 4, 9, None, None], pa.int64())})
    register_table("nd_dist", tb)
    con.register("nd_dist", tb)
    try:
        sql = ("SELECT i, a IS DISTINCT FROM b AS d, "
               "a IS NOT DISTINCT FROM b AS ndq, IFNULL(a, -1) AS ia "
               "FROM nd_dist ORDER BY i")
        got = to_arrow(execute(sql, sf_dir)).to_pandas()
        exp = con.execute(sql).df()
        for c in ("d", "ndq", "ia"):
            assert got[c].astype(str).tolist() == \
                exp[c].astype(str).tolist(), c
    finally:
        unregister_table("nd_dist")


def test_unnest_list_column(sf_dir, con):
    """UNNEST(list_col) fan-out vs DuckDB, plain and through a derived
    table into a grouped aggregate (DOUBLE-cast before SUM — float32
    summation would not hash-match)."""
    con.execute(
        "create or replace view embeddings as select * from read_parquet('"
        f"{sf_path(sf_dir, 'embeddings')}')")
    sql = ("SELECT label, ROUND(SUM(CAST(e AS DOUBLE)), 4) AS s, "
           "COUNT(*) AS n FROM (SELECT label, UNNEST(embedding) AS e "
           "FROM embeddings) t GROUP BY label ORDER BY label")
    got = to_arrow(execute(sql, sf_dir)).to_pandas().reset_index(drop=True)
    exp = con.execute(sql).df().reset_index(drop=True)
    assert got["label"].tolist() == exp["label"].tolist()
    assert got["s"].tolist() == exp["s"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()
    sql2 = ("SELECT vec_id, UNNEST(embedding) AS e FROM embeddings "
            "WHERE vec_id < 3 ORDER BY vec_id")
    g2 = to_arrow(execute(sql2, sf_dir)).to_pandas()
    e2 = con.execute(sql2).df()
    assert len(g2) == len(e2)
    assert abs(g2["e"].sum() - e2["e"].sum()) < 1e-5


def test_mode_deterministic(sf_dir, con):
    """MODE(col): engine rule is highest count then smallest value; the
    DuckDB oracle states the same rule via ROW_NUMBER (DuckDB's own
    mode() is nondeterministic on frequency ties)."""
    got = to_arrow(execute(
        "SELECT o_custkey % 5 AS ug, MODE(o_orderpriority) AS md "
        "FROM orders GROUP BY o_custkey % 5 ORDER BY ug",
        sf_dir)).to_pandas().reset_index(drop=True)
    exp = con.execute("""
        SELECT ug, v AS md FROM (
          SELECT ug, v, ROW_NUMBER() OVER
                 (PARTITION BY ug ORDER BY c DESC, v) AS rn
          FROM (SELECT o_custkey % 5 AS ug, o_orderpriority AS v,
                       COUNT(*) AS c FROM orders GROUP BY 1, 2) t
        ) w WHERE rn = 1 ORDER BY ug""").df().reset_index(drop=True)
    assert got["ug"].tolist() == exp["ug"].tolist()
    assert got["md"].tolist() == exp["md"].tolist()


def test_quantile_cont(sf_dir, con):
    """QUANTILE_CONT (exact interpolated quantiles, percentile_cont
    semantics) vs DuckDB, grouped and global, mixed with other
    aggregates."""
    import numpy as np

    from gdal_ray.ops.sql import execute
    from gdal_ray.util import to_arrow

    sqls = [
        "SELECT o_orderpriority, QUANTILE_CONT(o_totalprice, 0.5) AS med, "
        "QUANTILE_CONT(o_totalprice, 0.9) AS p90, COUNT(*) AS n "
        "FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority",
        "SELECT QUANTILE_CONT(c_acctbal, 0.25) AS q1 FROM customer",
    ]
    for sql in sqls:
        got = to_arrow(execute(sql, sf_dir)).to_pandas().reset_index(drop=True)
        exp = con.execute(sql).df().reset_index(drop=True)
        assert len(got) == len(exp), sql
        for c in got.columns:
            if got[c].dtype.kind == "f":
                assert np.allclose(got[c].astype(float),
                                   exp[c].astype(float), rtol=1e-9), (sql, c)
            else:
                assert (got[c].astype(str) == exp[c].astype(str)).all(), (sql, c)


def test_array_to_string_matches_duckdb(sf_dir, con):
    """ARRAY_TO_STRING: null elements skipped; empty/all-null lists and
    NULL lists yield NULL (measured DuckDB behavior)."""
    import pyarrow as pa

    from gdal_ray.ops.sql import register_table, unregister_table

    tb = pa.table({"i": pa.array(range(4), pa.int64()),
                   "l": pa.array([["a", None, "b"], [], ["x"], None],
                                 pa.list_(pa.string()))})
    register_table("ats_t", tb)
    con.register("ats_t", tb)
    try:
        for sql in [
            "SELECT i, ARRAY_TO_STRING(l, '-') AS j FROM ats_t ORDER BY i",
            "SELECT doc_id, ARRAY_TO_STRING(STRING_SPLIT(text, ' '), '|')"
            " AS joined FROM documents WHERE doc_id < 10 ORDER BY doc_id",
        ]:
            got = to_arrow(execute(sql, sf_dir)).to_pandas()
            exp = con.execute(sql).df()
            for c in got.columns:
                assert got[c].astype(str).tolist() == \
                    exp[c].astype(str).tolist(), (sql, c)
    finally:
        unregister_table("ats_t")


def test_copy_to_and_ctas(ray_session, sf_dir, tmp_path, con):
    """COPY (sel) TO 'path' (parquet/csv/jsonl) + CREATE TABLE AS ->
    registry-backed follow-up queries."""
    import json

    import pyarrow.parquet as pq_

    sel = ("SELECT o_orderpriority, COUNT(*) AS n FROM orders "
           "GROUP BY o_orderpriority ORDER BY o_orderpriority")
    exp = con.execute(sel).df()

    pqp = str(tmp_path / "out.parquet")
    r = execute(f"COPY ({sel}) TO '{pqp}'", sf_dir)
    assert r["rows"][0].as_py() == len(exp)
    back = pq_.read_table(pqp).to_pandas()
    assert (back["n"].astype(int).tolist() == exp["n"].astype(int).tolist())

    csvp = str(tmp_path / "out.csv")
    execute(f"COPY ({sel}) TO '{csvp}' (FORMAT CSV)", sf_dir)
    import pandas as pd_

    assert pd_.read_csv(csvp)["n"].tolist() == exp["n"].astype(int).tolist()

    jp = str(tmp_path / "out.jsonl")
    execute(f"COPY ({sel}) TO '{jp}' (FORMAT JSONL)", sf_dir)
    rows = [json.loads(line) for line in open(jp)]
    assert [r2["n"] for r2 in rows] == exp["n"].astype(int).tolist()

    r = execute(f"CREATE TABLE prio_counts AS {sel}", sf_dir)
    assert r["rows"][0].as_py() == len(exp)
    try:
        back2 = to_arrow(execute(
            "SELECT SUM(n) AS total FROM prio_counts", sf_dir))
        assert back2["total"][0].as_py() == int(exp["n"].sum())
    finally:
        from gdal_ray.ops.sql import unregister_table

        unregister_table("prio_counts")
