package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/sqlfe"
)

// The three query shapes, as parameterized service templates. A :name
// placeholder takes a number raw and anything else as a quoted literal,
// the way the service substitutes request params.
var templates = map[string]string{
	"q1": `SELECT l_returnflag, l_linestatus,
       SUM(l_quantity) AS sum_qty,
       SUM(l_extendedprice) AS sum_base_price,
       SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price,
       AVG(l_discount) AS avg_disc, COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL ':delta' DAY
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`,
	"q6": `SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE :lo AND l_shipdate < DATE :hi
  AND l_discount BETWEEN :dlo AND :dhi AND l_quantity < :qty`,
	"q12": `SELECT o_orderpriority, COUNT(*) AS n, SUM(l_extendedprice) AS total
FROM lineitem INNER JOIN orders ON lineitem.l_orderkey = orders.o_orderkey
WHERE l_receiptdate >= DATE :lo AND l_receiptdate < DATE :hi
  AND l_commitdate < l_receiptdate AND l_quantity <= :qty
GROUP BY o_orderpriority
ORDER BY o_orderpriority`,
}

// query is one request: a template name and its parameter values.
type query struct {
	name   string
	params map[string]string
}

// sql expands the template the way the service does.
func (q query) sql() string {
	s := templates[q.name]
	for k, v := range q.params {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			v = "'" + v + "'"
		}
		s = strings.ReplaceAll(s, ":"+k, v)
	}
	return s
}

// body is the POST /query request for q.
func (q query) body() string {
	b, _ := json.Marshal(map[string]interface{}{"name": q.name, "params": q.params})
	return string(b)
}

func q1(delta int) query {
	return query{"q1", map[string]string{"delta": strconv.Itoa(delta)}}
}

func q6(year, discPct, qty int) query {
	d := float64(discPct) / 100
	return query{"q6", map[string]string{
		"lo":  fmt.Sprintf("%d-01-01", year),
		"hi":  fmt.Sprintf("%d-01-01", year+1),
		"dlo": strconv.FormatFloat(d-0.0100001, 'f', 7, 64),
		"dhi": strconv.FormatFloat(d+0.0100001, 'f', 7, 64),
		"qty": strconv.Itoa(qty),
	}}
}

func q12(year, month, qty int) query {
	return query{"q12", map[string]string{
		"lo":  fmt.Sprintf("%d-%02d-01", year, month),
		"hi":  fmt.Sprintf("%d-%02d-01", year+1, month),
		"qty": strconv.Itoa(qty),
	}}
}

// Parameter universes, one per shape: every draw yields a distinct text.
func q1Universe() []query {
	var qs []query
	for delta := 1; delta <= 200; delta++ {
		qs = append(qs, q1(delta))
	}
	return qs
}

func q6Universe() []query {
	var qs []query
	for year := 1993; year <= 1997; year++ {
		for disc := 2; disc <= 9; disc++ {
			for qty := 22; qty <= 26; qty++ {
				qs = append(qs, q6(year, disc, qty))
			}
		}
	}
	return qs
}

func q12Universe() []query {
	var qs []query
	for year := 1993; year <= 1996; year++ {
		for month := 1; month <= 12; month++ {
			for qty := 46; qty <= 50; qty++ {
				qs = append(qs, q12(year, month, qty))
			}
		}
	}
	return qs
}

// shuffled returns a seeded permutation of qs.
func shuffled(rng *rand.Rand, qs []query) []query {
	out := append([]query(nil), qs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// reference runs sql on the single-node engine over in-memory tables: the
// oracle every distributed result is checked against.
func reference(sql string, tables map[string]*columnar.Chunk) (*columnar.Chunk, error) {
	plan, err := sqlfe.Parse(sql)
	if err != nil {
		return nil, err
	}
	cat := engine.Catalog{}
	for name, c := range tables {
		cat[name] = engine.NewMemSource(c.Schema, c)
	}
	return engine.Execute(plan, cat)
}

// sameFloat is the oracle's float rule: equal to 1e-9 relative.
func sameFloat(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// compareChunk checks a distributed result against the oracle's: same
// columns and types, same rows in order, integers exact, floats to 1e-9.
func compareChunk(got, want *columnar.Chunk) error {
	if err := sameShape(got.Schema, want.Schema); err != nil {
		return err
	}
	if got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), want.NumRows())
	}
	for j, wc := range want.Columns {
		gc := got.Columns[j]
		for i := 0; i < want.NumRows(); i++ {
			if err := sameCell(wc.Type, cellOf(gc, i), cellOf(wc, i)); err != nil {
				return fmt.Errorf("row %d column %s: %v", i, want.Schema.Fields[j].Name, err)
			}
		}
	}
	return nil
}

func sameShape(got, want *columnar.Schema) error {
	if len(got.Fields) != len(want.Fields) {
		return fmt.Errorf("%d columns, want %d", len(got.Fields), len(want.Fields))
	}
	for i, f := range want.Fields {
		if got.Fields[i].Name != f.Name || got.Fields[i].Type != f.Type {
			return fmt.Errorf("column %d is %s %v, want %s %v", i, got.Fields[i].Name, got.Fields[i].Type, f.Name, f.Type)
		}
	}
	return nil
}

// cell is one result value in exact form: integers and booleans as int64,
// floats as float64.
type cell struct {
	i int64
	f float64
}

func cellOf(v *columnar.Vector, row int) cell {
	switch v.Type {
	case columnar.Int64:
		return cell{i: v.Int64s[row]}
	case columnar.Float64:
		return cell{f: v.Float64s[row]}
	default:
		if v.Bools[row] {
			return cell{i: 1}
		}
		return cell{}
	}
}

func sameCell(t columnar.Type, got, want cell) error {
	if t == columnar.Float64 {
		if !sameFloat(got.f, want.f) {
			return fmt.Errorf("%v, want %v", got.f, want.f)
		}
		return nil
	}
	if got.i != want.i {
		return fmt.Errorf("%d, want %d", got.i, want.i)
	}
	return nil
}

// responseJSON is the part of a POST /query response the benchmark reads.
type responseJSON struct {
	Columns []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	} `json:"columns"`
	Rows    [][]json.Number `json:"rows"`
	Profile struct {
		CacheHit   bool  `json:"cacheHit"`
		Stages     int   `json:"stages"`
		Speculated int   `json:"speculated"`
		Invocation int64 `json:"invocationNs"`
	} `json:"profile"`
}

// compareResponse checks a service response against the oracle's chunk.
func compareResponse(got *responseJSON, want *columnar.Chunk) error {
	if len(got.Columns) != len(want.Schema.Fields) {
		return fmt.Errorf("%d columns, want %d", len(got.Columns), len(want.Schema.Fields))
	}
	for i, f := range want.Schema.Fields {
		if got.Columns[i].Name != f.Name || got.Columns[i].Type != f.Type.String() {
			return fmt.Errorf("column %d is %s %s, want %s %v", i, got.Columns[i].Name, got.Columns[i].Type, f.Name, f.Type)
		}
	}
	if len(got.Rows) != want.NumRows() {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), want.NumRows())
	}
	for i, row := range got.Rows {
		if len(row) != len(want.Columns) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(row), len(want.Columns))
		}
		for j, wc := range want.Columns {
			var c cell
			var err error
			switch wc.Type {
			case columnar.Float64:
				c.f, err = row[j].Float64()
			case columnar.Int64:
				c.i, err = row[j].Int64()
			default:
				err = fmt.Errorf("unexpected %v column", wc.Type)
			}
			if err == nil {
				err = sameCell(wc.Type, c, cellOf(wc, i))
			}
			if err != nil {
				return fmt.Errorf("row %d column %s: %v", i, want.Schema.Fields[j].Name, err)
			}
		}
	}
	return nil
}
