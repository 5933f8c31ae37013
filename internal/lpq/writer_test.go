package lpq

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lambada/internal/columnar"
)

// TestWriteSmallFileAllocGuard pins the writer's allocation to the rows it
// is given: a 100-row, three-column file must not pay for a full row group
// per column (about 4.4 MB when the buffer was sized to RowGroupRows).
func TestWriteSmallFileAllocGuard(t *testing.T) {
	const limit = 64 << 10
	if got := testing.Benchmark(BenchmarkWriteSmallFile).AllocedBytesPerOp(); got > limit {
		t.Fatalf("WriteFile of a 100-row chunk allocates %d B/op, limit %d", got, limit)
	}
}

// profileChunk builds a chunk whose columns drive every automatic
// encoding: sorted ints (Delta), run-heavy ints (RLE), low-cardinality
// floats (Dict), random floats (Plain) and bools.
func profileChunk(n int, seed int64) *columnar.Chunk {
	rng := rand.New(rand.NewSource(seed))
	schema := columnar.NewSchema(
		columnar.Field{Name: "sorted", Type: columnar.Int64},
		columnar.Field{Name: "runs", Type: columnar.Int64},
		columnar.Field{Name: "card", Type: columnar.Float64},
		columnar.Field{Name: "noise", Type: columnar.Float64},
		columnar.Field{Name: "flag", Type: columnar.Bool},
	)
	c := columnar.NewChunk(schema, n)
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(i * 3))
		c.Columns[1].AppendInt64(int64(i / 16))
		c.Columns[2].AppendFloat64(float64(rng.Intn(5)) / 2)
		c.Columns[3].AppendFloat64(rng.NormFloat64())
		c.Columns[4].AppendBool(i%40 < 30)
	}
	return c
}

// TestWriterSplitInvariance: a file's bytes do not depend on how its rows
// reach the writer. Feeding the rows in pieces of 1, 7 and RowGroupRows+1
// grows the row buffer in different steps and reuses it across several
// row-group flushes; every layout must still equal WriteFile's.
func TestWriterSplitInvariance(t *testing.T) {
	const n = 437
	c := profileChunk(n, 7)
	layouts := map[string]WriterOptions{
		"default":  {},
		"v1":       {FormatV1: true, RowGroupRows: 100},
		"v2-paged": {RowGroupRows: 150, PageRows: 32},
		"gzip":     {RowGroupRows: 64, PageRows: 16, Compression: Gzip},
		"forced":   {RowGroupRows: 90, ForceEncoding: map[int]Encoding{0: Dict, 2: RLE, 3: Delta, 4: RLE}},
	}
	for name, opts := range layouts {
		want, err := WriteFile(c.Schema, opts, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rgRows := opts.RowGroupRows
		if rgRows == 0 {
			rgRows = DefaultRowGroupRows
		}
		for _, piece := range []int{1, 7, rgRows + 1} {
			var buf bytes.Buffer
			w := NewWriter(&buf, c.Schema, opts)
			for lo := 0; lo < n; lo += piece {
				if err := w.Write(c.Slice(lo, min(lo+piece, n))); err != nil {
					t.Fatalf("%s/%d: %v", name, piece, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("%s/%d: %v", name, piece, err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s: pieces of %d rows give a different file (%d vs %d bytes)", name, piece, buf.Len(), len(want))
			}
		}
		r, err := OpenReader(bytes.NewReader(want), int64(len(want)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if groups := len(r.Meta().RowGroups); opts.RowGroupRows > 0 && groups < 3 {
			t.Fatalf("%s: %d row groups, want several flushes", name, groups)
		}
		got, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Columns, c.Columns) {
			t.Fatalf("%s: rows do not round-trip", name)
		}
	}
}

// TestProfileMatchesReference: the writer's single profiling pass returns
// exactly ChooseEncoding's encoding and distinctEstimate's count, on one
// writer whose distinct sets are cleared and reused across every vector.
func TestProfileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ints := func(n int, f func(i int) int64) *columnar.Vector {
		v := columnar.NewVector(columnar.Int64, n)
		for i := 0; i < n; i++ {
			v.AppendInt64(f(i))
		}
		return v
	}
	floats := func(n int, f func(i int) float64) *columnar.Vector {
		v := columnar.NewVector(columnar.Float64, n)
		for i := 0; i < n; i++ {
			v.AppendFloat64(f(i))
		}
		return v
	}
	bools := func(n int, f func(i int) bool) *columnar.Vector {
		v := columnar.NewVector(columnar.Bool, n)
		for i := 0; i < n; i++ {
			v.AppendBool(f(i))
		}
		return v
	}
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, -1.5, math.Inf(1), math.Inf(-1)}
	vs := []*columnar.Vector{
		ints(0, nil), floats(0, nil), bools(0, nil),
		ints(1, func(int) int64 { return 9 }), floats(1, func(int) float64 { return 9 }), bools(1, func(int) bool { return true }),
		ints(100, func(int) int64 { return -4 }),
		floats(100, func(int) float64 { return 2.5 }),
		bools(100, func(int) bool { return false }),
		ints(3, func(i int) int64 { return int64(3 - i) }),
		ints(5000, func(i int) int64 { return int64(i) }),                      // sorted, > 4096 distinct
		ints(5000, func(i int) int64 { return int64(i / 100) }),                // run-heavy
		ints(10000, func(int) int64 { return rng.Int63() }),                    // > 4096 distinct
		ints(20000, func(int) int64 { return rng.Int63n(4096) }),               // ≤ 4096 distinct
		ints(20000, func(i int) int64 { return int64((i * 7919) % 4097) }),     // 4097 distinct
		ints(400, func(int) int64 { return rng.Int63n(100) - 50 }),             // 100 distinct = n/4
		floats(10000, func(int) float64 { return rng.Float64() }),              // > 4096 distinct
		floats(20000, func(i int) float64 { return float64((i * 31) % 4096) }), // 4096 distinct
		floats(400, func(int) float64 { return specials[rng.Intn(len(specials))] }),
		floats(64, func(i int) float64 { return specials[i%3] }), // NaNs are all distinct; ±0 are one
		bools(64, func(i int) bool { return i%2 == 0 }),
		bools(64, func(i int) bool { return i < 10 }),
	}
	for seed := 0; seed < 200; seed++ {
		n := rng.Intn(300)
		card := 1 + rng.Intn(n+1)
		switch seed % 4 {
		case 0:
			vs = append(vs, ints(n, func(int) int64 { return rng.Int63n(int64(card)) }))
		case 1:
			run := 1 + rng.Intn(8)
			vs = append(vs, ints(n, func(i int) int64 { return int64(i / run * card) }))
		case 2:
			vs = append(vs, floats(n, func(int) float64 { return float64(rng.Intn(card)) }))
		default:
			vs = append(vs, bools(n, func(int) bool { return rng.Intn(card+1) == 0 }))
		}
	}
	w := NewWriter(io.Discard, testSchema(), WriterOptions{})
	seen := map[columnar.Type]map[Encoding]bool{}
	for i, v := range vs {
		enc, distinct := w.profile(v)
		if seen[v.Type] == nil {
			seen[v.Type] = map[Encoding]bool{}
		}
		seen[v.Type][enc] = true
		if want := ChooseEncoding(v); enc != want {
			t.Errorf("vector %d (%v, %d rows): profile encoding %v, ChooseEncoding %v", i, v.Type, v.Len(), enc, want)
		}
		if want := distinctEstimate(v); distinct != want {
			t.Errorf("vector %d (%v, %d rows): profile distinct %d, distinctEstimate %d", i, v.Type, v.Len(), distinct, want)
		}
	}
	// The vectors must reach every encoding each type can take.
	for typ, encs := range map[columnar.Type][]Encoding{
		columnar.Int64:   {Plain, RLE, Delta, Dict},
		columnar.Float64: {Plain, Dict},
		columnar.Bool:    {Plain, RLE},
	} {
		for _, e := range encs {
			if !seen[typ][e] {
				t.Errorf("no %v vector chose %v", typ, e)
			}
		}
	}
}
