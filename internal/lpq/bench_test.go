package lpq

import (
	"bytes"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

func benchData(b *testing.B) *columnar.Chunk {
	b.Helper()
	return tpch.Gen{SF: 0.01, Seed: 1}.Generate() // ~60k rows × 13 cols
}

func BenchmarkWritePlain(b *testing.B) {
	data := benchData(b)
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFile(tpch.Schema(), WriterOptions{}, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteGzip(b *testing.B) {
	data := benchData(b)
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFile(tpch.Schema(), WriterOptions{Compression: Gzip}, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadAll(b *testing.B) {
	data := benchData(b)
	raw, err := WriteFile(tpch.Schema(), WriterOptions{RowGroupRows: 16384}, data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadProjectedPruned(b *testing.B) {
	// The scan operator's hot path: projection + min/max pruning.
	data := benchData(b)
	raw, err := WriteFile(tpch.Schema(), WriterOptions{RowGroupRows: 4096}, data)
	if err != nil {
		b.Fatal(err)
	}
	preds := []Predicate{{Column: "l_shipdate", Min: float64(tpch.Q6ShipDateLo), Max: float64(tpch.Q6ShipDateHi)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			b.Fatal(err)
		}
		cols := []int{4, 5, 6, 10}
		for _, g := range PruneRowGroups(r.Meta(), preds) {
			if _, err := r.ReadRowGroup(g, cols); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	v := columnar.NewVector(columnar.Int64, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v.AppendInt64(int64(i) * 3)
	}
	b.SetBytes(int64(v.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeColumn(v, Delta); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	v := columnar.NewVector(columnar.Int64, 1<<16)
	for i := 0; i < 1<<16; i++ {
		v.AppendInt64(int64(i) * 3)
	}
	raw, _ := EncodeColumn(v, Delta)
	b.SetBytes(int64(v.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeColumn(raw, columnar.Int64, Delta, v.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteSmallFile writes the kind of file the exchange and result
// collection write by the thousand: 100 rows, three columns, default
// options. Its B/op must track the rows written, not the row-group size
// (TestWriteSmallFileAllocGuard pins it).
func BenchmarkWriteSmallFile(b *testing.B) {
	data := makeChunk(100, 1)
	b.ReportAllocs()
	b.SetBytes(data.ByteSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFile(testSchema(), WriterOptions{}, data); err != nil {
			b.Fatal(err)
		}
	}
}
