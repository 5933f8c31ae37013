package lpq

import (
	"encoding/binary"
	"fmt"
	"math"

	"lambada/internal/columnar"
)

// Magic is the v1 file trailer magic.
var Magic = [4]byte{'L', 'P', 'Q', '1'}

// Magic2 is the v2 file trailer magic. A v2 footer extends every column
// chunk with a distinct-count estimate and an optional page index (min/max
// statistics at PageMeta granularity); v1 files keep reading unchanged.
var Magic2 = [4]byte{'L', 'P', 'Q', '2'}

// Compression identifies the heavy-weight compression applied after
// encoding.
type Compression uint8

// Supported compressions.
const (
	None Compression = iota
	Gzip
)

// String names the compression.
func (c Compression) String() string {
	switch c {
	case None:
		return "NONE"
	case Gzip:
		return "GZIP"
	default:
		return fmt.Sprintf("Compression(%d)", uint8(c))
	}
}

// Stats hold the min/max statistics of one column chunk for numeric types.
type Stats struct {
	HasMinMax bool
	// MinInt/MaxInt are valid for Int64 columns, MinF/MaxF for Float64.
	MinInt, MaxInt int64
	MinF, MaxF     float64
}

// PageMeta describes one page of a paged column chunk: a fixed-row-count
// slice of the chunk, encoded and compressed independently so it can be
// fetched and decoded on its own. RelOff is the page's byte offset relative
// to the chunk's Offset.
type PageMeta struct {
	NumRows         int64
	RelOff          int64
	CompressedLen   int64
	UncompressedLen int64
	Stats           Stats
}

// ColumnChunkMeta locates one column chunk inside the file.
type ColumnChunkMeta struct {
	Offset          int64
	CompressedLen   int64
	UncompressedLen int64
	Encoding        Encoding
	Compression     Compression
	Stats           Stats
	// DistinctEst estimates the chunk's distinct value count (v2 footers;
	// 0 = unknown). Exact for the row-group sizes the writer produces.
	DistinctEst int64
	// NullCount is the chunk's null-value count (v2 footers; 0 = none or
	// unknown). The columnar layer has no null representation, so the
	// writer always emits 0, but readers honor counts written by other
	// producers: an all-null chunk prunes its row group for any predicate
	// on the column, and partial counts tighten row estimates.
	NullCount int64
	// Pages is the v2 page index: the chunk split at WriterOptions.PageRows
	// boundaries, every page separately encoded (with the chunk's encoding)
	// and compressed. Nil for v1 files and chunks of at most one page, whose
	// byte layout is exactly the v1 single-blob form.
	Pages []PageMeta
}

// PageSpans returns the chunk's page list, synthesizing a single page
// covering the whole chunk when it is unpaged: page-level pruning and late
// materialization then degrade gracefully to row-group granularity.
func (cc *ColumnChunkMeta) PageSpans(numRows int64) []PageMeta {
	if len(cc.Pages) > 0 {
		return cc.Pages
	}
	return []PageMeta{{
		NumRows:         numRows,
		RelOff:          0,
		CompressedLen:   cc.CompressedLen,
		UncompressedLen: cc.UncompressedLen,
		Stats:           cc.Stats,
	}}
}

// RowGroupMeta describes one row group.
type RowGroupMeta struct {
	NumRows int64
	Columns []ColumnChunkMeta
}

// ByteRange returns the file range [lo, hi) covered by the row group's
// column chunks.
func (rg *RowGroupMeta) ByteRange() (lo, hi int64) {
	lo = math.MaxInt64
	for _, c := range rg.Columns {
		if c.Offset < lo {
			lo = c.Offset
		}
		if end := c.Offset + c.CompressedLen; end > hi {
			hi = end
		}
	}
	if lo == math.MaxInt64 {
		lo = 0
	}
	return lo, hi
}

// FileMeta is the parsed footer.
type FileMeta struct {
	Schema    *columnar.Schema
	RowGroups []RowGroupMeta
	TotalRows int64
}

// NumRowGroups returns the row-group count.
func (m *FileMeta) NumRowGroups() int { return len(m.RowGroups) }

// putStats appends a stats block: a presence flag byte, then 32 bytes of
// int and float min/max when present.
func putStats(out []byte, st Stats) []byte {
	if !st.HasMinMax {
		return append(out, 0)
	}
	out = append(out, 1)
	var tmp [16]byte
	binary.LittleEndian.PutUint64(tmp[0:], uint64(st.MinInt))
	binary.LittleEndian.PutUint64(tmp[8:], uint64(st.MaxInt))
	out = append(out, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[0:], math.Float64bits(st.MinF))
	binary.LittleEndian.PutUint64(tmp[8:], math.Float64bits(st.MaxF))
	return append(out, tmp[:]...)
}

// readStats parses a stats block written by putStats.
func readStats(r *byteReader) (Stats, error) {
	var st Stats
	hs, err := r.byte()
	if err != nil {
		return st, err
	}
	if hs != 1 {
		return st, nil
	}
	b, err := r.bytes(32)
	if err != nil {
		return st, err
	}
	st.HasMinMax = true
	st.MinInt = int64(binary.LittleEndian.Uint64(b[0:]))
	st.MaxInt = int64(binary.LittleEndian.Uint64(b[8:]))
	st.MinF = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	st.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	return st, nil
}

// putPageIndex appends a column chunk's compact v2 page index. The footer
// is pure overhead every reader must download, so the index stores only
// what cannot be derived: per-page byte lengths (offsets are cumulative —
// the writer lays pages out contiguously) and, when present, typed bounds
// (zigzag varints for Int64/Bool, raw float64 bits for Float64 — the other
// mirror is reconstructed on decode exactly as computeStats would fill
// it). Page row counts collapse to one uvarint: every page holds pageRows
// rows except the last, which holds the row group's remainder. Bounds are
// all-or-none per chunk (one flag byte), matching what the writer emits.
func putPageIndex(out []byte, pages []PageMeta, t columnar.Type) []byte {
	out = putUvarint(out, uint64(len(pages)))
	if len(pages) == 0 {
		return out
	}
	out = putUvarint(out, uint64(pages[0].NumRows))
	for _, pg := range pages {
		out = putUvarint(out, uint64(pg.CompressedLen))
		out = putUvarint(out, uint64(pg.UncompressedLen))
	}
	hasStats := true
	for _, pg := range pages {
		if !pg.Stats.HasMinMax {
			hasStats = false
			break
		}
	}
	if !hasStats {
		return append(out, 0)
	}
	out = append(out, 1)
	for _, pg := range pages {
		if t == columnar.Float64 {
			var tmp [16]byte
			binary.LittleEndian.PutUint64(tmp[0:], math.Float64bits(pg.Stats.MinF))
			binary.LittleEndian.PutUint64(tmp[8:], math.Float64bits(pg.Stats.MaxF))
			out = append(out, tmp[:]...)
		} else {
			out = putUvarint(out, zigzag(pg.Stats.MinInt))
			out = putUvarint(out, zigzag(pg.Stats.MaxInt))
		}
	}
	return out
}

// readPageIndex parses a page index written by putPageIndex, reconstructing
// offsets, row counts, and stat mirrors.
func readPageIndex(r *byteReader, t columnar.Type, groupRows int64) ([]PageMeta, error) {
	np, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if np == 0 {
		return nil, nil
	}
	if np > 1<<24 {
		return nil, fmt.Errorf("lpq: implausible page count %d", np)
	}
	pageRows, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if pageRows == 0 || int64(np-1)*int64(pageRows) >= groupRows || int64(np)*int64(pageRows) < groupRows {
		return nil, fmt.Errorf("lpq: %d pages of %d rows cannot tile a %d-row group", np, pageRows, groupRows)
	}
	pages := make([]PageMeta, np)
	var off int64
	for p := range pages {
		pcl, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pul, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		pages[p] = PageMeta{
			NumRows:         int64(pageRows),
			RelOff:          off,
			CompressedLen:   int64(pcl),
			UncompressedLen: int64(pul),
		}
		off += int64(pcl)
	}
	pages[np-1].NumRows = groupRows - int64(np-1)*int64(pageRows)
	hs, err := r.byte()
	if err != nil {
		return nil, err
	}
	if hs == 0 {
		return pages, nil
	}
	for p := range pages {
		st := &pages[p].Stats
		st.HasMinMax = true
		if t == columnar.Float64 {
			b, err := r.bytes(16)
			if err != nil {
				return nil, err
			}
			st.MinF = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
			st.MaxF = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			st.MinInt, st.MaxInt = int64(st.MinF), int64(st.MaxF)
		} else {
			mn, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			mx, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			st.MinInt, st.MaxInt = unzigzag(mn), unzigzag(mx)
			st.MinF, st.MaxF = float64(st.MinInt), float64(st.MaxInt)
		}
	}
	return pages, nil
}

// encodeFooter serializes the footer body (without length/magic trailer).
// A v2 footer is the v1 layout plus, per column chunk, a distinct-count
// estimate and the page index.
func encodeFooter(m *FileMeta, v2 bool) []byte {
	var out []byte
	out = putUvarint(out, uint64(m.Schema.Len()))
	for _, f := range m.Schema.Fields {
		out = putUvarint(out, uint64(len(f.Name)))
		out = append(out, f.Name...)
		out = append(out, byte(f.Type))
	}
	out = putUvarint(out, uint64(len(m.RowGroups)))
	for _, rg := range m.RowGroups {
		out = putUvarint(out, uint64(rg.NumRows))
		for ci, c := range rg.Columns {
			out = putUvarint(out, uint64(c.Offset))
			out = putUvarint(out, uint64(c.CompressedLen))
			out = putUvarint(out, uint64(c.UncompressedLen))
			out = append(out, byte(c.Encoding), byte(c.Compression))
			out = putStats(out, c.Stats)
			if v2 {
				out = putUvarint(out, uint64(c.DistinctEst))
				out = putUvarint(out, uint64(c.NullCount))
				out = putPageIndex(out, c.Pages, m.Schema.Fields[ci].Type)
			}
		}
	}
	out = putUvarint(out, uint64(m.TotalRows))
	return out
}

// decodeFooter parses a footer body.
func decodeFooter(data []byte, v2 bool) (*FileMeta, error) {
	r := &byteReader{b: data}
	nf, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nf == 0 || nf > 1<<16 {
		return nil, fmt.Errorf("lpq: implausible field count %d", nf)
	}
	schema := &columnar.Schema{}
	for i := uint64(0); i < nf; i++ {
		nameLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, err
		}
		tb, err := r.byte()
		if err != nil {
			return nil, err
		}
		if tb > byte(columnar.Bool) {
			return nil, fmt.Errorf("lpq: unknown type byte %d", tb)
		}
		schema.Fields = append(schema.Fields, columnar.Field{Name: string(name), Type: columnar.Type(tb)})
	}
	nrg, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	m := &FileMeta{Schema: schema}
	for g := uint64(0); g < nrg; g++ {
		var rg RowGroupMeta
		rows, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		rg.NumRows = int64(rows)
		for c := 0; c < schema.Len(); c++ {
			var cc ColumnChunkMeta
			off, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			clen, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			ulen, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			eb, err := r.byte()
			if err != nil {
				return nil, err
			}
			cb, err := r.byte()
			if err != nil {
				return nil, err
			}
			cc.Offset, cc.CompressedLen, cc.UncompressedLen = int64(off), int64(clen), int64(ulen)
			cc.Encoding, cc.Compression = Encoding(eb), Compression(cb)
			if cc.Stats, err = readStats(r); err != nil {
				return nil, err
			}
			if v2 {
				de, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				cc.DistinctEst = int64(de)
				nc, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				cc.NullCount = int64(nc)
				if cc.Pages, err = readPageIndex(r, schema.Fields[c].Type, rg.NumRows); err != nil {
					return nil, err
				}
			}
			rg.Columns = append(rg.Columns, cc)
		}
		m.RowGroups = append(m.RowGroups, rg)
	}
	total, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	m.TotalRows = int64(total)
	if r.remaining() != 0 {
		return nil, fmt.Errorf("lpq: %d trailing footer bytes", r.remaining())
	}
	return m, nil
}

// distinctEstimate counts a vector's distinct values. Exact: row groups
// hold at most WriterOptions.RowGroupRows values, small enough for a map
// pass at write time. The writer takes this count from its single
// profiling pass (Writer.profile), which shares one distinct set with the
// encoding choice; this standalone form is the reference that pass is
// tested against.
func distinctEstimate(v *columnar.Vector) int64 {
	switch v.Type {
	case columnar.Int64:
		seen := make(map[int64]struct{}, 64)
		for _, x := range v.Int64s {
			seen[x] = struct{}{}
		}
		return int64(len(seen))
	case columnar.Float64:
		seen := make(map[float64]struct{}, 64)
		for _, x := range v.Float64s {
			seen[x] = struct{}{}
		}
		return int64(len(seen))
	case columnar.Bool:
		var t, f bool
		for _, x := range v.Bools {
			if x {
				t = true
			} else {
				f = true
			}
			if t && f {
				break
			}
		}
		n := int64(0)
		if t {
			n++
		}
		if f {
			n++
		}
		return n
	}
	return 0
}

// computeStats derives min/max statistics for a vector.
func computeStats(v *columnar.Vector) Stats {
	var s Stats
	switch v.Type {
	case columnar.Int64:
		if len(v.Int64s) == 0 {
			return s
		}
		s.HasMinMax = true
		s.MinInt, s.MaxInt = v.Int64s[0], v.Int64s[0]
		for _, x := range v.Int64s {
			if x < s.MinInt {
				s.MinInt = x
			}
			if x > s.MaxInt {
				s.MaxInt = x
			}
		}
		s.MinF, s.MaxF = float64(s.MinInt), float64(s.MaxInt)
	case columnar.Float64:
		if len(v.Float64s) == 0 {
			return s
		}
		s.HasMinMax = true
		s.MinF, s.MaxF = v.Float64s[0], v.Float64s[0]
		for _, x := range v.Float64s {
			if x < s.MinF {
				s.MinF = x
			}
			if x > s.MaxF {
				s.MaxF = x
			}
		}
		s.MinInt, s.MaxInt = int64(s.MinF), int64(s.MaxF)
	}
	return s
}
