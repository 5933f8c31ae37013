package lpq

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"lambada/internal/columnar"
)

// WriterOptions configure file layout.
type WriterOptions struct {
	// RowGroupRows is the maximum number of rows buffered per row group
	// (default 131072). The buffer grows with the data, so a file of a few
	// rows allocates for those rows, not for a full row group.
	RowGroupRows int
	// Compression is the heavy-weight scheme applied to every column chunk
	// after encoding (default None).
	Compression Compression
	// ForceEncoding, if non-nil, overrides the per-column automatic
	// encoding choice (keyed by column index).
	ForceEncoding map[int]Encoding
	// DisableStats omits min/max statistics (used for pruning ablations).
	DisableStats bool
	// PageRows is the page-index granularity of v2 files (default 4096):
	// column chunks longer than PageRows are split into pages, each encoded
	// and compressed independently with per-page min/max statistics.
	PageRows int
	// FormatV1 writes the legacy LPQ1 layout — no page index, no distinct
	// counts — for back-compat tests and read-path ablations.
	FormatV1 bool
}

// DefaultRowGroupRows is the default row-group size.
const DefaultRowGroupRows = 131072

// DefaultPageRows is the default v2 page-index granularity.
const DefaultPageRows = 4096

// Writer writes an lpq file. Rows are buffered and flushed as row groups.
type Writer struct {
	w      io.Writer
	opts   WriterOptions
	schema *columnar.Schema
	buf    *columnar.Chunk
	meta   FileMeta
	offset int64
	closed bool
	// ints and floats are profile's distinct sets, cleared and reused for
	// every column chunk the writer flushes.
	ints   map[int64]struct{}
	floats map[float64]struct{}
}

// NewWriter returns a writer emitting to w with the given schema.
func NewWriter(w io.Writer, schema *columnar.Schema, opts WriterOptions) *Writer {
	if opts.RowGroupRows <= 0 {
		opts.RowGroupRows = DefaultRowGroupRows
	}
	if opts.PageRows <= 0 {
		opts.PageRows = DefaultPageRows
	}
	return &Writer{
		w:      w,
		opts:   opts,
		schema: schema,
		buf:    columnar.NewChunk(schema, 0),
		meta:   FileMeta{Schema: schema},
	}
}

// Write appends the chunk's rows, flushing full row groups.
func (w *Writer) Write(c *columnar.Chunk) error {
	if w.closed {
		return fmt.Errorf("lpq: write after close")
	}
	if !c.Schema.Equal(w.schema) {
		return fmt.Errorf("lpq: chunk schema %q != file schema %q", c.Schema, w.schema)
	}
	if err := c.Validate(); err != nil {
		return err
	}
	n := c.NumRows()
	for row := 0; row < n; {
		take := min(n-row, w.opts.RowGroupRows-w.buf.NumRows())
		for j, dst := range w.buf.Columns {
			dst.AppendVector(c.Columns[j].Slice(row, row+take))
		}
		row += take
		if w.buf.NumRows() >= w.opts.RowGroupRows {
			if err := w.flushRowGroup(); err != nil {
				return err
			}
		}
	}
	return nil
}

// profile is the writer's single pass over a column chunk. It returns the
// automatic encoding, exactly ChooseEncoding(v), and the exact distinct
// count, exactly distinctEstimate(v), from one distinct set that the writer
// clears and reuses for every chunk.
func (w *Writer) profile(v *columnar.Vector) (Encoding, int64) {
	n := v.Len()
	if n == 0 {
		return Plain, 0
	}
	enc := Plain
	switch v.Type {
	case columnar.Int64:
		w.ints = emptySet(w.ints)
		xs := v.Int64s
		sorted, runs := true, 1
		w.ints[xs[0]] = struct{}{}
		for i := 1; i < n; i++ {
			if xs[i] != xs[i-1] {
				runs++
				sorted = sorted && xs[i] > xs[i-1]
				w.ints[xs[i]] = struct{}{}
			}
		}
		d := len(w.ints)
		switch {
		case runs <= n/4:
			enc = RLE
		case sorted:
			enc = Delta
		case d <= maxDictDistinct && d <= n/4:
			enc = Dict
		}
		return enc, int64(d)
	case columnar.Float64:
		w.floats = emptySet(w.floats)
		for _, x := range v.Float64s {
			w.floats[x] = struct{}{}
		}
		d := len(w.floats)
		if d <= maxDictDistinct && d <= n/4 {
			enc = Dict
		}
		return enc, int64(d)
	default:
		runs := 1
		for i := 1; i < n; i++ {
			if v.Bools[i] != v.Bools[i-1] {
				runs++
			}
		}
		if runs <= n/4 {
			enc = RLE
		}
		return enc, int64(min(runs, 2))
	}
}

// emptySet returns s cleared, allocating it on first use.
func emptySet[K comparable](s map[K]struct{}) map[K]struct{} {
	if s == nil {
		return make(map[K]struct{}, 64)
	}
	clear(s)
	return s
}

// compress applies the configured heavy-weight compression to raw.
func (w *Writer) compress(raw []byte) ([]byte, error) {
	if w.opts.Compression != Gzip {
		return raw, nil
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return zbuf.Bytes(), nil
}

// sliceVector returns the [lo,hi) view of v (shares backing storage).
func sliceVector(v *columnar.Vector, lo, hi int) *columnar.Vector {
	out := &columnar.Vector{Type: v.Type}
	switch v.Type {
	case columnar.Int64:
		out.Int64s = v.Int64s[lo:hi]
	case columnar.Float64:
		out.Float64s = v.Float64s[lo:hi]
	case columnar.Bool:
		out.Bools = v.Bools[lo:hi]
	}
	return out
}

// encodeChunk encodes (and compresses) a whole column as one unpaged blob —
// the v1 chunk layout. Falls back to Plain when enc cannot encode col.
func (w *Writer) encodeChunk(col *columnar.Vector, enc Encoding) (ColumnChunkMeta, []byte, error) {
	raw, err := EncodeColumn(col, enc)
	if err != nil {
		// Fall back to Plain for unsupported forced combinations.
		enc = Plain
		raw, err = EncodeColumn(col, enc)
		if err != nil {
			return ColumnChunkMeta{}, nil, err
		}
	}
	stored, err := w.compress(raw)
	if err != nil {
		return ColumnChunkMeta{}, nil, err
	}
	cc := ColumnChunkMeta{
		CompressedLen:   int64(len(stored)),
		UncompressedLen: int64(len(raw)),
		Encoding:        enc,
		Compression:     w.opts.Compression,
	}
	return cc, stored, nil
}

// encodePagedChunk splits col at PageRows boundaries and encodes every page
// independently with enc, so readers can fetch and decode pages on their
// own. All pages share one encoding: if any page fails under enc, the whole
// chunk restarts as Plain (which never fails).
func (w *Writer) encodePagedChunk(col *columnar.Vector, enc Encoding) (ColumnChunkMeta, []byte, error) {
	n := col.Len()
	for {
		cc := ColumnChunkMeta{Encoding: enc, Compression: w.opts.Compression}
		var stored []byte
		failed := false
		for lo := 0; lo < n; lo += w.opts.PageRows {
			hi := lo + w.opts.PageRows
			if hi > n {
				hi = n
			}
			pv := sliceVector(col, lo, hi)
			raw, err := EncodeColumn(pv, enc)
			if err != nil {
				if enc == Plain {
					return ColumnChunkMeta{}, nil, err
				}
				failed = true
				break
			}
			z, err := w.compress(raw)
			if err != nil {
				return ColumnChunkMeta{}, nil, err
			}
			pg := PageMeta{
				NumRows:         int64(hi - lo),
				RelOff:          int64(len(stored)),
				CompressedLen:   int64(len(z)),
				UncompressedLen: int64(len(raw)),
			}
			if !w.opts.DisableStats {
				pg.Stats = computeStats(pv)
			}
			stored = append(stored, z...)
			cc.Pages = append(cc.Pages, pg)
			cc.UncompressedLen += int64(len(raw))
		}
		if failed {
			enc = Plain
			continue
		}
		cc.CompressedLen = int64(len(stored))
		return cc, stored, nil
	}
}

// pageStatsUseful reports whether a paged chunk's per-page bounds can
// actually prune. Bounds only exclude a page when the page covers a
// narrower value range than the chunk — i.e. the column is clustered. For
// unclustered columns every page spans nearly the whole chunk range, the
// bounds never prune anything, and storing them only fattens the footer
// every reader downloads. Rule: keep page stats when the average page
// range is at most half the chunk range.
func pageStatsUseful(pages []PageMeta, chunk Stats) bool {
	if !chunk.HasMinMax {
		return false
	}
	width := chunk.MaxF - chunk.MinF
	var sum float64
	for _, pg := range pages {
		if !pg.Stats.HasMinMax {
			return false
		}
		sum += pg.Stats.MaxF - pg.Stats.MinF
	}
	return sum*2 <= width*float64(len(pages))
}

func (w *Writer) flushRowGroup() error {
	n := w.buf.NumRows()
	if n == 0 {
		return nil
	}
	rg := RowGroupMeta{NumRows: int64(n)}
	for j, col := range w.buf.Columns {
		enc, distinct := w.profile(col)
		if forced, ok := w.opts.ForceEncoding[j]; ok {
			enc = forced
		}
		var cc ColumnChunkMeta
		var stored []byte
		var err error
		if w.opts.FormatV1 || n <= w.opts.PageRows {
			cc, stored, err = w.encodeChunk(col, enc)
		} else {
			cc, stored, err = w.encodePagedChunk(col, enc)
		}
		if err != nil {
			return err
		}
		cc.Offset = w.offset
		if !w.opts.DisableStats {
			cc.Stats = computeStats(col)
		}
		if !w.opts.FormatV1 {
			cc.DistinctEst = distinct
			// The columnar layer stores no nulls; the footer records that
			// fact exactly rather than leaving the count unknown.
			cc.NullCount = 0
			if len(cc.Pages) > 0 && !pageStatsUseful(cc.Pages, cc.Stats) {
				for p := range cc.Pages {
					cc.Pages[p].Stats = Stats{}
				}
			}
		}
		if _, err := w.w.Write(stored); err != nil {
			return err
		}
		w.offset += int64(len(stored))
		rg.Columns = append(rg.Columns, cc)
	}
	w.meta.RowGroups = append(w.meta.RowGroups, rg)
	w.meta.TotalRows += int64(n)
	for _, col := range w.buf.Columns {
		col.Reset()
	}
	return nil
}

// Close flushes the pending row group and writes the footer trailer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	if err := w.flushRowGroup(); err != nil {
		return err
	}
	footer := encodeFooter(&w.meta, !w.opts.FormatV1)
	if _, err := w.w.Write(footer); err != nil {
		return err
	}
	magic := Magic2
	if w.opts.FormatV1 {
		magic = Magic
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint32(trailer[0:], uint32(len(footer)))
	copy(trailer[4:], magic[:])
	if _, err := w.w.Write(trailer[:]); err != nil {
		return err
	}
	w.offset += int64(len(footer)) + 8
	w.closed = true
	return nil
}

// Meta returns the accumulated metadata (valid after Close).
func (w *Writer) Meta() *FileMeta { return &w.meta }

// Size returns the bytes written so far (the final file size after Close).
func (w *Writer) Size() int64 { return w.offset }

// WriteFile serializes chunks into one in-memory lpq file.
func WriteFile(schema *columnar.Schema, opts WriterOptions, chunks ...*columnar.Chunk) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf, schema, opts)
	for _, c := range chunks {
		if err := w.Write(c); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
