package lpq

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"lambada/internal/columnar"
)

// FooterGuess is how many trailing bytes the reader speculatively fetches;
// when the footer fits (the common case) opening costs a single ranged read,
// matching the paper's "loads this metadata with a single file read". The
// guess is billed in full on every open, so it is sized to the footers this
// writer actually produces (tens of bytes per column chunk) rather than a
// conservative blanket value: a too-large guess silently re-downloads small
// objects end to end on every metadata open. Footers longer than the guess
// cost one extra ranged read of exactly the missing prefix.
const FooterGuess = 4 * 1024

// Reader reads an lpq file from any io.ReaderAt — an in-memory buffer, an
// OS file, or an S3-backed random-access file.
type Reader struct {
	r    io.ReaderAt
	size int64
	meta *FileMeta
	// MetadataReads counts how many ReadAt calls opening the footer took.
	MetadataReads int
}

// OpenReader parses the footer and returns a reader.
func OpenReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < 8 {
		return nil, fmt.Errorf("lpq: file too small (%d bytes)", size)
	}
	rd := &Reader{r: r, size: size}
	guess := int64(FooterGuess)
	if guess > size {
		guess = size
	}
	tail := make([]byte, guess)
	if _, err := r.ReadAt(tail, size-guess); err != nil {
		return nil, fmt.Errorf("lpq: reading footer: %w", err)
	}
	rd.MetadataReads = 1
	trailer := tail[len(tail)-8:]
	var v2 bool
	switch {
	case bytes.Equal(trailer[4:], Magic2[:]):
		v2 = true
	case bytes.Equal(trailer[4:], Magic[:]):
		v2 = false
	default:
		return nil, fmt.Errorf("lpq: bad magic %q", trailer[4:])
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer[:4]))
	if footerLen+8 > size {
		return nil, fmt.Errorf("lpq: footer length %d exceeds file size %d", footerLen, size)
	}
	var footer []byte
	if footerLen+8 <= guess {
		footer = tail[guess-8-footerLen : guess-8]
	} else {
		// The tail already holds the footer's suffix; fetch only the
		// missing prefix rather than re-billing bytes in hand.
		footer = make([]byte, footerLen)
		missing := footerLen + 8 - guess
		if _, err := r.ReadAt(footer[:missing], size-8-footerLen); err != nil {
			return nil, fmt.Errorf("lpq: reading long footer: %w", err)
		}
		copy(footer[missing:], tail[:guess-8])
		rd.MetadataReads = 2
	}
	meta, err := decodeFooter(footer, v2)
	if err != nil {
		return nil, err
	}
	rd.meta = meta
	return rd, nil
}

// Meta returns the file metadata.
func (r *Reader) Meta() *FileMeta { return r.meta }

// Schema returns the file schema.
func (r *Reader) Schema() *columnar.Schema { return r.meta.Schema }

// ReadColumn reads, decompresses and decodes one column chunk.
func (r *Reader) ReadColumn(rowGroup, col int) (*columnar.Vector, error) {
	if rowGroup < 0 || rowGroup >= len(r.meta.RowGroups) {
		return nil, fmt.Errorf("lpq: row group %d out of range", rowGroup)
	}
	rg := &r.meta.RowGroups[rowGroup]
	if col < 0 || col >= len(rg.Columns) {
		return nil, fmt.Errorf("lpq: column %d out of range", col)
	}
	cc := rg.Columns[col]
	stored := make([]byte, cc.CompressedLen)
	if _, err := r.r.ReadAt(stored, cc.Offset); err != nil {
		return nil, fmt.Errorf("lpq: reading column chunk: %w", err)
	}
	return DecodeColumnChunk(stored, r.meta.Schema.Fields[col].Type, cc, rg.NumRows)
}

// DecodeColumnChunk decompresses and decodes stored column-chunk bytes. It
// is exported so the S3 scan operator can download bytes itself (with its
// own concurrency strategy) and still reuse the decode path.
func DecodeColumnChunk(stored []byte, t columnar.Type, cc ColumnChunkMeta, numRows int64) (*columnar.Vector, error) {
	v, _, err := DecodeColumnChunkBuf(stored, t, cc, numRows, nil)
	return v, err
}

// DecodeColumnChunkBuf is DecodeColumnChunk with a reusable decompression
// scratch buffer: gzip output is inflated into scratch (grown as needed)
// instead of a fresh io.ReadAll allocation per chunk. It returns the
// (possibly grown) scratch for the caller to thread through subsequent
// calls. The returned vector never aliases scratch — every decoder copies
// values out — so reusing scratch immediately is safe.
func DecodeColumnChunkBuf(stored []byte, t columnar.Type, cc ColumnChunkMeta, numRows int64, scratch []byte) (*columnar.Vector, []byte, error) {
	if len(cc.Pages) > 0 {
		// Paged v2 chunk: every page is independently encoded and
		// compressed, so decode page by page and concatenate.
		out := columnar.NewVector(t, int(numRows))
		var total int64
		for i := range cc.Pages {
			pg := &cc.Pages[i]
			if pg.RelOff+pg.CompressedLen > int64(len(stored)) {
				return nil, scratch, fmt.Errorf("lpq: page %d spans [%d,%d) beyond chunk of %d bytes",
					i, pg.RelOff, pg.RelOff+pg.CompressedLen, len(stored))
			}
			var v *columnar.Vector
			var err error
			v, scratch, err = DecodePage(stored[pg.RelOff:pg.RelOff+pg.CompressedLen], t, cc, *pg, scratch)
			if err != nil {
				return nil, scratch, err
			}
			out.AppendVector(v)
			total += pg.NumRows
		}
		if total != numRows {
			return nil, scratch, fmt.Errorf("lpq: page rows sum to %d, row group has %d", total, numRows)
		}
		return out, scratch, nil
	}
	raw := stored
	if cc.Compression == Gzip {
		zr, err := gzip.NewReader(bytes.NewReader(stored))
		if err != nil {
			return nil, scratch, fmt.Errorf("lpq: gzip: %w", err)
		}
		if int64(cap(scratch)) < cc.UncompressedLen {
			scratch = make([]byte, cc.UncompressedLen)
		}
		raw = scratch[:cc.UncompressedLen]
		if _, err := io.ReadFull(zr, raw); err != nil {
			return nil, scratch, fmt.Errorf("lpq: gunzip: %w", err)
		}
		var extra [1]byte
		if n, _ := zr.Read(extra[:]); n != 0 {
			return nil, scratch, fmt.Errorf("lpq: uncompressed data longer than expected %d", cc.UncompressedLen)
		}
		if err := zr.Close(); err != nil {
			return nil, scratch, err
		}
	} else if int64(len(raw)) != cc.UncompressedLen {
		return nil, scratch, fmt.Errorf("lpq: uncompressed length %d != expected %d", len(raw), cc.UncompressedLen)
	}
	v, err := DecodeColumn(raw, t, cc.Encoding, int(numRows))
	return v, scratch, err
}

// DecodePage decompresses and decodes one page of a paged column chunk.
// stored must hold exactly the page's compressed bytes
// (chunk bytes sliced at [pg.RelOff, pg.RelOff+pg.CompressedLen)).
func DecodePage(stored []byte, t columnar.Type, cc ColumnChunkMeta, pg PageMeta, scratch []byte) (*columnar.Vector, []byte, error) {
	one := ColumnChunkMeta{
		CompressedLen:   pg.CompressedLen,
		UncompressedLen: pg.UncompressedLen,
		Encoding:        cc.Encoding,
		Compression:     cc.Compression,
	}
	return DecodeColumnChunkBuf(stored, t, one, pg.NumRows, scratch)
}

// ReadRowGroup reads the given columns (by index; nil means all) of one row
// group into a chunk.
func (r *Reader) ReadRowGroup(rowGroup int, cols []int) (*columnar.Chunk, error) {
	if cols == nil {
		cols = make([]int, r.meta.Schema.Len())
		for i := range cols {
			cols[i] = i
		}
	}
	fields := make([]columnar.Field, len(cols))
	for i, c := range cols {
		fields[i] = r.meta.Schema.Fields[c]
	}
	out := &columnar.Chunk{Schema: columnar.NewSchema(fields...)}
	for _, c := range cols {
		v, err := r.ReadColumn(rowGroup, c)
		if err != nil {
			return nil, err
		}
		out.Columns = append(out.Columns, v)
	}
	return out, nil
}

// ReadAll reads the whole file into one chunk (convenience for tests and
// small driver-side scans).
func (r *Reader) ReadAll() (*columnar.Chunk, error) {
	out := columnar.NewChunk(r.meta.Schema, int(r.meta.TotalRows))
	for g := range r.meta.RowGroups {
		c, err := r.ReadRowGroup(g, nil)
		if err != nil {
			return nil, err
		}
		for j := range out.Columns {
			out.Columns[j].AppendVector(c.Columns[j])
		}
	}
	return out, nil
}

// Predicate is a min/max-testable condition on one column, used for
// row-group and page pruning (selection push-down, §4.3.2 / Figure 11).
type Predicate struct {
	Column string
	// Min and Max bound the values selected by the predicate; a row group
	// whose [min,max] statistics do not intersect [Min,Max] is pruned.
	Min, Max float64
	// HasInt marks predicates whose literal bounds are exact integers.
	// Int64 columns are then pruned via MinInt/MaxInt: the float mirrors
	// are lossy above 2^53, so comparing them could wrongly prune (or keep)
	// groups of large keys.
	HasInt         bool
	MinInt, MaxInt int64
}

// Admits reports whether statistics st of a column of type t may contain a
// value selected by p. Missing statistics always admit.
func (p *Predicate) Admits(st Stats, t columnar.Type) bool {
	if !st.HasMinMax {
		return true
	}
	if p.HasInt && t == columnar.Int64 {
		return st.MinInt <= p.MaxInt && st.MaxInt >= p.MinInt
	}
	return st.MinF <= p.Max && st.MaxF >= p.Min
}

// PruneRowGroups returns the row-group indices that may contain matching
// rows, using footer statistics. Row groups without statistics are kept.
// A group whose predicate column is entirely null (v2 null counts) is
// pruned regardless of its min/max bounds: no row can satisfy a min/max
// predicate on a null value.
func PruneRowGroups(meta *FileMeta, preds []Predicate) []int {
	var keep []int
	for g := range meta.RowGroups {
		rg := &meta.RowGroups[g]
		match := true
		for _, p := range preds {
			ci := meta.Schema.Index(p.Column)
			if ci < 0 {
				continue
			}
			cc := &rg.Columns[ci]
			if cc.NullCount >= rg.NumRows && rg.NumRows > 0 {
				match = false
				break
			}
			if !p.Admits(cc.Stats, meta.Schema.Fields[ci].Type) {
				match = false
				break
			}
		}
		if match {
			keep = append(keep, g)
		}
	}
	return keep
}

// PrunePages evaluates preds against the page index of row group g and
// returns one keep-flag per page slot. The slot count is the maximum page
// count over the group's columns; an unpaged column contributes its chunk
// statistics to every slot. Pages the writer produces are row-aligned
// across columns (all split at the same PageRows boundaries), so slot i of
// every column covers the same rows.
func PrunePages(meta *FileMeta, g int, preds []Predicate) []bool {
	rg := &meta.RowGroups[g]
	npages := 1
	for c := range rg.Columns {
		if n := len(rg.Columns[c].Pages); n > npages {
			npages = n
		}
	}
	keep := make([]bool, npages)
	for i := range keep {
		keep[i] = true
	}
	for _, p := range preds {
		ci := meta.Schema.Index(p.Column)
		if ci < 0 {
			continue
		}
		t := meta.Schema.Fields[ci].Type
		cc := &rg.Columns[ci]
		if len(cc.Pages) == 0 {
			if !p.Admits(cc.Stats, t) {
				for i := range keep {
					keep[i] = false
				}
			}
			continue
		}
		for i := range cc.Pages {
			if i < len(keep) && !p.Admits(cc.Pages[i].Stats, t) {
				keep[i] = false
			}
		}
	}
	return keep
}

// EstimateRows bounds the number of rows of the file that may satisfy
// preds, at page granularity: pruned row groups contribute nothing, pruned
// pages of surviving groups contribute nothing, everything else counts in
// full. Null counts (v2 footers) cap a surviving group's contribution at
// NumRows minus the largest null count over its predicate columns — a null
// never satisfies a min/max predicate. With no predicates this is exactly
// TotalRows.
func EstimateRows(meta *FileMeta, preds []Predicate) int64 {
	if len(preds) == 0 {
		return meta.TotalRows
	}
	var est int64
	for _, g := range PruneRowGroups(meta, preds) {
		rg := &meta.RowGroups[g]
		avail := rg.NumRows
		for _, p := range preds {
			ci := meta.Schema.Index(p.Column)
			if ci < 0 {
				continue
			}
			if n := rg.NumRows - rg.Columns[ci].NullCount; n < avail {
				avail = n
			}
		}
		if avail < 0 {
			avail = 0
		}
		keep := PrunePages(meta, g, preds)
		if len(keep) == 1 {
			if keep[0] {
				est += avail
			}
			continue
		}
		// Page slots are row-aligned; take each slot's row count from the
		// first column that actually has that many pages.
		var rows []int64
		for c := range rg.Columns {
			if len(rg.Columns[c].Pages) == len(keep) {
				for _, pg := range rg.Columns[c].Pages {
					rows = append(rows, pg.NumRows)
				}
				break
			}
		}
		if rows == nil {
			est += avail
			continue
		}
		var kept int64
		for i, k := range keep {
			if k {
				kept += rows[i]
			}
		}
		est += min(kept, avail)
	}
	return est
}
