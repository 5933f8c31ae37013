// Package scan implements Lambada's S3-based Parquet scan operator
// (§4.3.2, Figure 8). It exploits concurrency at five levels — the four the
// paper identifies, in the priority order the paper prescribes, plus a
// file-level worker pool on top:
//
//	(5) multiple lpq files scanned concurrently by a bounded worker pool
//	    (Config.ParallelFiles), chunks delivered in file order through
//	    per-file channels so the yield order matches the serial scan;
//	(4) metadata of all files prefetched eagerly: WarmOpen opens every
//	    footer footerWidth at a time through s3.Client.Fan (on DES child
//	    processes under the kernel, so it overlaps in both clocks), and
//	    Config.MetaPrefetch overlaps a scan's remaining footers with its
//	    data in a dedicated thread;
//	(3) up to two row groups downloaded asynchronously (double buffering),
//	    overlapping download with decompression of the previous group;
//	(2) column chunks of small/single-row-group files fetched in parallel;
//	(1) multiple chunked requests per read, only as a fallback, since extra
//	    requests cost money (Figure 7).
//
// The operator implements engine.Source, so optimized plans push selections
// (as min/max prune predicates) and projections into it.
package scan

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"lambada/internal/awssim/s3"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/s3fs"
)

// Config tunes the operator.
type Config struct {
	// ChunkBytes is the per-request range size (level 1). Default 16 MiB.
	ChunkBytes int64
	// Conns is the number of concurrent connections modeled per transfer.
	Conns int
	// DoubleBuffer enables row-group prefetch (level 3). The paper
	// disables it on workers with too little main memory.
	DoubleBuffer bool
	// ParallelColumns enables concurrent column-chunk downloads (level 2).
	ParallelColumns bool
	// MetaPrefetch fetches the remaining files' footers eagerly while a
	// scan reads the first file's data (level 4).
	MetaPrefetch bool
	// ParallelFiles bounds how many files are scanned concurrently
	// (level 5). 0 or 1 scans serially; DefaultConfig uses GOMAXPROCS.
	// It governs data scanning only: WarmOpen's footer fan-out has a
	// fixed width of its own.
	// Chunk delivery order is unaffected: chunks surface in file order,
	// row groups in order within each file, exactly as a serial scan.
	ParallelFiles int
	// CoalesceGapBytes is the largest hole merged into one GET when
	// fetching multiple chunk/page ranges (0 = s3fs.DefaultCoalesceGap,
	// negative = no coalescing — one GET per range, the pre-coalescing
	// request pattern, kept for ablations).
	CoalesceGapBytes int64
	// DisableLateMaterialize makes ScanFiltered fetch every projected
	// column of every surviving row group before filtering (the
	// pre-late-materialization read pattern, kept for ablations). Results
	// are byte-identical either way.
	DisableLateMaterialize bool
}

// gap resolves the configured coalescing gap (-1 disables).
func (c *Config) gap() int64 {
	if c.CoalesceGapBytes < 0 {
		return -1
	}
	if c.CoalesceGapBytes == 0 {
		return s3fs.DefaultCoalesceGap
	}
	return c.CoalesceGapBytes
}

// DefaultConfig mirrors the paper's operator — all levels enabled, 16 MiB
// chunks, four connections — plus file-level parallelism across all CPUs.
func DefaultConfig() Config {
	return Config{
		ChunkBytes:      s3fs.DefaultChunkBytes,
		Conns:           4,
		DoubleBuffer:    true,
		ParallelColumns: true,
		MetaPrefetch:    true,
		ParallelFiles:   runtime.GOMAXPROCS(0),
	}
}

// FileRef names one S3 object holding an lpq file.
type FileRef struct {
	Bucket string
	Key    string
}

// Source scans a list of lpq files from S3. It implements engine.Source.
type Source struct {
	Client *s3.Client
	Files  []FileRef
	Cfg    Config

	mu    sync.Mutex
	opens map[string]*openState
	// handles lists every successfully opened file handle, for summing
	// billed request/byte counters without touching the opens map.
	handles []*s3fs.File

	// scratch pools decompression buffers across row-group reads.
	scratch sync.Pool

	// Stats.
	rowGroupsRead   int64
	rowGroupsPruned int64
	filesAllPruned  int64
	pagesRead       int64
	pagesPruned     int64
	pagesFiltered   int64
}

// openState is the singleflight slot of one file's footer fetch: however
// many goroutines race to open a file (the metadata prefetcher, level-5 file
// workers, the synchronous path), the footer is fetched exactly once and
// everyone shares the result.
type openState struct {
	once sync.Once
	r    *lpq.Reader
	h    *s3fs.File
	err  error
}

// New returns a source over files.
func New(client *s3.Client, cfg Config, files ...FileRef) *Source {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = s3fs.DefaultChunkBytes
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	return &Source{
		Client: client,
		Files:  files,
		Cfg:    cfg,
		opens:  make(map[string]*openState),
	}
}

// Stats reports scan counters.
type Stats struct {
	RowGroupsRead   int64
	RowGroupsPruned int64
	FilesAllPruned  int64
	// PagesRead counts column pages fetched; PagesPruned counts page slots
	// skipped by page-index statistics; PagesFiltered counts page slots
	// whose filter selection came back empty, so payload columns were
	// never fetched (late materialization).
	PagesRead     int64
	PagesPruned   int64
	PagesFiltered int64
	// BilledGets / BilledBytes sum the S3 requests and bytes issued by
	// every file handle this source opened — the two cost drivers of the
	// paper's pricing model.
	BilledGets  int64
	BilledBytes int64
}

// Stats returns the operator's counters.
func (s *Source) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		RowGroupsRead:   s.rowGroupsRead,
		RowGroupsPruned: s.rowGroupsPruned,
		FilesAllPruned:  s.filesAllPruned,
		PagesRead:       s.pagesRead,
		PagesPruned:     s.pagesPruned,
		PagesFiltered:   s.pagesFiltered,
	}
	for _, h := range s.handles {
		st.BilledGets += h.Requests()
		st.BilledBytes += h.BytesRead()
	}
	return st
}

// open returns the (cached) reader and handle of f. Concurrent callers for
// the same file block on one in-flight fetch instead of issuing duplicates;
// a failed open is forgotten so a later caller can retry.
func (s *Source) open(f FileRef) (*lpq.Reader, *s3fs.File, error) {
	return s.openVia(s.Client, f)
}

// openVia is open with the footer requests issued through client (a Fan
// task's client); the handle it caches reads through s.Client afterwards.
func (s *Source) openVia(client *s3.Client, f FileRef) (*lpq.Reader, *s3fs.File, error) {
	id := f.Bucket + "/" + f.Key
	s.mu.Lock()
	st, ok := s.opens[id]
	if !ok {
		st = &openState{}
		s.opens[id] = st
	}
	s.mu.Unlock()

	st.once.Do(func() {
		h, err := s3fs.Open(client, f.Bucket, f.Key)
		if err != nil {
			st.err = err
		} else {
			h.ChunkBytes = s.Cfg.ChunkBytes
			h.Conns = s.Cfg.Conns
			r, err := lpq.OpenReader(h, h.Size())
			if err != nil {
				st.err = fmt.Errorf("scan: opening %s: %w", id, err)
			} else {
				h.SetClient(s.Client)
				st.r, st.h = r, h
			}
		}
		s.mu.Lock()
		if st.err != nil {
			delete(s.opens, id)
		} else {
			s.handles = append(s.handles, st.h)
		}
		s.mu.Unlock()
	})
	return st.r, st.h, st.err
}

// Schema returns the schema of the first file.
func (s *Source) Schema() (*columnar.Schema, error) {
	if len(s.Files) == 0 {
		return nil, fmt.Errorf("scan: no files")
	}
	r, _, err := s.open(s.Files[0])
	if err != nil {
		return nil, err
	}
	return r.Schema(), nil
}

// TotalRows sums the row counts recorded in every file's footer — the
// planner's cardinality statistic (a metadata-only read: footers are a few
// hundred bytes, no column data is transferred). The stage planner decides
// broadcast-vs-shuffle per join from these counts. It warms every footer
// first (WarmOpen), and opens are cached, so a later Scan pays no second
// round trip.
func (s *Source) TotalRows() (int64, error) {
	return s.sumFooters(func(m *lpq.FileMeta) int64 { return m.TotalRows })
}

// EstimateRows bounds the rows that may satisfy preds, summing the
// page-granular footer estimate over every file (same metadata-only cost
// as TotalRows; with no predicates it equals TotalRows exactly). This is
// the planner statistic behind pruning-aware stage fan-out: selective
// queries size their scan fleets from it instead of the full table.
func (s *Source) EstimateRows(preds []lpq.Predicate) (int64, error) {
	return s.sumFooters(func(m *lpq.FileMeta) int64 { return lpq.EstimateRows(m, preds) })
}

// EstimateFileRows bounds the rows of one file that may satisfy preds —
// the per-file statistic behind pruned worker file assignment.
func (s *Source) EstimateFileRows(f FileRef, preds []lpq.Predicate) (int64, error) {
	r, _, err := s.open(f)
	if err != nil {
		return 0, err
	}
	return lpq.EstimateRows(r.Meta(), preds), nil
}

// sumFooters warms every file's footer (WarmOpen) and sums fn over the
// metadata.
func (s *Source) sumFooters(fn func(*lpq.FileMeta) int64) (int64, error) {
	if err := s.WarmOpen(); err != nil {
		return 0, err
	}
	var total int64
	for _, f := range s.Files {
		r, _, err := s.open(f)
		if err != nil {
			return 0, err
		}
		total += fn(r.Meta())
	}
	return total, nil
}

// footerWidth is how many footer opens WarmOpen keeps in flight. A driver
// prefetching metadata issues these tiny GETs concurrently (level 4); 32
// covers the input of every benchmark workload (32 files per table) in
// one round trip, and wider sweeps measure no lower latency. It is fixed,
// not GOMAXPROCS-derived, so a DES run times the same on every machine.
const footerWidth = 32

// WarmOpen opens the footers of every file not yet opened, footerWidth at
// a time, through the client's fan-out: under the DES kernel each open
// runs in a child process of the caller's, so the round trips overlap in
// virtual time. Each distinct file gets one task (two DES tasks blocking
// on one singleflight slot would stall the kernel). Opens are cached; the
// handles read through s.Client afterwards. It returns the first error in
// file order.
func (s *Source) WarmOpen() error {
	var todo []FileRef
	seen := map[string]bool{}
	s.mu.Lock()
	for _, f := range s.Files {
		id := f.Bucket + "/" + f.Key
		if _, ok := s.opens[id]; !ok && !seen[id] {
			seen[id] = true
			todo = append(todo, f)
		}
	}
	s.mu.Unlock()
	errs := make([]error, len(todo))
	s.Client.Fan(len(todo), footerWidth, func(i int, c *s3.Client) {
		_, _, errs[i] = s.openVia(c, todo[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Scan yields the projected columns of every non-pruned row group of every
// file, exploiting the configured concurrency levels. Yield order is always
// the serial order — files in order, row groups in order within each file —
// whatever parallelism is configured.
func (s *Source) Scan(proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	return s.scanAll(func(f FileRef, y func(*columnar.Chunk) error) error {
		return s.scanFile(f, proj, preds, y)
	}, yield)
}

// ScanFiltered is the two-phase late-materialized scan (engine.
// FilterableSource): per surviving row group it fetches the filter's
// columns first, evaluates the filter into a per-page selection, and
// fetches payload columns only for pages where rows passed. Yielded chunks
// contain exactly the selected rows, in serial scan order.
func (s *Source) ScanFiltered(proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	return s.scanAll(func(f FileRef, y func(*columnar.Chunk) error) error {
		return s.scanFileFiltered(f, proj, preds, filter, y)
	}, yield)
}

// scanAll owns the cross-file orchestration shared by Scan and
// ScanFiltered: metadata prefetch (level 4) and the bounded file-parallel
// pool (level 5) around the given per-file scan.
func (s *Source) scanAll(perFile func(FileRef, func(*columnar.Chunk) error) error, yield func(*columnar.Chunk) error) error {
	// Level 4: prefetch metadata of all files in a dedicated goroutine so
	// the footer round trips of file k+1... hide behind file k's data.
	// The singleflight in open dedups against the scan path's own opens.
	if s.Cfg.MetaPrefetch && len(s.Files) > 1 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range s.Files[1:] {
				s.open(f) // errors resurface on the synchronous path
			}
		}()
		defer wg.Wait()
	}

	if s.Cfg.ParallelFiles > 1 && len(s.Files) > 1 {
		return s.scanFilesParallel(perFile, yield)
	}

	for _, f := range s.Files {
		if err := perFile(f, yield); err != nil {
			return err
		}
	}
	return nil
}

var errScanCanceled = errors.New("scan: canceled")

// scanFilesParallel scans up to Cfg.ParallelFiles files concurrently
// (level 5). Every file's chunks flow through its own bounded channel and
// the consumer drains the channels in file order, so the yield sequence is
// identical to the serial scan while downloads and decoding of later files
// overlap with the consumption of earlier ones. The first error — a file
// error, in file order, or a yield error — cancels all in-flight workers.
//
// Admission is in file order, granted by the consumer: the active files are
// always the ParallelFiles lowest undrained ones. A plain semaphore would
// deadlock here — workers for later files could win every slot, fill their
// bounded channels, and block while the consumer waits on an earlier file
// whose worker never got a slot.
func (s *Source) scanFilesParallel(perFile func(FileRef, func(*columnar.Chunk) error) error, yield func(*columnar.Chunk) error) error {
	type item struct {
		chunk *columnar.Chunk
		err   error
	}
	n := len(s.Files)
	width := s.Cfg.ParallelFiles
	if width > n {
		width = n
	}
	chans := make([]chan item, n)
	starts := make([]chan struct{}, n)
	done := make(chan struct{})
	var cancel sync.Once
	stop := func() { cancel.Do(func() { close(done) }) }
	defer stop()

	for i, f := range s.Files {
		// Buffer 2: the file worker may run one chunk ahead of the
		// consumer, mirroring the row-group double buffer's depth.
		chans[i] = make(chan item, 2)
		starts[i] = make(chan struct{})
		go func(i int, f FileRef) {
			defer close(chans[i])
			select {
			case <-starts[i]:
			case <-done:
				return
			}
			err := perFile(f, func(c *columnar.Chunk) error {
				select {
				case chans[i] <- item{chunk: c}:
					return nil
				case <-done:
					return errScanCanceled
				}
			})
			if err != nil && !errors.Is(err, errScanCanceled) {
				select {
				case chans[i] <- item{err: err}:
				case <-done:
				}
			}
		}(i, f)
	}
	for i := 0; i < width; i++ {
		close(starts[i])
	}

	for i := range chans {
		for it := range chans[i] {
			if it.err != nil {
				return it.err
			}
			if err := yield(it.chunk); err != nil {
				return err
			}
		}
		// File i is fully drained: admit the next one.
		if next := i + width; next < n {
			close(starts[next])
		}
	}
	return nil
}

func (s *Source) scanFile(f FileRef, proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	r, h, err := s.open(f)
	if err != nil {
		return err
	}
	meta := r.Meta()
	cols, outSchema, err := resolveProjection(meta.Schema, proj)
	if err != nil {
		return err
	}
	keep := lpq.PruneRowGroups(meta, preds)
	s.mu.Lock()
	s.rowGroupsPruned += int64(meta.NumRowGroups() - len(keep))
	if len(keep) == 0 {
		s.filesAllPruned++
	}
	s.mu.Unlock()
	if len(keep) == 0 {
		// The worker loaded only the footer, pruned everything, and
		// returns an empty result — the 100–200 ms workers of Figure 11.
		return nil
	}

	return s.scanGroups(keep, func(g int) (*columnar.Chunk, error) {
		return s.readRowGroup(r, h, meta, g, cols, outSchema)
	}, yield)
}

// scanFileFiltered is scanFile's late-materialized twin: surviving row
// groups go through the two-phase readRowGroupFiltered, and groups whose
// selection comes back entirely empty yield nothing.
func (s *Source) scanFileFiltered(f FileRef, proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	r, h, err := s.open(f)
	if err != nil {
		return err
	}
	meta := r.Meta()
	cols, outSchema, err := resolveProjection(meta.Schema, proj)
	if err != nil {
		return err
	}
	keep := lpq.PruneRowGroups(meta, preds)
	s.mu.Lock()
	s.rowGroupsPruned += int64(meta.NumRowGroups() - len(keep))
	if len(keep) == 0 {
		s.filesAllPruned++
	}
	s.mu.Unlock()
	if len(keep) == 0 {
		return nil
	}

	if s.Cfg.DisableLateMaterialize {
		// Ablation: fetch everything like Scan, filter afterwards.
		var sel []int
		return s.scanGroups(keep, func(g int) (*columnar.Chunk, error) {
			c, err := s.readRowGroup(r, h, meta, g, cols, outSchema)
			if err != nil {
				return nil, err
			}
			sel, err = engine.FilterSelection(c, filter, sel)
			if err != nil {
				return nil, err
			}
			if len(sel) == 0 {
				return nil, nil
			}
			if len(sel) == c.NumRows() {
				return c, nil
			}
			return c.Gather(sel), nil
		}, yield)
	}

	return s.scanGroups(keep, func(g int) (*columnar.Chunk, error) {
		return s.readRowGroupFiltered(r, h, meta, g, cols, outSchema, preds, filter)
	}, yield)
}

// scanGroups drains the kept row groups of one file through fetch in
// order, double-buffered when configured (level 3: download row group g+1
// while the consumer processes g). A nil chunk from fetch (fully filtered
// group) is counted as read but yields nothing.
func (s *Source) scanGroups(keep []int, fetch func(g int) (*columnar.Chunk, error), yield func(*columnar.Chunk) error) error {
	deliver := func(c *columnar.Chunk) error {
		s.mu.Lock()
		s.rowGroupsRead++
		s.mu.Unlock()
		if c == nil {
			return nil
		}
		return yield(c)
	}

	type fetched struct {
		chunk *columnar.Chunk
		err   error
	}

	if !s.Cfg.DoubleBuffer {
		for _, g := range keep {
			c, err := fetch(g)
			if err != nil {
				return err
			}
			if err := deliver(c); err != nil {
				return err
			}
		}
		return nil
	}

	next := make(chan fetched, 1)
	fetchInto := func(g int) {
		c, err := fetch(g)
		next <- fetched{chunk: c, err: err}
	}
	go fetchInto(keep[0])
	for i := range keep {
		res := <-next
		if i+1 < len(keep) {
			g := keep[i+1]
			go fetchInto(g)
		}
		if res.err != nil {
			if i+1 < len(keep) {
				<-next // drain the in-flight prefetch
			}
			return res.err
		}
		if err := deliver(res.chunk); err != nil {
			if i+1 < len(keep) {
				<-next
			}
			return err
		}
	}
	return nil
}

// readRowGroup downloads the projected column chunks of one row group in
// one coalesced batch of range reads and decodes them.
func (s *Source) readRowGroup(r *lpq.Reader, h *s3fs.File, meta *lpq.FileMeta, g int, cols []int, outSchema *columnar.Schema) (*columnar.Chunk, error) {
	rg := &meta.RowGroups[g]
	out := &columnar.Chunk{Schema: outSchema, Columns: make([]*columnar.Vector, len(cols))}

	ranges := make([]s3fs.Range, len(cols))
	for slot, ci := range cols {
		cc := &rg.Columns[ci]
		ranges[slot] = s3fs.Range{Off: cc.Offset, Len: cc.CompressedLen}
	}
	bufs, err := s.readRangesMaybeParallel(h, ranges)
	if err != nil {
		return nil, err
	}
	for slot, ci := range cols {
		v, err := s.decodeChunk(bufs[slot], meta.Schema.Fields[ci].Type, rg.Columns[ci], rg.NumRows)
		if err != nil {
			return nil, err
		}
		out.Columns[slot] = v
	}
	return out, nil
}

// decodeChunk decodes stored column-chunk bytes with a pooled decompression
// scratch buffer; decoders copy values out, so the buffer is recycled
// immediately.
func (s *Source) decodeChunk(stored []byte, t columnar.Type, cc lpq.ColumnChunkMeta, numRows int64) (*columnar.Vector, error) {
	var bp *[]byte
	if x := s.scratch.Get(); x != nil {
		bp = x.(*[]byte)
	} else {
		bp = new([]byte)
	}
	v, buf, err := lpq.DecodeColumnChunkBuf(stored, t, cc, numRows, *bp)
	*bp = buf
	s.scratch.Put(bp)
	return v, err
}

// decodePage decodes one page of a paged chunk with the pooled scratch.
func (s *Source) decodePage(stored []byte, t columnar.Type, cc lpq.ColumnChunkMeta, pg lpq.PageMeta) (*columnar.Vector, error) {
	var bp *[]byte
	if x := s.scratch.Get(); x != nil {
		bp = x.(*[]byte)
	} else {
		bp = new([]byte)
	}
	v, buf, err := lpq.DecodePage(stored, t, cc, pg, *bp)
	*bp = buf
	s.scratch.Put(bp)
	return v, err
}

// readRangesMaybeParallel fetches the ranges through coalesced spans: a gap
// of at most Cfg.CoalesceGapBytes between wanted ranges is fetched as dead
// bytes inside one GET instead of paying another request (the Figure 7
// request-cost trade-off, now at range granularity). Spans download
// concurrently when ParallelColumns is set (level 2).
func (s *Source) readRangesMaybeParallel(h *s3fs.File, ranges []s3fs.Range) ([][]byte, error) {
	gap := s.Cfg.gap()
	spans := s3fs.PlanSpans(ranges, gap)
	out := make([][]byte, len(ranges))
	fetchSpan := func(sp s3fs.Span) error {
		buf, err := h.ReadRange(sp.Off, sp.Len)
		if err != nil {
			return err
		}
		if int64(len(buf)) < sp.Len {
			return fmt.Errorf("scan: span [%d,%d) truncated to %d bytes", sp.Off, sp.Off+sp.Len, len(buf))
		}
		sp.Cut(buf, ranges, out)
		return nil
	}
	if !s.Cfg.ParallelColumns || len(spans) <= 1 {
		for _, sp := range spans {
			if err := fetchSpan(sp); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(spans))
	for i, sp := range spans {
		i, sp := i, sp
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fetchSpan(sp)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readRowGroupFiltered is the two-phase read of one row group:
//
//	(1) prune the page index against the scan's predicates;
//	(2) fetch and decode the filter's columns for surviving pages, in one
//	    coalesced batch;
//	(3) evaluate the filter per page into a selection vector; pages with an
//	    empty selection drop out;
//	(4) fetch payload columns only for pages that still have selected rows,
//	    again coalesced;
//	(5) gather filter and payload columns by the selection, page by page in
//	    order, into one output chunk.
//
// Returns nil when no row of the group passes — the caller yields nothing
// and the payload columns were never transferred.
func (s *Source) readRowGroupFiltered(r *lpq.Reader, h *s3fs.File, meta *lpq.FileMeta, g int, cols []int, outSchema *columnar.Schema, preds []lpq.Predicate, filter engine.Expr) (*columnar.Chunk, error) {
	rg := &meta.RowGroups[g]

	// Split the projection into filter columns and payload columns. The
	// optimizer guarantees filter columns ⊆ projection.
	isFilterCol := map[string]bool{}
	for _, name := range filter.Columns(nil) {
		isFilterCol[name] = true
	}
	var fslots, pslots []int // slots into cols/out.Columns
	for slot, ci := range cols {
		if isFilterCol[meta.Schema.Fields[ci].Name] {
			fslots = append(fslots, slot)
		} else {
			pslots = append(pslots, slot)
		}
	}
	if len(fslots) == 0 {
		// Filter references no projected column (e.g. constant predicate):
		// degrade to the unfiltered read and let the caller's filter run.
		c, err := s.readRowGroup(r, h, meta, g, cols, outSchema)
		if err != nil {
			return nil, err
		}
		sel, err := engine.FilterSelection(c, filter, nil)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return nil, nil
		}
		if len(sel) == c.NumRows() {
			return c, nil
		}
		return c.Gather(sel), nil
	}

	// Phase 1: page-index pruning. Every column of a row group is paged at
	// the same row boundaries (or the whole group is unpaged), so page slot
	// i of every column covers the same rows.
	keep := lpq.PrunePages(meta, g, preds)
	npages := len(keep)
	for _, ci := range cols {
		if n := len(rg.Columns[ci].PageSpans(rg.NumRows)); n != npages {
			return nil, fmt.Errorf("scan: column %q has %d pages, row group has %d page slots",
				meta.Schema.Fields[ci].Name, n, npages)
		}
	}
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	s.mu.Lock()
	s.pagesPruned += int64(npages - kept)
	s.mu.Unlock()
	if kept == 0 {
		return nil, nil
	}

	// Phase 2: fetch + decode filter columns for surviving pages.
	fvecs, err := s.fetchPages(h, meta, g, cols, fslots, keep)
	if err != nil {
		return nil, err
	}

	// Phase 3: evaluate the filter page by page into selections.
	fschema := mustProjectSlots(outSchema, fslots)
	sels := make([][]int, npages)
	total := 0
	filtered := 0
	for p := 0; p < npages; p++ {
		if !keep[p] {
			continue
		}
		fc := &columnar.Chunk{Schema: fschema, Columns: make([]*columnar.Vector, len(fslots))}
		for i, slot := range fslots {
			fc.Columns[i] = fvecs[slot][p]
		}
		sel, err := engine.FilterSelection(fc, filter, nil)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			keep[p] = false
			filtered++
			continue
		}
		sels[p] = sel
		total += len(sel)
	}
	s.mu.Lock()
	s.pagesFiltered += int64(filtered)
	s.mu.Unlock()
	if total == 0 {
		return nil, nil
	}

	// Phase 4: fetch payload columns only for pages with selected rows.
	pvecs, err := s.fetchPages(h, meta, g, cols, pslots, keep)
	if err != nil {
		return nil, err
	}

	// Phase 5: gather by selection, page by page in order.
	out := columnar.NewChunk(outSchema, total)
	for p := 0; p < npages; p++ {
		if !keep[p] {
			continue
		}
		sel := sels[p]
		for slot := range cols {
			var src *columnar.Vector
			if vs, ok := fvecs[slot]; ok {
				src = vs[p]
			} else {
				src = pvecs[slot][p]
			}
			out.Columns[slot].AppendGather(src, sel)
		}
	}
	return out, nil
}

// fetchPages fetches and decodes the kept pages of the given projection
// slots of row group g, returning vecs[slot][page]. Each column is fetched
// as ONE covering range from its first to its last kept page: interior
// holes (pruned or filtered-out pages between kept ones) are billed dead
// bytes, but the range never exceeds the column chunk and never takes more
// than the one request the full-chunk read would — so the fetch dominates
// the pre-page-index pattern in both billed GETs and billed bytes, and
// ReadRanges' cross-column coalescing can only improve the request count
// further. Columns with no kept page are skipped outright.
func (s *Source) fetchPages(h *s3fs.File, meta *lpq.FileMeta, g int, cols, slots []int, keep []bool) (map[int][]*columnar.Vector, error) {
	rg := &meta.RowGroups[g]
	npages := len(keep)
	lo, hi := -1, -1 // kept-page window, shared by every column
	for p, k := range keep {
		if k {
			if lo < 0 {
				lo = p
			}
			hi = p
		}
	}
	vecs := make(map[int][]*columnar.Vector, len(slots))
	for _, slot := range slots {
		vecs[slot] = make([]*columnar.Vector, npages)
	}
	if lo < 0 || len(slots) == 0 {
		return vecs, nil
	}

	ranges := make([]s3fs.Range, len(slots))
	for i, slot := range slots {
		cc := &rg.Columns[cols[slot]]
		pages := cc.PageSpans(rg.NumRows)
		start := pages[lo].RelOff
		end := pages[hi].RelOff + pages[hi].CompressedLen
		ranges[i] = s3fs.Range{Off: cc.Offset + start, Len: end - start}
	}
	bufs, err := s.readRangesMaybeParallel(h, ranges)
	if err != nil {
		return nil, err
	}
	read := 0
	for i, slot := range slots {
		ci := cols[slot]
		cc := rg.Columns[ci]
		pages := cc.PageSpans(rg.NumRows)
		base := pages[lo].RelOff
		for p := lo; p <= hi; p++ {
			if !keep[p] {
				continue
			}
			pg := pages[p]
			off := pg.RelOff - base
			v, err := s.decodePage(bufs[i][off:off+pg.CompressedLen], meta.Schema.Fields[ci].Type, cc, pg)
			if err != nil {
				return nil, err
			}
			vecs[slot][p] = v
			read++
		}
	}
	s.mu.Lock()
	s.pagesRead += int64(read)
	s.mu.Unlock()
	return vecs, nil
}

// mustProjectSlots builds the schema of the given slots of schema.
func mustProjectSlots(schema *columnar.Schema, slots []int) *columnar.Schema {
	fields := make([]columnar.Field, len(slots))
	for i, slot := range slots {
		fields[i] = schema.Fields[slot]
	}
	return columnar.NewSchema(fields...)
}

func resolveProjection(schema *columnar.Schema, proj []string) ([]int, *columnar.Schema, error) {
	if proj == nil {
		cols := make([]int, schema.Len())
		for i := range cols {
			cols[i] = i
		}
		return cols, schema, nil
	}
	cols := make([]int, len(proj))
	fields := make([]columnar.Field, len(proj))
	for i, name := range proj {
		ci := schema.Index(name)
		if ci < 0 {
			return nil, nil, fmt.Errorf("scan: column %q not in file", name)
		}
		cols[i] = ci
		fields[i] = schema.Fields[ci]
	}
	return cols, columnar.NewSchema(fields...), nil
}

// Ensure interface compliance.
var (
	_ engine.Source           = (*Source)(nil)
	_ engine.FilterableSource = (*Source)(nil)
)
