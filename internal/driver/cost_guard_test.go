package driver

import (
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// runStagedCost executes the selective-predicate q12 under DES with the
// given file layout and scan-config mutation, returning the result chunk
// and the run's billed S3 counters.
func runStagedCost(t *testing.T, liOpts, ordOpts lpq.WriterOptions, mutate func(*Config), wc bool) (*columnar.Chunk, *Report, *columnar.Chunk, *columnar.Chunk) {
	t.Helper()
	k := simclock.New()
	dep := NewSimulated(k, 47)
	var out *columnar.Chunk
	var rep *Report
	var li, orders *columnar.Chunk
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 33}
		li = g.Generate()
		orders = g.OrdersFor(li)
		liRefs, err := d.UploadTable("tpch", "lineitem", li, 6, liOpts)
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable("tpch", "orders", orders, 3, ordOpts)
		if err != nil {
			t.Error(err)
			return
		}
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.WriteCombining = wc
		out, rep, err = d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Errorf("staged q12 failed: %v", err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if t.Failed() {
		t.FailNow()
	}
	return out, rep, li, orders
}

// TestStagedSelectiveScanCostGuard is the acceptance-criterion test of the
// price-aware scan layer: staged q12 (selective l_receiptdate range) on v2
// paged files with late materialization and coalescing must bill strictly
// fewer S3 GETs AND strictly fewer S3 bytes than the pre-page-index
// pattern — v1 files, one GET per column chunk, no late materialization —
// at byte-identical results, on both exchange variants, deterministically
// across repeated DES runs.
func TestStagedSelectiveScanCostGuard(t *testing.T) {
	baseOpts := lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip, FormatV1: true}
	baseMut := func(c *Config) {
		c.Scan.CoalesceGapBytes = -1
		c.Scan.DisableLateMaterialize = true
	}
	// The filtered fact table is paged for fine-grained pruning; the
	// unfiltered orders table keeps the default layout (unpaged chunks —
	// paging an always-fully-read table would only cost compression ratio).
	liOpts := lpq.WriterOptions{RowGroupRows: 2000, PageRows: 512, Compression: lpq.Gzip}
	ordOpts := lpq.WriterOptions{RowGroupRows: 2000, Compression: lpq.Gzip}

	for _, wc := range []bool{false, true} {
		baseOut, baseRep, li, orders := runStagedCost(t, baseOpts, baseOpts, baseMut, wc)
		newOut, newRep, _, _ := runStagedCost(t, liOpts, ordOpts, nil, wc)
		newOut2, newRep2, _, _ := runStagedCost(t, liOpts, ordOpts, nil, wc)

		want := singleNode(t, q12ExactSQL, engine.Catalog{
			"lineitem": engine.NewMemSource(tpch.Schema(), li),
			"orders":   engine.NewMemSource(tpch.OrdersSchema(), orders),
		})
		chunksIdentical(t, baseOut, want)
		chunksIdentical(t, newOut, want)
		chunksIdentical(t, newOut2, want)

		if baseRep.S3GetRequests <= 0 || baseRep.S3ReadBytes <= 0 {
			t.Fatalf("wc=%v: baseline counters not recorded: %d GETs, %d bytes",
				wc, baseRep.S3GetRequests, baseRep.S3ReadBytes)
		}
		if newRep.S3GetRequests >= baseRep.S3GetRequests {
			t.Errorf("wc=%v: billed GETs = %d, baseline = %d — want strictly fewer",
				wc, newRep.S3GetRequests, baseRep.S3GetRequests)
		}
		if newRep.S3ReadBytes >= baseRep.S3ReadBytes {
			t.Errorf("wc=%v: billed bytes = %d, baseline = %d — want strictly fewer",
				wc, newRep.S3ReadBytes, baseRep.S3ReadBytes)
		}
		if newRep.S3GetRequests != newRep2.S3GetRequests || newRep.S3ReadBytes != newRep2.S3ReadBytes {
			t.Errorf("wc=%v: billing not deterministic: (%d, %d) vs (%d, %d)",
				wc, newRep.S3GetRequests, newRep.S3ReadBytes, newRep2.S3GetRequests, newRep2.S3ReadBytes)
		}
	}
}
