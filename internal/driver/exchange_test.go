package driver

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
	"lambada/internal/tpch"
)

// groupBySuppkeySQL has far more groups than Q1 — the case the exchange
// merge exists for.
const groupBySuppkeySQL = `
SELECT l_suppkey, SUM(l_extendedprice) AS total, COUNT(*) AS n, AVG(l_discount) AS ad
FROM lineitem
GROUP BY l_suppkey
ORDER BY l_suppkey`

// TestExchangedGroupByMatchesSingleNode: a high-cardinality GROUP BY run
// through the stage planner's split aggregation really shuffles — partial
// aggregates cross an S3 boundary of the forced round count — and matches
// single-node execution, for single-round and write-combined multi-level
// boundaries alike.
func TestExchangedGroupByMatchesSingleNode(t *testing.T) {
	for _, variant := range []exchange.Variant{
		{Levels: 1, WriteCombining: false},
		{Levels: 2, WriteCombining: true},
	} {
		d, refs, data := localSetup(t, DefaultConfig(), 0.002, 9)
		plan, err := sqlfe.Parse(groupBySuppkeySQL)
		if err != nil {
			t.Fatal(err)
		}
		// Single-node reference through the engine.
		want := singleNode(t, groupBySuppkeySQL, engine.Catalog{"lineitem": engine.NewMemSource(tpch.Schema(), data)})

		scfg := DefaultStageConfig()
		scfg.Partitions = 4
		scfg.ExchangeLevels = variant.Levels
		scfg.Exchange.WriteCombining = variant.WriteCombining
		got, rep, err := d.RunPlanStaged(plan, TableFiles{"lineitem": refs}, scfg)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("%v: groups = %d, want %d", variant, got.NumRows(), want.NumRows())
		}
		for i := 0; i < want.NumRows(); i++ {
			if got.Column("l_suppkey").Int64s[i] != want.Column("l_suppkey").Int64s[i] {
				t.Fatalf("%v: row %d key mismatch", variant, i)
			}
			g, w := got.Column("total").Float64s[i], want.Column("total").Float64s[i]
			if math.Abs(g-w) > 1e-6*math.Max(1, w) {
				t.Errorf("%v: row %d total = %v, want %v", variant, i, g, w)
			}
			if got.Column("n").Int64s[i] != want.Column("n").Int64s[i] {
				t.Errorf("%v: row %d count mismatch", variant, i)
			}
			ga, wa := got.Column("ad").Float64s[i], want.Column("ad").Float64s[i]
			if math.Abs(ga-wa) > 1e-9 {
				t.Errorf("%v: row %d avg = %v, want %v", variant, i, ga, wa)
			}
		}
		// A scan+partial stage feeding a final-aggregation stage.
		if rep.Stages != 2 {
			t.Errorf("%v: stages = %d, want 2", variant, rep.Stages)
		}
		// The shuffle leaves request traces: write requests beyond the
		// table upload must have happened.
		if rep.CostDelta[pricing.LabelS3Write] <= 0 {
			t.Errorf("%v: no exchange writes recorded", variant)
		}
		boundaries := 0
		for _, ss := range rep.StageStats {
			if ss.Variant == "" {
				continue
			}
			boundaries++
			if ss.Variant != variant.String() {
				t.Errorf("%v: stage %d (regroup %v) resolved boundary %q, want %q", variant, ss.StageID, ss.Regroup, ss.Variant, variant.String())
			}
		}
		if boundaries == 0 {
			t.Errorf("%v: no resolved boundary in stage stats %+v", variant, rep.StageStats)
		}
	}
}

func TestExchangedGroupByDES(t *testing.T) {
	run := func() (int, time.Duration, float64) {
		k := simclock.New()
		dep := NewSimulated(k, 17)
		var rows int
		var dur time.Duration
		var cost float64
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := New(dep, p, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			data := tpch.Gen{SF: 0.002, Seed: 23}.Generate()
			refs, err := d.UploadTable("tpch", "lineitem", data, 6, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			scfg := DefaultStageConfig()
			scfg.Partitions = 3
			scfg.Exchange.Poll = 100 * time.Millisecond
			out, rep, err := d.RunSQLStaged(`SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag`,
				TableFiles{"lineitem": refs}, scfg)
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Stages != 2 {
				t.Errorf("stages = %d, want 2", rep.Stages)
			}
			rows = out.NumRows()
			dur = rep.Duration
			cost = rep.TotalCost
			// Validate counts against the reference.
			var total int64
			for i := 0; i < out.NumRows(); i++ {
				total += out.Column("n").Int64s[i]
			}
			if total != int64(data.NumRows()) {
				t.Errorf("counts sum to %d, want %d", total, data.NumRows())
			}
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		return rows, dur, cost
	}
	r1, d1, c1 := run()
	r2, d2, c2 := run()
	if r1 != 3 {
		t.Errorf("groups = %d, want 3 return flags", r1)
	}
	if r1 != r2 || d1 != d2 || c1 != c2 {
		t.Error("exchanged DES run not deterministic")
	}
	if d1 <= 0 || d1 > 2*time.Minute {
		t.Errorf("virtual duration = %v", d1)
	}
}

// TestStageFragmentRejectsUnresolvedBoundary: the driver resolves every
// boundary before it builds payloads, so a stage payload whose input or
// output boundary still has Levels == 0 is refused by the worker instead
// of being read or written with a guessed variant.
func TestStageFragmentRejectsUnresolvedBoundary(t *testing.T) {
	d, _, _ := localSetup(t, DefaultConfig(), 0.001, 1)
	planJSON, err := engine.MarshalPlan(&engine.ScanPlan{Table: "in", TableSchema: tpch.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]stageSpec{
		"input":  {StageID: 1, Inputs: []stageInputSpec{{Input: stageplan.Input{StageID: 0, Table: "in"}, Senders: 1}}},
		"output": {StageID: 0, Output: &stageplan.Output{Keys: []string{"l_orderkey"}, Partitions: 1}},
	} {
		specJSON, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		p := workerPayload{QueryID: "q1", NumWorkers: 1, Plan: planJSON, StageID: spec.StageID, StageSpec: specJSON, Epoch: 1}
		ctx := &lambdasvc.Ctx{Env: simenv.NewImmediate(), MemoryMiB: 1792}
		_, err = d.sess.executeFragment(ctx, d.sess.newRetryScope(1), &p)
		if err == nil || !strings.Contains(err.Error(), "no resolved variant") {
			t.Errorf("%s boundary with Levels 0: err = %v, want a no-resolved-variant refusal", name, err)
		}
	}
}
