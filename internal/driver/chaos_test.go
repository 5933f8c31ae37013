package driver

import (
	"errors"
	"testing"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// chaosRun is one staged q12 execution on the DES kernel, with everything
// the chaos assertions compare: the result chunk, the report, and the
// billed request counts per substrate.
type chaosRun struct {
	out        *columnar.Chunk
	rep        *Report
	s3Requests int64
	sqsReqs    int64
	injected   int
}

// runStagedChaosQ12 executes the staged q12 shuffle join on a fresh DES
// kernel against the given deployment and returns the run's observables.
// mut tweaks the driver/stage configs before the query runs.
func runStagedChaosQ12(t *testing.T, mkDep func(k *simclock.Kernel) *Deployment, mut func(cfg *Config, scfg *StageConfig)) chaosRun {
	t.Helper()
	k := simclock.New()
	dep := mkDep(k)
	var res chaosRun
	ok := false
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		scfg := DefaultStageConfig()
		scfg.Partitions = 2
		scfg.BroadcastRowLimit = -1
		scfg.Exchange.Poll = 100 * time.Millisecond
		if mut != nil {
			mut(&cfg, &scfg)
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		g := tpch.Gen{SF: 0.002, Seed: 11}
		li := g.Generate()
		orders := g.OrdersFor(li)
		liRefs, err := d.UploadTable("tpch", "lineitem", li, 4, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		ordRefs, err := d.UploadTable("tpch", "orders", orders, 2, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		out, rep, err := d.RunSQLStaged(q12ExactSQL, TableFiles{"lineitem": liRefs, "orders": ordRefs}, scfg)
		if err != nil {
			t.Error(err)
			return
		}
		res.out, res.rep = out, rep
		res.s3Requests = dep.Meter.Count(pricing.LabelS3Read) + dep.Meter.Count(pricing.LabelS3Write)
		res.sqsReqs = dep.Meter.Count(pricing.LabelSQS)
		res.injected = dep.Faults.TotalInjected()
		ok = true
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if !ok {
		t.FailNow()
	}
	return res
}

// chaosPlanQ12 is the seeded fault mix of the chaos acceptance suite: S3
// transients on both paths, SQS duplicate delivery and receive timeouts,
// DynamoDB throttling on the barrier reads, Lambda cold-start spikes, and
// one mid-run crash.
func chaosPlanQ12() faults.Plan {
	return faults.Plan{
		Seed: 20260808,
		Rules: []faults.Rule{
			{Op: faults.OpS3Get, Kind: faults.KindTransient, Rate: 0.05},
			{Op: faults.OpS3Put, Kind: faults.KindTransient, Rate: 0.03},
			{Op: faults.OpS3Put, Kind: faults.KindSlowDown, Rate: 0.02},
			{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Rate: 0.2, Delay: 40 * time.Millisecond},
			{Op: faults.OpSQSReceive, Kind: faults.KindTimeout, Rate: 0.03},
			{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Rate: 0.05},
			{Op: faults.OpLambda, Kind: faults.KindColdSpike, Rate: 0.1, Delay: 300 * time.Millisecond},
			{Op: faults.OpLambda, Kind: faults.KindCrashMidRun, Skip: 5, Count: 1, Delay: 150 * time.Millisecond},
		},
	}
}

// TestChaosZeroFaultPlanIsInert: a chaos deployment with an empty plan is
// byte-for-byte the plain simulated deployment — same result, same virtual
// duration, same cost, no injection bookkeeping. This pins the guarantee
// that the fault layer costs nothing when unused.
func TestChaosZeroFaultPlanIsInert(t *testing.T) {
	clean := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) }, nil)
	zero := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment { return NewChaos(k, 71, faults.Plan{}) }, nil)
	chunksIdentical(t, zero.out, clean.out)
	if zero.rep.Duration != clean.rep.Duration || zero.rep.TotalCost != clean.rep.TotalCost {
		t.Errorf("zero-fault chaos run diverged: (%v, %v) vs clean (%v, %v)",
			zero.rep.Duration, zero.rep.TotalCost, clean.rep.Duration, clean.rep.TotalCost)
	}
	if zero.s3Requests != clean.s3Requests || zero.sqsReqs != clean.sqsReqs {
		t.Errorf("zero-fault request counts diverged: s3 %d vs %d, sqs %d vs %d",
			zero.s3Requests, clean.s3Requests, zero.sqsReqs, clean.sqsReqs)
	}
	if len(zero.rep.InjectedFaults) != 0 || zero.injected != 0 {
		t.Errorf("zero-fault plan injected %d faults: %v", zero.injected, zero.rep.InjectedFaults)
	}
}

// TestStagedChaosDeterministicByteIdentical is the tentpole acceptance
// test: staged q12 under the seeded chaos plan (a) still returns the exact
// fault-free answer, (b) replays identically — same result, virtual
// duration, cost and injection counts across two runs, (c) inflates billed
// requests boundedly (retried requests are billed, but the storm is a few
// percent), on both exchange variants.
func TestStagedChaosDeterministicByteIdentical(t *testing.T) {
	variants := []struct {
		name string
		mut  func(cfg *Config, scfg *StageConfig)
	}{
		{"tree-wc", func(cfg *Config, scfg *StageConfig) {
			cfg.Speculate = DefaultSpeculateConfig()
		}},
		{"flat", func(cfg *Config, scfg *StageConfig) {
			cfg.Speculate = DefaultSpeculateConfig()
			scfg.Exchange.WriteCombining = false
		}},
		{"multilevel", func(cfg *Config, scfg *StageConfig) {
			cfg.Speculate = DefaultSpeculateConfig()
			scfg.ExchangeLevels = 2
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			clean := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) }, v.mut)
			mkChaos := func(k *simclock.Kernel) *Deployment { return NewChaos(k, 71, chaosPlanQ12()) }
			a := runStagedChaosQ12(t, mkChaos, v.mut)
			b := runStagedChaosQ12(t, mkChaos, v.mut)

			// (a) graceful degradation: the chaotic run still computes the
			// exact fault-free answer.
			chunksIdentical(t, a.out, clean.out)

			// (b) determinism: the seeded plan replays exactly.
			if a.rep.Duration != b.rep.Duration || a.rep.TotalCost != b.rep.TotalCost {
				t.Errorf("chaos replay diverged: (%v, %v) vs (%v, %v)",
					a.rep.Duration, a.rep.TotalCost, b.rep.Duration, b.rep.TotalCost)
			}
			if a.injected != b.injected || a.s3Requests != b.s3Requests || a.sqsReqs != b.sqsReqs {
				t.Errorf("chaos replay bookkeeping diverged: injected %d vs %d, s3 %d vs %d, sqs %d vs %d",
					a.injected, b.injected, a.s3Requests, b.s3Requests, a.sqsReqs, b.sqsReqs)
			}
			chunksIdentical(t, a.out, b.out)

			// The storm actually happened and the resilience layer absorbed
			// it.
			if a.injected == 0 || len(a.rep.InjectedFaults) == 0 {
				t.Fatal("chaos plan injected nothing")
			}
			if a.rep.DriverRetries+a.rep.WorkerRetries == 0 {
				t.Error("no retries recorded under a fault storm")
			}

			// (c) bounded inflation: billed requests grow with the retry
			// storm but stay within 2x of the clean run.
			if a.s3Requests < clean.s3Requests {
				t.Errorf("chaos billed fewer s3 requests (%d) than clean (%d)", a.s3Requests, clean.s3Requests)
			}
			if a.s3Requests > 2*clean.s3Requests {
				t.Errorf("chaos s3 requests %d more than doubled clean %d", a.s3Requests, clean.s3Requests)
			}
			// SQS polls scale with virtual duration, and the mid-run crash
			// stretches the run by a liveness-cap stall — allow 4x there.
			if a.sqsReqs > 4*clean.sqsReqs {
				t.Errorf("chaos sqs requests %d more than quadrupled clean %d", a.sqsReqs, clean.sqsReqs)
			}
		})
	}
}

// TestStagedChaosGroupByByteIdentical runs the q1-shaped staged aggregation
// (scan -> repartition on the group key -> finalize, no join) under the
// same seeded storm: exact clean answer, exact replay.
func TestStagedChaosGroupByByteIdentical(t *testing.T) {
	const sql = `
SELECT l_suppkey, COUNT(*) AS n, MIN(l_orderkey) AS first_ord, MAX(l_orderkey) AS last_ord
FROM lineitem
GROUP BY l_suppkey ORDER BY l_suppkey`
	run := func(mkDep func(k *simclock.Kernel) *Deployment) chaosRun {
		k := simclock.New()
		dep := mkDep(k)
		var res chaosRun
		ok := false
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			cfg.Speculate = DefaultSpeculateConfig()
			d := New(dep, p, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			g := tpch.Gen{SF: 0.002, Seed: 11}
			refs, err := d.UploadTable("tpch", "lineitem", g.Generate(), 4, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			scfg := DefaultStageConfig()
			scfg.Partitions = 2
			scfg.Exchange.Poll = 100 * time.Millisecond
			out, rep, err := d.RunSQLStaged(sql, TableFiles{"lineitem": refs}, scfg)
			if err != nil {
				t.Error(err)
				return
			}
			res.out, res.rep = out, rep
			res.injected = dep.Faults.TotalInjected()
			ok = true
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		if !ok {
			t.FailNow()
		}
		return res
	}
	clean := run(func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) })
	mkChaos := func(k *simclock.Kernel) *Deployment { return NewChaos(k, 71, chaosPlanQ12()) }
	a := run(mkChaos)
	b := run(mkChaos)
	chunksIdentical(t, a.out, clean.out)
	chunksIdentical(t, a.out, b.out)
	if a.rep.Duration != b.rep.Duration || a.rep.TotalCost != b.rep.TotalCost || a.injected != b.injected {
		t.Errorf("group-by chaos replay diverged: (%v, %v, %d) vs (%v, %v, %d)",
			a.rep.Duration, a.rep.TotalCost, a.injected, b.rep.Duration, b.rep.TotalCost, b.injected)
	}
	if a.injected == 0 {
		t.Error("chaos plan injected nothing on the group-by query")
	}
}

// TestStagedChaosCrashRecovery: a worker that crashes on invoke never posts
// anything — the stage stalls until the speculation liveness cap re-invokes
// the silent worker, and the query completes with the exact clean answer.
func TestStagedChaosCrashRecovery(t *testing.T) {
	mut := func(cfg *Config, scfg *StageConfig) {
		cfg.Speculate = DefaultSpeculateConfig()
		scfg.MaxStageWait = 30 * time.Second
	}
	clean := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) }, mut)
	crash := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 9, Rules: []faults.Rule{
			{Op: faults.OpLambda, Kind: faults.KindCrash, Skip: 2, Count: 1},
		}})
	}, mut)
	chunksIdentical(t, crash.out, clean.out)
	if crash.injected != 1 {
		t.Errorf("injected = %d, want exactly the one crash", crash.injected)
	}
	if crash.rep.InjectedFaults[faults.OpLambda+"/"+string(faults.KindCrash)] != 1 {
		t.Errorf("injected faults = %v, want one lambda/crash", crash.rep.InjectedFaults)
	}
	if crash.rep.Duration <= clean.rep.Duration {
		t.Errorf("crash recovery took %v, clean %v — liveness cap never waited", crash.rep.Duration, clean.rep.Duration)
	}
}

// TestStagedChaosBudgetExhaustionFailureSeal: a throttle storm against the
// seal-barrier reads exhausts one worker's retry budget. The worker posts a
// typed retryable failure seal, the scheduler re-invokes it through the
// attempt machinery (speculation disabled — the failure path alone must
// recover), and the remaining storm fits the fresh budget.
func TestStagedChaosBudgetExhaustionFailureSeal(t *testing.T) {
	mut := func(cfg *Config, scfg *StageConfig) {
		cfg.RetryBudget = 3
		scfg.Pipelined = false // waves: barrier reads happen in a known order
		scfg.Partitions = 1    // exactly one consumer hits the storm
	}
	clean := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) }, mut)
	// Skip 1 exempts the driver's epoch fence read; the next six dynamo
	// Gets are the consumer's barrier reads. Budget 3 means attempt 0 dies
	// after four throttles (3 retries + the exhausted take), the relaunch
	// absorbs the remaining two.
	storm := runStagedChaosQ12(t, func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 4, Rules: []faults.Rule{
			{Op: faults.OpDynamoGet, Kind: faults.KindThrottle, Skip: 1, Count: 6},
		}})
	}, mut)
	chunksIdentical(t, storm.out, clean.out)
	if storm.rep.FailureSeals != 1 {
		t.Errorf("failure seals = %d, want 1 (budget exhaustion -> typed seal -> relaunch)", storm.rep.FailureSeals)
	}
	if storm.rep.InjectedFaults["dynamo.Get/throttle"] != 6 {
		t.Errorf("injected = %v, want 6 dynamo.Get throttles", storm.rep.InjectedFaults)
	}
}

// TestSingleScopeDuplicateResultDelivery: an at-least-once result queue that
// redelivers EVERY worker result must not corrupt single-scope collection —
// the scheduler keeps the first seal per worker and discards the rest.
func TestSingleScopeDuplicateResultDelivery(t *testing.T) {
	const sql = `
SELECT l_suppkey, COUNT(*) AS n, MIN(l_orderkey) AS first_ord
FROM lineitem
GROUP BY l_suppkey ORDER BY l_suppkey`
	run := func(mkDep func(k *simclock.Kernel) *Deployment) *columnar.Chunk {
		k := simclock.New()
		dep := mkDep(k)
		var out *columnar.Chunk
		k.Go("driver", func(p *simclock.Proc) {
			cfg := DefaultConfig()
			cfg.PollInterval = 50 * time.Millisecond
			d := New(dep, p, cfg)
			if err := d.Install(); err != nil {
				t.Error(err)
				return
			}
			g := tpch.Gen{SF: 0.002, Seed: 11}
			li := g.Generate()
			refs, err := d.UploadTable("tpch", "lineitem", li, 3, lpq.WriterOptions{RowGroupRows: 2000})
			if err != nil {
				t.Error(err)
				return
			}
			res, _, err := d.RunSQL(sql, "lineitem", refs)
			if err != nil {
				t.Error(err)
				return
			}
			out = res
		})
		k.Run()
		if k.Deadlocked() {
			t.Fatal("DES deadlocked")
		}
		if out == nil {
			t.FailNow()
		}
		return out
	}
	clean := run(func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) })
	// Rate 0 with no Count bound fires on every Send: every result message
	// is delivered twice, the copy 5ms later — mid-drain.
	dup := run(func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 1, Rules: []faults.Rule{
			{Op: faults.OpSQSSend, Kind: faults.KindDuplicate, Delay: 5 * time.Millisecond},
		}})
	})
	chunksIdentical(t, dup, clean)
}

// TestEpochSweepTTL is the satellite-2 test: the lazy sweep in acquireEpoch
// deletes epoch fence items older than EpochTTL of virtual time — including
// pre-TTL legacy items (bare integer, no timestamp) — and keeps fresh ones.
func TestEpochSweepTTL(t *testing.T) {
	k := simclock.New()
	dep := NewSimulated(k, 7)
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.EpochGCInterval = 1 // sweep on every acquire
		cfg.EpochTTL = time.Hour
		d := New(dep, p, cfg)
		q := d.Session().newQuery(p)
		defer q.close()
		table := stagesTableName(cfg.FunctionName)
		dep.Dynamo.CreateTable(table)
		// A legacy-format item from before the sweep existed: bare epoch,
		// no timestamp — reads as written at virtual zero.
		if err := dep.Dynamo.Put(p, table, epochKey("legacy"), []byte("7")); err != nil {
			t.Error(err)
			return
		}

		if e, err := q.acquireEpoch(table, "qA"); err != nil || e != 1 {
			t.Errorf("qA epoch = %d, %v, want 1", e, err)
		}
		if e, err := q.acquireEpoch(table, "legacy"); err != nil || e != 8 {
			t.Errorf("legacy epoch = %d, %v, want 8 (parsed bare item)", e, err)
		}

		p.Sleep(2 * time.Hour) // both items now exceed the 1h TTL

		if e, err := q.acquireEpoch(table, "qB"); err != nil || e != 1 {
			t.Errorf("qB epoch = %d, %v, want 1", e, err)
		}
		// The sweep that ran inside that acquire collected qA and legacy.
		if _, err := dep.Dynamo.Get(p, table, epochKey("qA")); !errors.Is(err, dynamo.ErrNoSuchItem) {
			t.Errorf("qA fence survived the sweep: %v", err)
		}
		if _, err := dep.Dynamo.Get(p, table, epochKey("legacy")); !errors.Is(err, dynamo.ErrNoSuchItem) {
			t.Errorf("legacy fence survived the sweep: %v", err)
		}
		// qB was just written — the next sweep must keep it, and its
		// counter keeps fencing.
		if e, err := q.acquireEpoch(table, "qB"); err != nil || e != 2 {
			t.Errorf("qB epoch after sweep = %d, %v, want 2 (item retained)", e, err)
		}
		// An expired fence restarts at 1: the TTL exceeds any worker
		// lifetime, so no zombie of the swept run can still be alive.
		if e, err := q.acquireEpoch(table, "qA"); err != nil || e != 1 {
			t.Errorf("qA epoch after expiry = %d, %v, want 1", e, err)
		}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
}
