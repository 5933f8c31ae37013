package driver

import (
	"bytes"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// singleScopeRun is one single-scope RunSQL execution on the DES kernel.
type singleScopeRun struct {
	out  *columnar.Chunk
	rep  *Report
	sess *Session
}

// runSingleScopeDES uploads nfiles of gen's lineitem to a fresh DES
// deployment, runs sql through RunSQL, and returns the run's observables.
// mut tweaks the driver config before the session is built.
func runSingleScopeDES(t *testing.T, mkDep func(k *simclock.Kernel) *Deployment, mut func(cfg *Config), sql string, gen tpch.Gen, nfiles int) singleScopeRun {
	t.Helper()
	k := simclock.New()
	dep := mkDep(k)
	var res singleScopeRun
	k.Go("driver", func(p *simclock.Proc) {
		cfg := DefaultConfig()
		cfg.PollInterval = 50 * time.Millisecond
		if mut != nil {
			mut(&cfg)
		}
		d := New(dep, p, cfg)
		if err := d.Install(); err != nil {
			t.Error(err)
			return
		}
		refs, err := d.UploadTable("tpch", "lineitem", gen.Generate(), nfiles, lpq.WriterOptions{RowGroupRows: 2000})
		if err != nil {
			t.Error(err)
			return
		}
		out, rep, err := d.RunSQL(sql, "lineitem", refs)
		if err != nil {
			t.Error(err)
			return
		}
		res = singleScopeRun{out: out, rep: rep, sess: d.Session()}
	})
	k.Run()
	if k.Deadlocked() {
		t.Fatal("DES deadlocked")
	}
	if res.out == nil {
		t.FailNow()
	}
	return res
}

// resultBytes encodes a result chunk as an lpq blob — the wire form workers
// post — so two results compare byte for byte.
func resultBytes(t *testing.T, c *columnar.Chunk) []byte {
	t.Helper()
	blob, err := lpq.WriteFile(c.Schema, lpq.WriterOptions{}, c)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestSingleScopeMergeIndependentOfArrivalOrder: the latency seed reorders
// the workers' completions, but the driver merges partial aggregates in
// worker order, so the floating-point sums of q1 come out byte-identical.
func TestSingleScopeMergeIndependentOfArrivalOrder(t *testing.T) {
	gen := tpch.Gen{SF: 0.01, Seed: 3}
	var want []byte
	for _, seed := range []int64{5, 6, 7} {
		run := runSingleScopeDES(t, func(k *simclock.Kernel) *Deployment { return NewSimulated(k, seed) }, nil, q1SQL, gen, 32)
		got := resultBytes(t, run.out)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("latency seed %d: q1 result bytes differ from seed 5's", seed)
		}
	}
}

// TestSingleScopeAdmissionBoundsFleet: under MaxInFlight the scheduler
// launches a single-scope fleet one token at a time, so the cap holds
// without recovery traffic, and the answer is the unadmitted run's.
func TestSingleScopeAdmissionBoundsFleet(t *testing.T) {
	gen := tpch.Gen{SF: 0.002, Seed: 3}
	mkDep := func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) }
	free := runSingleScopeDES(t, mkDep, nil, q1SQL, gen, 8)
	capped := runSingleScopeDES(t, mkDep, func(cfg *Config) { cfg.MaxInFlight = 3 }, q1SQL, gen, 8)
	adm := capped.sess.Admission()
	if adm.Peak() > 3 {
		t.Errorf("admission peak = %d, want <= 3", adm.Peak())
	}
	if adm.Blocked() == 0 {
		t.Error("8 workers under a cap of 3 never waited for a token")
	}
	if adm.Overflow() != 0 {
		t.Errorf("overflow = %d, want 0 in a fault-free run", adm.Overflow())
	}
	if capped.rep.Workers != 8 {
		t.Errorf("workers = %d, want 8", capped.rep.Workers)
	}
	if !bytes.Equal(resultBytes(t, capped.out), resultBytes(t, free.out)) {
		t.Error("admitted result bytes differ from the unadmitted run's")
	}
}

// TestSingleScopeRelaunchesRetryableFailureSeal: a worker whose S3 reads
// exhaust its retry budget posts a retryable failure seal; the scheduler
// relaunches it as the next attempt and the query still produces the
// fault-free answer.
func TestSingleScopeRelaunchesRetryableFailureSeal(t *testing.T) {
	gen := tpch.Gen{SF: 0.002, Seed: 31}
	mut := func(cfg *Config) { cfg.RetryBudget = 3 }
	clean := runSingleScopeDES(t, func(k *simclock.Kernel) *Deployment { return NewSimulated(k, 71) }, mut, q6SQL, gen, 4)
	storm := runSingleScopeDES(t, func(k *simclock.Kernel) *Deployment {
		return NewChaos(k, 71, faults.Plan{Seed: 3, Rules: []faults.Rule{
			{Op: faults.OpS3Get, Kind: faults.KindTransient, Skip: 2, Count: 10},
		}})
	}, mut, q6SQL, gen, 4)
	if storm.rep.FailureSeals != 1 {
		t.Errorf("failure seals = %d, want 1 (budget exhaustion -> typed seal -> relaunch)", storm.rep.FailureSeals)
	}
	if !bytes.Equal(resultBytes(t, storm.out), resultBytes(t, clean.out)) {
		t.Error("relaunched result bytes differ from the fault-free run's")
	}
}
