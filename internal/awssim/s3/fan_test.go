package s3

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/simclock"
)

// inClock runs body on a caller environment of the named clock: a DES
// kernel process ("des") or an Immediate env in real time ("real").
func inClock(t *testing.T, clock string, body func(env simenv.Env)) {
	t.Helper()
	switch clock {
	case "des":
		k := simclock.New()
		k.Go("caller", func(p *simclock.Proc) { body(p) })
		k.Run()
		if k.Deadlocked() {
			t.Fatal("kernel deadlocked")
		}
	case "real":
		body(simenv.NewImmediate())
	default:
		t.Fatalf("unknown clock %q", clock)
	}
}

// TestFanDESWidthTiming: under DES, 10 tasks of 10 ms each at width 4 run
// in three waves and the caller resumes at exactly 30 ms of virtual time,
// every task on a child process of its own.
func TestFanDESWidthTiming(t *testing.T) {
	svc := New(Config{})
	k := simclock.New()
	var end time.Duration
	envs := map[simenv.Env]bool{}
	k.Go("caller", func(p *simclock.Proc) {
		c := NewClient(svc, p)
		c.Fan(10, 4, func(i int, tc *Client) {
			envs[tc.Env()] = true
			tc.Env().Sleep(10 * time.Millisecond)
		})
		end = p.Now()
		if envs[p] {
			t.Error("a task ran on the caller's process")
		}
	})
	k.Run()
	if end != 30*time.Millisecond {
		t.Errorf("caller resumed at %v, want 30ms", end)
	}
	if len(envs) != 10 {
		t.Errorf("%d distinct task environments, want 10", len(envs))
	}
	if k.Deadlocked() {
		t.Error("kernel deadlocked")
	}
}

// TestFanAttribution: requests issued by task clients land on the
// caller's bound span — op spans parented to it, billed cost summing to
// the meter's — and the caller's byte and retry counters include the
// tasks'. Task environments leave no binding behind.
func TestFanAttribution(t *testing.T) {
	for _, clock := range []string{"des", "real"} {
		t.Run(clock, func(t *testing.T) {
			meter := pricing.NewCostMeter()
			inj := faults.NewInjector(faults.Plan{Rules: []faults.Rule{
				{Op: faults.OpS3Get, Kind: faults.KindTransient, Count: 2},
			}})
			svc := New(Config{Meter: meter, Faults: inj, GetLatency: netmodel.Constant(10 * time.Millisecond)})
			tr := obs.New()
			svc.SetTracer(tr)
			svc.MustCreateBucket("b")
			im := simenv.NewImmediate()
			var size int64
			for i := 0; i < 6; i++ {
				data := make([]byte, 100+i)
				size += int64(len(data))
				if err := svc.Put(im, "b", fmt.Sprintf("k%d", i), data); err != nil {
					t.Fatal(err)
				}
			}
			var root obs.SpanID
			var taskEnvs []simenv.Env
			inClock(t, clock, func(env simenv.Env) {
				root = tr.StartSpan(obs.KindQuery, "q", 0, env.Now())
				tr.Bind(env, root)
				c := NewClient(svc, env)
				envOf := make([]simenv.Env, 6)
				errs := make([]error, 6)
				c.Fan(6, 3, func(i int, tc *Client) {
					envOf[i] = tc.Env()
					_, _, errs[i] = tc.Get("b", fmt.Sprintf("k%d", i), 1)
				})
				taskEnvs = envOf
				for i, err := range errs {
					if err != nil {
						t.Errorf("task %d: %v", i, err)
					}
				}
				if c.BytesRead() != size {
					t.Errorf("caller BytesRead = %d, want %d", c.BytesRead(), size)
				}
				if c.Retries() != 2 {
					t.Errorf("caller Retries = %d, want 2", c.Retries())
				}
				if got := tr.Current(env); got != root {
					t.Errorf("caller bound span = %d after Fan, want %d", got, root)
				}
				tr.Pop(env)
				tr.EndSpan(root, env.Now())
			})
			for i, e := range taskEnvs {
				if tr.Current(e) != 0 {
					t.Errorf("task %d environment still bound", i)
				}
			}
			var total obs.Cost
			ops := 0
			for _, sp := range tr.Spans() {
				total.Add(sp.Cost)
				if sp.Kind == obs.KindOp {
					ops++
					if sp.Parent != root {
						t.Errorf("op span %s parent = %d, want the caller's span %d", sp.Name, sp.Parent, root)
					}
				}
			}
			if ops != 6 {
				t.Errorf("%d op spans, want 6", ops)
			}
			if total.S3Get != meter.Count(pricing.LabelS3Read) || total.S3Get != 8 {
				t.Errorf("span GETs = %d, meter = %d, want 8 (6 + 2 retried)", total.S3Get, meter.Count(pricing.LabelS3Read))
			}
			if total.S3ReadBytes != size {
				t.Errorf("span bytes = %d, want %d", total.S3ReadBytes, size)
			}
		})
	}
}

// TestFanErrorKeepsOthers: a task that fails does not cost the other
// tasks their results, in either clock.
func TestFanErrorKeepsOthers(t *testing.T) {
	for _, clock := range []string{"des", "real"} {
		t.Run(clock, func(t *testing.T) {
			svc := New(Config{})
			svc.MustCreateBucket("b")
			im := simenv.NewImmediate()
			for i := 0; i < 5; i++ {
				if i != 2 {
					svc.Put(im, "b", fmt.Sprintf("k%d", i), []byte{byte('a' + i)})
				}
			}
			got := make([]string, 5)
			errs := make([]error, 5)
			inClock(t, clock, func(env simenv.Env) {
				NewClient(svc, env).Fan(5, 2, func(i int, tc *Client) {
					var data []byte
					data, _, errs[i] = tc.Get("b", fmt.Sprintf("k%d", i), 1)
					got[i] = string(data)
				})
			})
			for i := 0; i < 5; i++ {
				if i == 2 {
					if !errors.Is(errs[i], ErrNoSuchKey) {
						t.Errorf("task 2 err = %v, want NoSuchKey", errs[i])
					}
					continue
				}
				if errs[i] != nil || got[i] != string(rune('a'+i)) {
					t.Errorf("task %d = %q, %v", i, got[i], errs[i])
				}
			}
		})
	}
}

// TestFanPanicAfterJoin: a panicking task does not stop the others, and
// the panic surfaces in the caller once every task has finished.
func TestFanPanicAfterJoin(t *testing.T) {
	c := NewClient(New(Config{}), simenv.NewImmediate())
	ran := make([]bool, 8)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want boom", r)
			}
		}()
		c.Fan(8, 3, func(i int, _ *Client) {
			if i == 1 {
				panic("boom")
			}
			ran[i] = true
		})
	}()
	for i, ok := range ran {
		if i != 1 && !ok {
			t.Errorf("task %d did not run", i)
		}
	}
}
