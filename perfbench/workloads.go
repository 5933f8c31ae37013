package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/obs"
	"lambada/internal/simclock"
	"lambada/internal/tpch"
)

// spec describes one workload: its data, its deployment and its traffic.
type spec struct {
	name string
	des  bool
	sf   float64
	// lineFiles and orderFiles are the lpq file counts (0 orders files =
	// no orders table).
	lineFiles, orderFiles int
	bed                   bedConfig
	// cold is the first query on every fresh deployment: fixed, with the
	// TPC-H validation parameters, so cold figures compare across seeds.
	cold query
	// traffic draws the measured phase's requests from the seed.
	traffic func(rng *rand.Rand, o options) []request
	// run executes one request on env (a DES process, or nil in real time).
	run func(tb *testbed, env simenv.Env, q query) sample
	// refreshAt places the orders re-uploads of an open-loop run, as
	// shares of the arrival schedule; a workload with refreshes runs open
	// loop.
	refreshAt []float64
	// sloLimit is the fixed latency limit of slo_miss_frac.
	sloLimit time.Duration
}

// request is one query of the measured phase; at is its due time relative
// to the phase start (open loop only).
type request struct {
	q  query
	at time.Duration
}

// sample is what one request produced.
type sample struct {
	q       query
	version int           // orders version the query ran against
	lat     time.Duration // on the deployment's clock, from the due time
	err     error
	chunk   *columnar.Chunk // result of a direct driver call
	resp    *responseJSON   // result of a service call
	overhd  time.Duration   // service handler time outside the query
	served  bool            // went through the service handler
	hit     bool            // served from the result cache
	stages  int
	spec    int           // speculative backup invocations
	invoc   time.Duration // driver-side invocation time
}

// direct returns a run function that calls the driver through call,
// timing the query on env's clock.
func direct(call func(tb *testbed, env simenv.Env, sql string) (*columnar.Chunk, *driver.Report, error)) func(*testbed, simenv.Env, query) sample {
	return func(tb *testbed, env simenv.Env, q query) sample {
		s := sample{q: q}
		start := env.Now()
		out, rep, err := call(tb, env, q.sql())
		s.lat = env.Now() - start
		s.chunk, s.err = out, err
		if rep != nil {
			s.hit, s.stages, s.spec, s.invoc = rep.CacheHit, rep.Stages, rep.Speculated, rep.Invocation
		}
		return s
	}
}

// runServed sends q through the service handler. In real time (env nil)
// the latency is the real time of the call.
func runServed(tb *testbed, env simenv.Env, q query) sample {
	s := sample{q: q, served: true}
	var start time.Time
	var vstart time.Duration
	if env == nil {
		start = time.Now()
	} else {
		vstart = env.Now()
	}
	rec, overhead := tb.serve(env, templates, q.body())
	if env == nil {
		s.lat = time.Since(start)
	} else {
		s.lat = env.Now() - vstart
	}
	s.overhd = overhead
	if rec.Code != http.StatusOK {
		s.err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		return s
	}
	var resp responseJSON
	dec := json.NewDecoder(rec.Body)
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		s.err = fmt.Errorf("decoding response: %w", err)
		return s
	}
	s.resp = &resp
	p := resp.Profile
	s.hit, s.stages, s.spec, s.invoc = p.CacheHit, p.Stages, p.Speculated, time.Duration(p.Invocation)
	return s
}

var workloads = []*spec{
	{
		name:      "adhoc-scan",
		des:       true,
		sf:        0.01,
		lineFiles: 32,
		cold:      q1(90),
		traffic: func(rng *rand.Rand, o options) []request {
			n := o.sized(7, 3)
			// q1 and q6 alternate, so every seed runs the same mix.
			a, b := shuffled(rng, q1Universe()), shuffled(rng, q6Universe())
			reqs := make([]request, n)
			for i := range reqs {
				if i%2 == 0 {
					reqs[i].q = a[i/2%len(a)]
				} else {
					reqs[i].q = b[i/2%len(b)]
				}
			}
			return reqs
		},
		run:      direct((*testbed).runOneShot),
		sloLimit: 700 * time.Millisecond,
	},
	{
		name:       "shuffle-join",
		des:        true,
		sf:         0.01,
		lineFiles:  32,
		orderFiles: 16,
		bed: bedConfig{stage: func() driver.StageConfig {
			c := driver.DefaultStageConfig()
			c.Partitions = 64
			c.BroadcastRowLimit = -1
			return c
		}()},
		cold: q12(1994, 1, 50),
		traffic: func(rng *rand.Rand, o options) []request {
			n := o.sized(0.5, 2)
			qs := shuffled(rng, q12Universe())
			reqs := make([]request, n)
			for i := range reqs {
				reqs[i].q = qs[i%len(qs)]
			}
			return reqs
		},
		run:      direct((*testbed).runStaged),
		sloLimit: 15 * time.Second,
	},
	{
		name:       "dashboard",
		des:        true,
		sf:         0.01,
		lineFiles:  32,
		orderFiles: 16,
		bed:        bedConfig{maxInFlight: 8, cacheEntries: 32, stage: driver.DefaultStageConfig()},
		cold:       q6(1994, 6, 24),
		traffic:    dashboardTraffic,
		run:        runServed,
		refreshAt:  []float64{1.0 / 3, 2.0 / 3},
		sloLimit:   6250 * time.Millisecond,
	},
	{
		name:       "local-join",
		sf:         0.02,
		lineFiles:  16,
		orderFiles: 8,
		bed:        bedConfig{stage: driver.DefaultStageConfig()},
		cold:       q12(1994, 1, 50),
		// A third more queries than a phase of --seconds holds: real-time
		// figures need the larger sample to repeat.
		traffic: func(rng *rand.Rand, o options) []request {
			n := o.sized(13, 3)
			qs := shuffled(rng, q12Universe())
			reqs := make([]request, n)
			for i := range reqs {
				reqs[i].q = qs[i%len(qs)]
			}
			return reqs
		},
		run:      runServed,
		sloLimit: 150 * time.Millisecond,
	},
}

// Dashboard traffic: Poisson arrivals at dashRate (virtual). Request i
// has shape dashMix[i mod 4], and each shape's texts are ranked in a fixed
// order and drawn Zipf(dashSkew) by stratified sampling: the j-th of m
// draws is the rank at quantile (j+u)/m, u uniform, and the draws are then
// shuffled. So every seed sees the same mix, nearly the same multiset of
// texts and the same popular ones, and the seed draws the jitter, the
// order and the arrival times. Half the requests are q6, the light shape
// (few files survive pruning): with about a third of requests served from
// the cache, the median request is then a q6 miss, well inside that group,
// and the 90th percentile a q1 or q12 miss.
const (
	dashRate = 0.5 // requests per virtual second
	dashSkew = 1.3
)

var dashMix = [4]int{0, 1, 2, 1} // indexes into the universes: q1, q6, q12

func dashboardTraffic(rng *rand.Rand, o options) []request {
	n := o.sized(18, 8)
	u := [3][]query{q1Universe(), q6Universe(), q12Universe()}
	var slots [3][]int // request indexes of each shape
	for i := 0; i < n; i++ {
		sh := dashMix[i%len(dashMix)]
		slots[sh] = append(slots[sh], i)
	}
	reqs := make([]request, n)
	for sh, idx := range slots {
		ranks := zipfStratified(rng, len(idx), len(u[sh]), dashSkew)
		for j, i := range idx {
			reqs[i].q = u[sh][ranks[j]]
		}
	}
	var at float64
	for i := range reqs {
		at += rng.ExpFloat64() / dashRate
		reqs[i].at = time.Duration(at * float64(time.Second))
	}
	return reqs
}

// zipfStratified draws m ranks in [0, size) with P(k) ∝ (k+1)^-s, one per
// stratum of the distribution, in seeded random order.
func zipfStratified(rng *rand.Rand, m, size int, s float64) []int {
	cdf := make([]float64, size)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	ranks := make([]int, m)
	for j := range ranks {
		q := (float64(j) + rng.Float64()) / float64(m) * sum
		ranks[j] = min(sort.SearchFloat64s(cdf, q), size-1)
	}
	rng.Shuffle(m, func(a, b int) { ranks[a], ranks[b] = ranks[b], ranks[a] })
	return ranks
}

// dataset is the generated input of one run.
type dataset struct {
	lineitem *columnar.Chunk
	orders   []*columnar.Chunk // version 0, then one per refresh
}

func generate(w *spec, seed int64) dataset {
	g := tpch.Gen{SF: w.sf, Seed: seed}
	d := dataset{lineitem: g.Generate()}
	if w.orderFiles > 0 {
		for v := 0; v <= len(w.refreshAt); v++ {
			d.orders = append(d.orders, tpch.Gen{SF: w.sf, Seed: seed + int64(v)*7919}.OrdersFor(d.lineitem))
		}
	}
	return d
}

func (d dataset) tables(version int) map[string]*columnar.Chunk {
	t := map[string]*columnar.Chunk{"lineitem": d.lineitem}
	if len(d.orders) > 0 {
		t["orders"] = d.orders[version]
	}
	return t
}

// inDES runs fn on a fresh DES process of tb's kernel to completion, or
// directly in real time.
func (tb *testbed) inDES(fn func(env simenv.Env)) {
	if tb.k == nil {
		fn(nil)
		return
	}
	tb.k.Go("bench", func(p *simclock.Proc) { fn(p) })
	tb.k.Run()
}

// envOrImmediate is the environment uploads run on.
func envOrImmediate(env simenv.Env) simenv.Env {
	if env == nil {
		return simenv.NewImmediate()
	}
	return env
}

// setupTimes splits one set-up.
type setupTimes struct{ datagen, upload time.Duration }

// setUp generates the data and installs a fresh deployment with it: the
// set-up every run repeats several times. On a traced deployment the
// upload's requests land on a span of the benchmark's own, so the span
// tree accounts for every billed request.
func setUp(w *spec, seed int64, i int, trace bool) (*testbed, dataset, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	data := generate(w, seed)
	t.datagen = time.Since(start)
	c := w.bed
	c.des, c.seed, c.trace = w.des, seed*16+int64(i), trace
	tb := newTestbed(c)
	tb.sf = w.sf
	var err error
	tb.inDES(func(env simenv.Env) {
		env = envOrImmediate(env)
		sp := tb.bind(env, "setup")
		defer tb.unbind(env, sp)
		if err = tb.install(); err != nil {
			return
		}
		if err = tb.upload(env, "lineitem", "lineitem", data.lineitem, w.lineFiles); err != nil {
			return
		}
		if w.orderFiles > 0 {
			err = tb.upload(env, "orders", "orders-v0", data.orders[0], w.orderFiles)
		}
	})
	t.upload = time.Since(start) - t.datagen
	return tb, data, t, err
}

// bind opens a benchmark span on env so the requests env makes are
// attributed to it (no-op without tracing).
func (tb *testbed) bind(env simenv.Env, name string) obs.SpanID {
	if tb.tr == nil {
		return 0
	}
	sp := tb.tr.StartSpan(obs.KindPhase, name, 0, env.Now())
	tb.tr.Bind(env, sp)
	return sp
}

func (tb *testbed) unbind(env simenv.Env, sp obs.SpanID) {
	if sp == 0 {
		return
	}
	tb.tr.Pop(env)
	tb.tr.EndSpan(sp, env.Now())
}

// phase is one measured phase: its samples and the counters around it.
type phase struct {
	samples       []sample
	before, after counters
	err           error // a refresh upload that failed
}

func (p *phase) wall() time.Duration { return p.after.at.Sub(p.before.at) }

// measure runs the requests on tb: a closed loop from one client, or, when
// the workload has refreshes, an open loop where each request is a DES
// process started at its due time.
func measure(w *spec, tb *testbed, data dataset, reqs []request) *phase {
	p := &phase{samples: make([]sample, len(reqs))}
	runtime.GC() // start every phase from the same heap
	p.before = tb.read()
	if w.refreshAt == nil {
		tb.inDES(func(env simenv.Env) {
			for i, r := range reqs {
				p.samples[i] = w.run(tb, env, r.q)
			}
		})
		p.after = tb.read()
		return p
	}
	version := 0
	t0 := tb.k.Now()
	for i, r := range reqs {
		i, r := i, r
		tb.k.GoAt(t0+r.at, fmt.Sprintf("request%d", i), func(proc *simclock.Proc) {
			v := version
			s := w.run(tb, proc, r.q)
			s.lat = proc.Now() - t0 - r.at
			s.version = v
			p.samples[i] = s
		})
	}
	end := reqs[len(reqs)-1].at
	for j, share := range w.refreshAt {
		j := j
		at := time.Duration(share * float64(end))
		tb.k.GoAt(t0+at, fmt.Sprintf("refresh%d", j), func(proc *simclock.Proc) {
			sp := tb.bind(proc, "refresh")
			defer tb.unbind(proc, sp)
			prefix := fmt.Sprintf("orders-v%d", j+1)
			if err := tb.upload(proc, "orders", prefix, data.orders[j+1], w.orderFiles); err != nil {
				p.err = fmt.Errorf("refresh %s: %w", prefix, err)
				return
			}
			version = j + 1
		})
	}
	tb.k.Run()
	p.after = tb.read()
	return p
}
