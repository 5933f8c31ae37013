package main

// This file is the benchmark's only caller of the driver and service entry
// points. Workloads talk to a testbed, so when those entry points change
// (one query path, one Run method) this is the one file to retarget.

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/driver"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/service"
	"lambada/internal/simclock"
)

// bedConfig picks a deployment for one testbed.
type bedConfig struct {
	des          bool  // DES kernel in virtual time; false = goroutine workers in real time
	seed         int64 // seed of the simulated services' latency draws
	maxInFlight  int   // deployment-wide admission cap (0 = per-query pacing)
	cacheEntries int   // session result cache size (0 = off)
	trace        bool  // record the obs span tree
	stage        driver.StageConfig
}

// testbed is one installed deployment with its uploaded tables.
type testbed struct {
	k      *simclock.Kernel // nil on the real-time deployment
	dep    *driver.Deployment
	sess   *driver.Session
	tr     *obs.Tracer // nil unless traced
	stage  driver.StageConfig
	tables driver.TableFiles
	sf     float64
}

func newTestbed(c bedConfig) *testbed {
	cfg := driver.DefaultConfig()
	cfg.MaxInFlight = c.maxInFlight
	cfg.ResultCacheEntries = c.cacheEntries
	tb := &testbed{stage: c.stage, tables: driver.TableFiles{}}
	if c.des {
		tb.k = simclock.New()
		tb.dep = driver.NewSimulated(tb.k, c.seed)
	} else {
		tb.dep = driver.NewLocal()
	}
	if c.trace {
		tb.tr = obs.New()
		tb.dep.EnableTracing(tb.tr)
	}
	tb.sess = driver.NewSession(tb.dep, cfg)
	return tb
}

func (tb *testbed) install() error { return tb.sess.Install() }

// upload stores data as nfiles gzip lpq files under prefix and makes them
// table's files for every query that starts afterwards. The map is
// replaced, not mutated, so a request already in flight keeps its files.
func (tb *testbed) upload(env simenv.Env, table, prefix string, data *columnar.Chunk, nfiles int) error {
	refs, err := tb.sess.UploadTable(env, "tpch", prefix, data, nfiles,
		lpq.WriterOptions{RowGroupRows: 65536, Compression: lpq.Gzip})
	if err != nil {
		return err
	}
	next := driver.TableFiles{table: refs}
	for name, files := range tb.tables {
		if name != table {
			next[name] = files
		}
	}
	tb.tables = next
	return nil
}

// runOneShot runs a single-scope query over lineitem.
func (tb *testbed) runOneShot(env simenv.Env, sql string) (*columnar.Chunk, *driver.Report, error) {
	return tb.sess.RunSQL(env, sql, "lineitem", tb.tables["lineitem"])
}

// runStaged runs a query through the stage planner over every table.
func (tb *testbed) runStaged(env simenv.Env, sql string) (*columnar.Chunk, *driver.Report, error) {
	return tb.sess.RunSQLStaged(env, sql, tb.tables, tb.stage)
}

// admission returns the shared admission counters (zero without a cap).
func (tb *testbed) admission() (peak int, blocked, overflow uint64) {
	if a := tb.sess.Admission(); a != nil {
		return a.Peak(), a.Blocked(), a.Overflow()
	}
	return 0, 0, 0
}

// envRunner is the benchmark's service.Runner: it runs the request on the
// environment it was built with (the calling DES process), or on a fresh
// real-time environment through service.GoRunner when env is nil, and
// keeps the real time spent inside so the service's own overhead can be
// split from the query.
type envRunner struct {
	env    simenv.Env
	inside time.Duration
}

func (r *envRunner) Run(fn func(env simenv.Env) error) error {
	start := time.Now()
	defer func() { r.inside += time.Since(start) }()
	if r.env == nil {
		return service.GoRunner{}.Run(fn)
	}
	return fn(r.env)
}

// serve sends one POST /query body through the service's HTTP handler, in
// process, running the query on env (nil = real time). It returns the
// response and the real time the handler spent outside the query.
func (tb *testbed) serve(env simenv.Env, queries map[string]string, body string) (*httptest.ResponseRecorder, time.Duration) {
	r := &envRunner{env: env}
	h := service.New(service.Config{
		Session: tb.sess,
		Runner:  r,
		Tables:  tb.tables,
		SF:      tb.sf,
		Stage:   tb.stage,
		Queries: queries,
	}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, req)
	return w, time.Since(start) - r.inside
}

// counters is a reading of every public counter a phase is measured by:
// the real clock and Go allocator, the billing meter, and the simulator.
type counters struct {
	at       time.Time
	alloc    uint64  // bytes allocated since process start
	gcCPU    float64 // GC CPU seconds (runtime/metrics estimate)
	totalCPU float64
	usd      float64
	counts   map[string]int64 // meter request counts by pricing label
	mibNs    int64            // billed Lambda MiB·ns
	readB    int64            // S3 bytes read
	invokes  int64            // Lambda invocations
	cold     int64            // of which cold starts
	steps    uint64           // DES events dispatched
	wakeups  uint64           // completion-signal wakeups
}

var meterLabels = []string{
	pricing.LabelS3Read, pricing.LabelS3Write, pricing.LabelS3List,
	pricing.LabelSQS, pricing.LabelDynamoRead, pricing.LabelDynamoWrite,
	pricing.LabelLambdaRequests,
}

func (tb *testbed) read() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c := counters{
		at:       time.Now(),
		alloc:    ms.TotalAlloc,
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
		usd:      float64(tb.dep.Meter.Total()),
		counts:   map[string]int64{},
		mibNs:    tb.dep.Lambda.BilledMiBNs(),
		readB:    tb.dep.S3.ReadBytes(),
	}
	for _, l := range meterLabels {
		c.counts[l] = tb.dep.Meter.Count(l)
	}
	c.invokes, c.cold = tb.dep.Lambda.Invocations()
	if tb.k != nil {
		c.steps = tb.k.Steps()
		c.wakeups = tb.k.CompletionWakeups()
	} else {
		c.wakeups = simenv.Wakeups()
	}
	return c
}
