// Command perfbench is the repository benchmark: it runs one named
// workload against the Lambada driver and service from a single process,
// checks every result against the single-node engine, and prints the
// workload's metrics by name and unit as one JSON line. See README.md.
//
//	perfbench -workload adhoc-scan -seed 1 -seconds 15 -trace 0
//	perfbench -quick
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lambada/internal/awssim/simenv"
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	quick   bool
	out     string
}

// sized is the request count of a measured phase: perSecond requests for
// every second of --seconds (the rate a 2-CPU machine sustains), or quickN
// in quick mode. It depends on the flags alone, never on the clock, so a
// DES run repeats exactly per seed.
func (o options) sized(perSecond float64, quickN int) int {
	if o.quick {
		return quickN
	}
	return max(1, int(perSecond*float64(o.seconds)))
}

// setups is how many times a run sets up a fresh deployment: set-up time
// and the cold query are medians over them. The real-time cold query is
// noisier than a virtual one and takes more of them. A traced run, which
// reports neither, sets up once per phase to stay short.
func (o options) setups(w *spec) int {
	switch {
	case o.quick || o.trace:
		return 1
	case !w.des:
		return 7
	}
	return 5
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: adhoc-scan, shuffle-join, dashboard or local-join")
		seed    = flag.Int64("seed", 1, "workload seed: data, parameter draws and arrival schedule")
		seconds = flag.Int("seconds", 15, "size of the measured phase, in seconds of work on a 2-CPU machine")
		trace   = flag.Int("trace", 0, "1 = also run a traced phase and print the per-layer metrics instead")
		quick   = flag.Bool("quick", false, "run every workload (or -workload) at a tiny size; exit non-zero on any failure or wrong result")
		out     = flag.String("out", ".bench_build/perfbench", "directory for the traced run's Chrome trace, CPU profile and numbers")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, out: *out}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	if o.seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	var run []*spec
	for _, w := range workloads {
		if w.name == *name || (o.quick && *name == "") {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if o.trace {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fail(err)
		}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		res, err := runWorkload(w, o)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		if o.quick {
			fmt.Fprintf(os.Stderr, "%s: %d attempted, %d failed, correct=%v\n", w.name, res.Attempted, res.Failed, res.Correct)
		}
		if len(run) == 1 {
			total.Metrics = res.Metrics
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fail(err)
	}
	if o.trace && len(run) == 1 {
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-numbers.json", run[0].name, o.seed))
		if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Println(string(line))
	if o.quick && !total.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload sets up several fresh deployments, runs the cold query on
// each, measures the workload on the last one, checks every result and,
// with tracing, repeats the whole run on a traced deployment for the
// per-layer numbers.
func runWorkload(w *spec, o options) (*result, error) {
	if o.quick {
		w = w.tiny()
	}
	pass := w.traffic(rand.New(rand.NewSource(o.seed)), o)
	chk := newChecker()
	var colds []time.Duration
	var setups []setupTimes
	var tb *testbed
	var data dataset
	for i := 0; i < o.setups(w); i++ {
		var t setupTimes
		var err error
		tb, data, t, err = setUp(w, o.seed, i, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, t)
		s := runCold(w, tb)
		chk.check(&s, data)
		colds = append(colds, s.lat)
	}
	ph := measure(w, tb, data, pass)
	if ph.err != nil {
		chk.fail(ph.err)
	}
	for i := range ph.samples {
		chk.check(&ph.samples[i], data)
	}

	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		endToEnd(res.Metrics, ph, colds, setups)
	} else {
		tr, err := traced(w, o, pass, chk)
		if err != nil {
			return nil, err
		}
		perLayer(res.Metrics, w, tb, ph, data, setups, chk, tr)
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	for _, e := range chk.errs {
		fmt.Fprintln(os.Stderr, "perfbench: wrong or failed:", e)
	}
	return res, nil
}

// tiny is w at the quick mode's size: a fifth of the data in at most
// four files per table and at most four partitions per boundary.
func (w *spec) tiny() *spec {
	t := *w
	t.sf /= 5
	t.lineFiles = min(t.lineFiles, 4)
	t.orderFiles = min(t.orderFiles, 2)
	t.bed.stage.Partitions = min(t.bed.stage.Partitions, 4)
	return &t
}

// runCold runs the cold query on a fresh deployment, alone, after
// collecting the set-up's garbage so it does not land on the query.
func runCold(w *spec, tb *testbed) sample {
	runtime.GC()
	var s sample
	tb.inDES(func(env simenv.Env) { s = w.run(tb, env, w.cold) })
	return s
}

// endToEnd fills the metrics a user of the system sees.
func endToEnd(m map[string]metric, ph *phase, colds []time.Duration, setups []setupTimes) {
	n := float64(len(ph.samples))
	var lats []time.Duration
	for _, s := range ph.samples {
		if s.err == nil {
			lats = append(lats, s.lat)
		}
	}
	m["vlat_p50_ms"] = metric{ms(percentile(lats, 0.5)), "ms"}
	m["vlat_p90_ms"] = metric{ms(percentile(lats, 0.9)), "ms"}
	m["vlat_cold_ms"] = metric{ms(percentile(colds, 0.5)), "ms"}
	m["usd_per_query"] = metric{(ph.after.usd - ph.before.usd) / n, "USD"}
	m["alloc_mb_per_query"] = metric{float64(ph.after.alloc-ph.before.alloc) / 1e6 / n, "MB"}
	var totals []time.Duration
	for _, t := range setups {
		totals = append(totals, t.datagen+t.upload)
	}
	m["setup_s"] = metric{percentile(totals, 0.5).Seconds(), "s"}
}

// percentile is the nearest-rank percentile (0 for no values).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
