package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/obs"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
)

// checker compares every result with the single-node engine's.
type checker struct {
	want      map[string]*columnar.Chunk // by orders version and SQL text
	refTime   time.Duration              // real time spent in the oracle
	refCalls  int
	attempted int
	failed    int
	errs      []string
}

func newChecker() *checker { return &checker{want: map[string]*columnar.Chunk{}} }

// check marks s failed when it errored or its result is wrong, and drops
// the result.
func (c *checker) check(s *sample, d dataset) {
	c.attempted++
	err := s.err
	if err == nil {
		var want *columnar.Chunk
		want, err = c.expected(s.q.sql(), s.version, d)
		switch {
		case err != nil:
			err = fmt.Errorf("oracle: %w", err)
		case s.resp != nil:
			err = compareResponse(s.resp, want)
		default:
			err = compareChunk(s.chunk, want)
		}
	}
	s.chunk, s.resp = nil, nil
	if err != nil {
		s.err = err
		c.fail(fmt.Errorf("%s %v: %w", s.q.name, s.q.params, err))
	}
}

func (c *checker) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

func (c *checker) expected(sql string, version int, d dataset) (*columnar.Chunk, error) {
	key := strconv.Itoa(version) + "\x00" + sql
	if w, ok := c.want[key]; ok {
		return w, nil
	}
	start := time.Now()
	w, err := reference(sql, d.tables(version))
	c.refTime += time.Since(start)
	c.refCalls++
	if err != nil {
		return nil, err
	}
	c.want[key] = w
	return w, nil
}

// tracedRun is the traced repeat of a run.
type tracedRun struct {
	ph    *phase
	spans []obs.Span
	first obs.SpanID         // spans after it belong to the measured phase
	roots []obs.Span         // query spans of the measured phase
	crit  map[string]float64 // critical-path virtual ms per query, by part
	cpu   map[string]float64 // CPU share by module
}

// traced repeats the run on a traced deployment: set-up, cold query and
// measured phase, the phase under the CPU profiler. It checks the span
// tree against the meter and writes the Chrome trace and the profile.
func traced(w *spec, o options, pass []request, chk *checker) (*tracedRun, error) {
	tb, data, _, err := setUp(w, o.seed, o.setups(w)-1, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	s := runCold(w, tb)
	chk.check(&s, data)
	first := obs.SpanID(len(tb.tr.Spans()))

	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	prof, err := os.Create(base + "-cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	ph := measure(w, tb, data, pass)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	if ph.err != nil {
		chk.fail(ph.err)
	}
	for i := range ph.samples {
		chk.check(&ph.samples[i], data)
	}

	tr := &tracedRun{ph: ph, spans: tb.tr.Spans(), first: first, crit: map[string]float64{}}
	for _, sp := range tr.spans {
		if sp.ID > first && sp.Kind == obs.KindQuery {
			tr.roots = append(tr.roots, sp)
		}
	}
	for _, err := range tilingErrors(tr) {
		chk.fail(fmt.Errorf("critical path: %w", err))
	}
	for _, err := range meterErrors(tr.spans, ph.after) {
		chk.fail(fmt.Errorf("span tree vs meter: %w", err))
	}
	if err := writeChromeTrace(base+"-trace.json", tr.spans); err != nil {
		return nil, err
	}
	if tr.cpu, err = cpuShares(base + "-cpu.pprof"); err != nil {
		return nil, err
	}
	return tr, nil
}

func writeChromeTrace(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := obs.ExportChromeTrace(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tilingErrors splits each query's critical path into its parts and checks
// that the segments tile the query span exactly.
func tilingErrors(tr *tracedRun) []error {
	byID := make(map[obs.SpanID]obs.Span, len(tr.spans))
	children := map[obs.SpanID][]obs.SpanID{}
	for _, sp := range tr.spans {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp.ID)
	}
	var errs []error
	for _, root := range tr.roots {
		sub, orig := subtree(byID, children, root.ID)
		var sum time.Duration
		for _, seg := range obs.CriticalPath(sub, 1) {
			sum += seg.Duration()
			sp := byID[orig[seg.Span-1]]
			side := "critpath.driver_vms"
			for a := sp; a.ID != 0; a = byID[a.Parent] {
				if a.Kind == obs.KindInvoke {
					side = "critpath.worker_vms"
					break
				}
			}
			tr.crit[side] += ms(seg.Duration())
			tr.crit["critpath."+opFamily(sp)+"_vms"] += ms(seg.Duration())
		}
		if sum != root.Duration() {
			errs = append(errs, fmt.Errorf("query %s: segments sum to %v, span lasts %v", root.Name, sum, root.Duration()))
		}
	}
	for k := range tr.crit {
		tr.crit[k] /= float64(max(len(tr.roots), 1))
	}
	return errs
}

// subtree returns root's subtree renumbered 1..n in the order of the
// original IDs, so root is 1 and obs.CriticalPath, which indexes spans by
// ID and breaks ties by ID, runs on one query instead of the whole
// recording; orig maps the new IDs back.
func subtree(byID map[obs.SpanID]obs.Span, children map[obs.SpanID][]obs.SpanID, root obs.SpanID) (sub []obs.Span, orig []obs.SpanID) {
	orig = []obs.SpanID{root}
	for i := 0; i < len(orig); i++ {
		orig = append(orig, children[orig[i]]...)
	}
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	renum := make(map[obs.SpanID]obs.SpanID, len(orig))
	for i, id := range orig {
		renum[id] = obs.SpanID(i + 1)
	}
	sub = make([]obs.Span, len(orig))
	for i, id := range orig {
		sp := byID[id]
		sp.ID, sp.Parent = renum[id], renum[sp.Parent]
		sub[i] = sp
	}
	return sub, orig
}

// opFamily names the part of the critical path a span stands for.
func opFamily(sp obs.Span) string {
	if sp.Kind != obs.KindOp {
		return "other"
	}
	switch n := strings.ToLower(sp.Name); {
	case n == "s3.get" || n == "s3.getrange" || n == "s3.head":
		return "s3_read"
	case n == "s3.list":
		return "s3_list"
	case strings.HasPrefix(n, "s3."):
		return "s3_write"
	case strings.HasPrefix(n, "dynamo."):
		return "dynamo"
	case strings.HasPrefix(n, "sqs."):
		return "sqs"
	case strings.HasPrefix(n, "lambda."):
		return "invoke"
	}
	return "other"
}

// meterErrors checks that the span tree's billed requests equal the
// meter's, family by family, over the traced deployment's whole life.
func meterErrors(spans []obs.Span, meter counters) []error {
	c := obs.TotalCost(spans)
	pairs := []struct {
		label      string
		spans, met int64
	}{
		{pricing.LabelS3Read, c.S3Get, meter.counts[pricing.LabelS3Read]},
		{pricing.LabelS3Write, c.S3Put, meter.counts[pricing.LabelS3Write]},
		{pricing.LabelS3List, c.S3List, meter.counts[pricing.LabelS3List]},
		{pricing.LabelSQS, c.SQSRequests, meter.counts[pricing.LabelSQS]},
		{pricing.LabelDynamoRead, c.DynamoReads, meter.counts[pricing.LabelDynamoRead]},
		{pricing.LabelDynamoWrite, c.DynamoWrites, meter.counts[pricing.LabelDynamoWrite]},
		{pricing.LabelLambdaRequests, c.LambdaInvokes, meter.counts[pricing.LabelLambdaRequests]},
		{"lambda MiB·ns", c.LambdaMiBNs, meter.mibNs},
		{"s3 read bytes", c.S3ReadBytes, meter.readB},
	}
	var errs []error
	for _, p := range pairs {
		if p.spans != p.met {
			errs = append(errs, fmt.Errorf("%s: spans %d, meter %d", p.label, p.spans, p.met))
		}
	}
	return errs
}

// modules are the program's layers, as named under lambada/internal.
var modules = []string{
	"awssim", "columnar", "driver", "engine", "exchange", "invoke", "lpq",
	"obs", "resilience", "s3fs", "scan", "service", "simclock", "sqlfe",
	"stageplan", "tpch",
}

// cpuShares reads the CPU profile back with the toolchain's pprof and
// gives each sample to the innermost lambada/internal function of its
// stack, so allocation and GC assist time count for the module that caused
// them. As in the compiled code, an inlined call belongs to the function
// it was inlined into. Samples without such a function are "other".
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	byMod := map[string]float64{}
	var total, cur float64
	owner := ""
	flush := func() {
		if cur > 0 {
			if owner == "" {
				owner = "other"
			}
			byMod[owner] += cur
			total += cur
		}
		cur, owner = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	in := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			in = true
			continue
		}
		fields := strings.Fields(line)
		if !in || len(fields) == 0 {
			continue
		}
		if v, ok := parseSampleValue(fields[0]); ok && len(fields) >= 2 {
			cur = v
			fields = fields[1:]
		}
		if fields[len(fields)-1] == "(inline)" {
			continue // an inlined call counts for the function it was inlined into
		}
		if frame := fields[0]; owner == "" {
			if mod, ok := strings.CutPrefix(frame, "lambada/internal/"); ok {
				owner = strings.FieldsFunc(mod, func(r rune) bool { return r == '/' || r == '.' })[0]
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for mod, v := range byMod {
		if total > 0 {
			shares[mod] = v / total
		}
	}
	return shares, nil
}

// parseSampleValue reads a pprof sample value such as "10ms" or "1.20s".
func parseSampleValue(s string) (float64, bool) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, false
	}
	return d.Seconds(), true
}

// perLayer fills the per-layer metrics: counters of the untraced phase,
// the critical path and CPU profile of the traced one, and calls the
// benchmark times itself.
func perLayer(m map[string]metric, w *spec, tb *testbed, ph *phase, data dataset, setups []setupTimes, chk *checker, tr *tracedRun) {
	n := float64(len(ph.samples))
	b, a := ph.before, ph.after
	cnt := func(label string) float64 { return float64(a.counts[label] - b.counts[label]) }
	invokes := float64(a.invokes - b.invokes)
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var hits, stages, spec, misses, missed float64
	var invoc time.Duration
	var overheads []time.Duration
	for _, s := range ph.samples {
		if s.err != nil || s.lat > w.sloLimit {
			missed++
		}
		if s.hit {
			hits++
		} else {
			misses++
			invoc += s.invoc
		}
		stages += float64(s.stages)
		spec += float64(s.spec)
		if s.served {
			overheads = append(overheads, s.overhd)
		}
	}
	put("driver.workers_per_query", "count", invokes/n)
	put("driver.cold_frac", "fraction", float64(a.cold-b.cold)/max(invokes, 1))
	put("driver.invocation_vms", "ms", ms(invoc)/max(misses, 1))
	put("driver.speculated_per_query", "count", spec/n)
	var retries, reinvokes, regroups float64
	for _, sp := range tr.spans {
		if sp.ID <= tr.first {
			continue
		}
		if r, err := strconv.Atoi(sp.Tags["retries"]); err == nil {
			retries += float64(r)
		}
		if at, err := strconv.Atoi(sp.Tags["attempt"]); err == nil && sp.Kind == obs.KindInvoke && at > 0 {
			reinvokes++
		}
		if sp.Kind == obs.KindStage && strings.HasPrefix(sp.Name, "regroup-") {
			regroups++
		}
	}
	var tspec float64
	for _, s := range tr.ph.samples {
		tspec += float64(s.spec)
	}
	put("driver.retries_per_query", "count", retries/n)
	put("driver.failure_seals_per_query", "count", (reinvokes-tspec)/n)
	put("stageplan.stages_per_query", "count", stages/n)
	put("stageplan.multilevel_boundaries_per_query", "count", regroups/n)
	put("cache.hit_frac", "fraction", hits/n)
	peak, blocked, overflow := tb.admission()
	put("invoke.admission_peak", "count", float64(peak))
	put("invoke.admission_blocked", "count", float64(blocked))
	put("invoke.overflow", "count", float64(overflow))
	put("s3.get_per_query", "count", cnt(pricing.LabelS3Read)/n)
	put("s3.put_per_query", "count", cnt(pricing.LabelS3Write)/n)
	put("s3.list_per_query", "count", cnt(pricing.LabelS3List)/n)
	put("s3.read_mb_per_query", "MB", float64(a.readB-b.readB)/1e6/n)
	put("sqs.requests_per_query", "count", cnt(pricing.LabelSQS)/n)
	dyn := cnt(pricing.LabelDynamoRead) + cnt(pricing.LabelDynamoWrite)
	put("dynamo.requests_per_query", "count", dyn/n)
	put("dynamo.requests_per_worker", "count", dyn/max(invokes, 1))
	put("lambda.gb_s_per_query", "GB-s", float64(a.mibNs-b.mibNs)/1024/1e9/n)
	steps := float64(a.steps - b.steps)
	put("simclock.events_per_query", "count", steps/n)
	put("simclock.completion_wakeups_per_query", "count", float64(a.wakeups-b.wakeups)/n)
	realUs := 0.0
	if steps > 0 {
		realUs = float64(ph.wall()) / 1e3 / steps
	}
	put("simclock.real_us_per_event", "us", realUs)
	put("wall_ms_per_query", "ms", ms(ph.wall())/n)
	put("runtime.gc_cpu_frac", "fraction", (a.gcCPU-b.gcCPU)/max(a.totalCPU-b.totalCPU, 1e-9))
	put("service.overhead_us", "us", float64(percentile(overheads, 0.5))/1e3)
	put("service.slo_miss_frac", "fraction", missed/n)

	for _, part := range []string{"worker", "driver", "s3_read", "s3_write", "s3_list", "dynamo", "sqs", "invoke", "other"} {
		put("critpath."+part+"_vms", "ms", tr.crit["critpath."+part+"_vms"])
	}
	for _, mod := range append(modules, "other") {
		put("cpu."+mod+"_frac", "fraction", tr.cpu[mod])
	}

	parse, decompose := plannerTimes(w, ph.samples, data)
	put("sqlfe.parse_us", "us", parse)
	put("stageplan.decompose_us", "us", decompose)
	put("engine.reference_ms", "ms", ms(chk.refTime)/float64(max(chk.refCalls, 1)))
	var gen, up []time.Duration
	for _, t := range setups {
		gen, up = append(gen, t.datagen), append(up, t.upload)
	}
	put("setup.datagen_s", "s", percentile(gen, 0.5).Seconds())
	put("setup.upload_s", "s", percentile(up, 0.5).Seconds())
	put("trace.overhead_frac", "fraction", tr.ph.wall().Seconds()/ph.wall().Seconds()-1)
}

// plannerTimes times sqlfe.Parse and stageplan.Decompose on the distinct
// query texts of the phase, in microseconds per call.
func plannerTimes(w *spec, samples []sample, data dataset) (parseUs, decomposeUs float64) {
	seen := map[string]bool{}
	var texts []string
	for _, s := range samples {
		if sql := s.q.sql(); !seen[sql] {
			seen[sql] = true
			texts = append(texts, sql)
		}
	}
	sort.Strings(texts)
	tables := data.tables(0)
	cat := engine.Catalog{}
	stats := stageplan.Stats{Rows: map[string]int64{}}
	for name, c := range tables {
		cat[name] = engine.NewMemSource(c.Schema)
		stats.Rows[name] = int64(c.NumRows())
	}
	cfg := stageplan.Config{
		Partitions:        w.bed.stage.Partitions,
		BroadcastRowLimit: w.bed.stage.BroadcastRowLimit,
		MaxAutoPartitions: w.bed.stage.MaxAutoPartitions,
	}
	const reps = 5
	var parse, decompose time.Duration
	calls := 0
	for _, sql := range texts {
		for r := 0; r < reps; r++ {
			start := time.Now()
			plan, err := sqlfe.Parse(sql)
			parse += time.Since(start)
			if err != nil {
				continue
			}
			opt, err := engine.Optimize(plan, cat)
			if err != nil {
				continue
			}
			start = time.Now()
			_, err = stageplan.Decompose(opt, stats, cfg)
			decompose += time.Since(start)
			if err == nil {
				calls++
			}
		}
	}
	calls = max(calls, 1)
	return float64(parse) / 1e3 / float64(calls), float64(decompose) / 1e3 / float64(calls)
}
