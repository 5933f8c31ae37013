package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/scan"
	"lambada/internal/sqlfe"
	"lambada/internal/stageplan"
)

// Report summarizes one query execution.
type Report struct {
	QueryID string
	// CacheHit marks a staged result served from the session's result cache
	// — no workers ran, and every other field except Duration is zero.
	CacheHit bool
	// Epoch is the query's durable fence token (staged executions): the
	// DynamoDB epoch item's value after the driver's atomic increment at
	// query start. 1 on a clean deployment; higher when an aborted
	// identically-numbered run came before. 0 for single-scope queries.
	Epoch   int
	Workers int
	// Stages is the stage count of a stage-decomposed (shuffle) execution
	// (0 for single-scope queries).
	Stages   int
	Duration time.Duration
	// Invocation is the driver-side time spent launching workers.
	Invocation time.Duration
	// WorkerProcessing are the per-worker plan-fragment execution times,
	// sorted ascending — the distribution of Figure 11.
	WorkerProcessing []time.Duration
	ColdWorkers      int
	// Speculated counts backup invocations issued for stragglers (summed
	// over stages in staged executions).
	Speculated int
	// FailureSeals counts retryable worker failure seals the scheduler
	// absorbed by re-invoking the fragment (0 when every worker succeeded
	// first try).
	FailureSeals int
	// DriverRetries and WorkerRetries count substrate-call retries the
	// resilience layer spent on this query, on the driver side and summed
	// over worker invocations respectively.
	DriverRetries int64
	WorkerRetries int64
	// InjectedFaults is the deployment injector's cumulative per-"op/kind"
	// fault count (nil outside chaos deployments). Cumulative across
	// queries: the injector's schedule spans the deployment.
	InjectedFaults map[string]int
	// StageStats records per-stage launch/seal timing and speculation
	// counters of a staged execution (nil for single-scope queries).
	StageStats []StageStat
	// CostBefore/CostAfter snapshot the meter around the query; the
	// difference is what the query cost.
	CostDelta map[string]float64
	TotalCost float64
	// S3GetRequests and S3ReadBytes count the billed S3 read requests and
	// read bytes the query issued — the scan layer's two cost drivers,
	// surfaced so pruning/coalescing wins are visible without reading
	// awssim internals.
	S3GetRequests int64
	S3ReadBytes   int64
	// LambdaMiBNs is the billed Lambda duration of the query as exact
	// MiB·nanoseconds (the integer basis of the GB-second duration charge).
	LambdaMiBNs int64
	// Wakeups counts completion-signal wakeups delivered during the query —
	// the keyed-broadcast layer's efficiency metric (0 when the environment
	// does not expose a wakeup counter).
	Wakeups uint64
	// Trace and Span expose the query's span tree when the deployment runs
	// with EnableTracing: Span is the root query span, Trace holds the whole
	// recording (shared across queries of the deployment). Nil/0 when
	// tracing is off.
	Trace *obs.Tracer
	Span  obs.SpanID
}

// StageStat is one stage's slice of a staged execution.
type StageStat struct {
	StageID int
	Workers int
	// Launched and Sealed are offsets from the query start: under pipelined
	// launch every eager stage's Launched is near zero, and Sealed shows
	// how the DAG actually overlapped.
	Launched time.Duration
	Sealed   time.Duration
	// Speculated counts backup attempts invoked for this stage's
	// stragglers.
	Speculated int
	// Span is the stage's span (0 when tracing is off) — the anchor for
	// per-stage cost attribution in Report.Profile.
	Span obs.SpanID
	// Variant is the stage's output-boundary exchange algorithm as resolved
	// by the driver ("1l", "2l-wc", ...); empty for the result stage, which
	// posts to the queue instead of publishing a boundary.
	Variant string
	// Regroup marks the synthetic regroup fleet of a multi-level boundary;
	// StageID is then the PRODUCING stage whose boundary it regroups.
	Regroup bool
}

// costSnap is the meter state captured around a query: per-label dollar
// totals plus the raw S3 read request/byte, Lambda duration and wakeup
// counters.
type costSnap struct {
	cost        map[string]float64
	s3Gets      int64
	s3ReadBytes int64
	lambdaMiBNs int64
	wakeups     uint64
}

// costSnapshot captures the meter's current per-label totals.
func (d *query) costSnapshot() costSnap {
	snap := costSnap{cost: map[string]float64{}}
	for _, l := range d.dep.Meter.Labels() {
		snap.cost[l] = float64(d.dep.Meter.Get(l))
	}
	snap.s3Gets = d.dep.Meter.Count(pricing.LabelS3Read)
	snap.s3ReadBytes = d.dep.S3.ReadBytes()
	snap.lambdaMiBNs = d.dep.Lambda.BilledMiBNs()
	snap.wakeups = d.wakeupCount()
	return snap
}

// wakeupCount reads the environment's completion-wakeup counter when it has
// one (DES kernel processes and the Immediate environment both do).
func (d *query) wakeupCount() uint64 {
	if c, ok := d.env.(interface{ CompletionWakeups() uint64 }); ok {
		return c.CompletionWakeups()
	}
	return 0
}

// quiesce, on traced runs, waits until no worker invocation is still
// executing before the cost window closes. Straggler losers — speculation
// backups whose original won, zombie attempts — bill their Lambda duration
// when their handler returns; waiting for them makes the per-span cost
// attribution sum exactly to the Report's meter deltas, at the price of the
// traced Duration including the straggler tail. Untraced runs keep the
// historical window (report the instant the result is complete).
func (d *query) quiesce() {
	if !d.dep.Trace.Enabled() {
		return
	}
	for d.dep.Lambda.Running() > 0 {
		simenv.WaitNotify(d.env, d.cfg.PollInterval)
	}
}

// fillCostDelta records what the query cost: the meter movement since
// begin's snapshot, per label and in total.
// Note that the meters are deployment-wide: when other queries of the
// session overlap this one's window, their spend shows up in this delta
// too — exact per-query attribution needs tracing (Report.Profile).
func (d *query) fillCostDelta(rep *Report) {
	before := d.before
	rep.CostDelta = map[string]float64{}
	for _, l := range d.dep.Meter.Labels() {
		delta := float64(d.dep.Meter.Get(l)) - before.cost[l]
		if delta > 0 {
			rep.CostDelta[l] = delta
			rep.TotalCost += delta
		}
	}
	rep.S3GetRequests = d.dep.Meter.Count(pricing.LabelS3Read) - before.s3Gets
	rep.S3ReadBytes = d.dep.S3.ReadBytes() - before.s3ReadBytes
	rep.LambdaMiBNs = d.dep.Lambda.BilledMiBNs() - before.lambdaMiBNs
	rep.Wakeups = d.wakeupCount() - before.wakeups
	rep.DriverRetries = d.retry.stats.Retries()
	rep.WorkerRetries = d.workerRetries
	if d.dep.Faults != nil {
		rep.InjectedFaults = d.dep.Faults.Injected()
	}
}

// decodeChunk reads a result message's lpq blob.
func decodeChunk(blob []byte) (*columnar.Chunk, error) {
	r, err := lpq.OpenReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// parseSQL fronts the SQL frontend for the session-level API.
func parseSQL(sql string) (engine.Plan, error) { return sqlfe.Parse(sql) }

// RunSQL parses, optimizes, distributes and runs a SQL query against the
// lpq files of one table.
func (d *Driver) RunSQL(sql string, table string, files []scan.FileRef) (*columnar.Chunk, *Report, error) {
	return d.sess.RunSQL(d.env, sql, table, files)
}

// RunPlan optimizes and executes a logical plan on the serverless fleet,
// shipping the broadcast tables (nil for none) to every worker; see
// Session.RunPlan.
func (d *Driver) RunPlan(plan engine.Plan, table string, files []scan.FileRef, broadcast map[string]*columnar.Chunk) (*columnar.Chunk, *Report, error) {
	return d.sess.RunPlan(d.env, plan, table, files, broadcast)
}

func (d *query) runPlan(plan engine.Plan, table string, files []scan.FileRef, broadcast map[string]*columnar.Chunk) (*columnar.Chunk, *Report, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("driver: no input files")
	}
	rep := d.begin()
	defer d.release()

	// Resolve the table schema from the first file's footer (driver-side
	// metadata read).
	driverClient := s3.NewClient(d.dep.S3, d.env)
	metaSrc := scan.New(driverClient, d.cfg.Scan, files[0])
	schema, err := metaSrc.Schema()
	if err != nil {
		return nil, nil, fmt.Errorf("driver: resolving schema: %w", err)
	}

	// Optimize against a schema-only catalog, then split into scopes.
	optCat := engine.Catalog{table: engine.NewMemSource(schema)}
	blobs := map[string][]byte{}
	for name, chunk := range broadcast {
		optCat[name] = engine.NewMemSource(chunk.Schema, chunk)
		blob, err := lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk)
		if err != nil {
			return nil, nil, err
		}
		blobs[name] = blob
	}
	opt, err := engine.Optimize(plan, optCat)
	if err != nil {
		return nil, nil, err
	}
	dist, err := engine.SplitDistributed(opt)
	if err != nil {
		return nil, nil, err
	}
	workerPlanJSON, err := engine.MarshalPlan(dist.Worker)
	if err != nil {
		return nil, nil, err
	}

	// Assign files to workers (contiguous ranges of F files each).
	workers := (len(files) + d.cfg.FilesPerWorker - 1) / d.cfg.FilesPerWorker
	payloads := make([]workerPayload, workers)
	per := (len(files) + workers - 1) / workers
	for w := range payloads {
		lo := w * per
		hi := lo + per
		if hi > len(files) {
			hi = len(files)
		}
		if lo > hi {
			lo = hi
		}
		payloads[w] = workerPayload{
			QueryID:     d.id,
			WorkerID:    w,
			NumWorkers:  workers,
			Plan:        workerPlanJSON,
			Table:       table,
			Files:       files[lo:hi],
			ResultQueue: d.cfg.ResultQueue,
			Broadcast:   blobs,
		}
	}

	// One run with no dependencies and no fence: epoch 0 and no seal table,
	// so it writes no ready marker, and with no boundary there is nothing
	// to purge or sweep.
	run := &stageRun{st: &stageplan.Stage{}, payloads: payloads, winners: map[int]int{}}
	chunks, err := d.schedule([]*stageRun{run}, 0, 0, "", StageConfig{}, rep)
	if err != nil {
		return nil, nil, err
	}
	result, err := mergeResults(chunks, dist.Worker, dist.Driver)
	if err != nil {
		return nil, nil, err
	}
	d.finish(rep)
	return result, rep, nil
}

// begin opens the query's report and cost window: it snapshots the meter
// and, on traced runs, opens the query span — the root of the query's span
// tree — and binds it to the driver environment, routing every driver-side
// billed request (schema reads, the epoch fence, sweeps, invokes, result
// polling) into op spans beneath it. Callers defer release.
func (d *query) begin() *Report {
	d.before = d.costSnapshot()
	d.start = d.env.Now()
	rep := &Report{QueryID: d.id}
	if tr := d.dep.Trace; tr.Enabled() {
		rep.Span = tr.StartSpan(obs.KindQuery, d.id, 0, d.start)
		tr.Bind(d.env, rep.Span)
	}
	return rep
}

// release closes any still-open driver-side span (error paths included).
func (d *query) release() {
	if tr := d.dep.Trace; tr.Enabled() {
		tr.Release(d.env, d.env.Now())
	}
}

// mergeResults runs the driver scope (§3.2) over the result stage's
// outputs: workerPlan gives their schema, driverPlan merges them.
func mergeResults(chunks []*columnar.Chunk, workerPlan, driverPlan engine.Plan) (*columnar.Chunk, error) {
	ws, err := workerPlan.OutSchema()
	if err != nil {
		return nil, err
	}
	return engine.Execute(driverPlan, engine.Catalog{engine.WorkerResultTable: engine.NewMemSource(ws, chunks...)})
}

// finish closes the report and the cost window. The window closes only
// after every invocation — speculation and relaunch losers included —
// finished billing, so per-span attribution and the Report deltas agree
// exactly (no-op when tracing is off).
func (d *query) finish(rep *Report) {
	sort.Slice(rep.WorkerProcessing, func(i, j int) bool { return rep.WorkerProcessing[i] < rep.WorkerProcessing[j] })
	d.quiesce()
	end := d.env.Now()
	rep.Duration = end - d.start
	if tr := d.dep.Trace; tr.Enabled() {
		tr.EndSpan(rep.Span, end)
		rep.Trace = tr
	}
	d.fillCostDelta(rep)
}

// invokeOne launches a single worker payload (failure relaunches and
// speculation backups). Like every substrate call the driver makes, it runs
// under the query's retry policy: transient invoke errors retry with
// backoff, quota rejections (throttle-class Invoke errors are permanent
// capacity answers, not blips) and payload errors stay fatal. span parents
// the invocation's trace span.
func (d *query) invokeOne(payload []byte, workerID int, span obs.SpanID) error {
	adm := d.s.admission
	// Recovery traffic must not queue behind tokens held by workers parked
	// on the very fragment being recovered, so it is admitted past the cap
	// (counted in Overflow) instead of waiting.
	adm.AcquireOverflow(d.env)
	adm.Pace(d.env)
	if err := d.retry.policy.Do(d.env, "lambda.Invoke", func() error {
		return d.dep.Lambda.Invoke(d.env, d.cfg.FunctionName, payload,
			lambdasvc.InvokeOptions{WorkerID: workerID, Pipelined: true, Span: span})
	}); err != nil {
		// Invoke fails before any container spawns: hand the token back.
		adm.Release(d.env)
		return err
	}
	return nil
}

// invokeAll launches a fleet without admission, directly or via the
// two-level tree; span parents the invocation spans (tree children parent
// under their invoking first-generation worker instead, mirroring the real
// invocation topology). Under admission the scheduler launches one worker
// at a time instead.
func (d *query) invokeAll(payloads [][]byte, span obs.SpanID) error {
	if !invoke.UseTree(d.cfg.TreeInvoke, len(payloads)) {
		pacing := invoke.DriverPacing(d.cfg.Region, 1)
		for i, p := range payloads {
			// Pipelined: the driver's requester thread overlaps the round
			// trips; the loop paces at the effective rate (Table 1).
			body, id := p, i
			if err := d.retry.policy.Do(d.env, "lambda.Invoke", func() error {
				return d.dep.Lambda.Invoke(d.env, d.cfg.FunctionName, body, lambdasvc.InvokeOptions{WorkerID: id, Pipelined: true, Span: span})
			}); err != nil {
				return err
			}
			d.env.Sleep(pacing.Gap())
		}
		return nil
	}

	firstGen, children := invoke.TreeFanout(len(payloads))
	for gi, fg := range firstGen {
		var p workerPayload
		if err := json.Unmarshal(payloads[fg], &p); err != nil {
			return err
		}
		for _, child := range children[gi] {
			p.Children = append(p.Children, json.RawMessage(payloads[child]))
		}
		body, err := json.Marshal(p)
		if err != nil {
			return err
		}
		id := fg
		if err := d.retry.policy.Do(d.env, "lambda.Invoke", func() error {
			return d.dep.Lambda.Invoke(d.env, d.cfg.FunctionName, body, lambdasvc.InvokeOptions{WorkerID: id, Span: span})
		}); err != nil {
			return err
		}
	}
	return nil
}
