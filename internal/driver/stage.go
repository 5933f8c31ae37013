package driver

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/obs"
	"lambada/internal/scan"
	"lambada/internal/stageplan"
)

// StageConfig tunes the staged (shuffle) execution path: the stage planner
// (internal/stageplan) decomposes the query into a DAG of stages connected
// by exchange boundaries, and the driver runs the DAG on an event-driven
// stage scheduler with seal/ready barriers and attempt-versioned
// boundaries.
type StageConfig struct {
	// Exchange configures the S3 boundary namespace (buckets, write
	// combining, receiver polling).
	Exchange ExchangeConfig
	// Partitions is the fan-in of every boundary — join stages and final
	// aggregation stages run this many workers. 0 autotunes the fan-in from
	// the lpq footer row counts (stageplan.AutoRowsPerPartition rows per
	// partition, at most stageplan.MaxAutoPartitions).
	Partitions int
	// BroadcastRowLimit: a join build side of at most this many rows (per
	// the lpq file footers) is loaded by the driver and broadcast inside
	// worker payloads instead of shuffled (0 = stageplan's default;
	// negative = never broadcast).
	BroadcastRowLimit int64
	// Pipelined launches eager stages the moment the query starts — before
	// their producers seal — overlapping worker cold starts with upstream
	// execution; the DynamoDB ready barrier gates each worker's collect.
	// False restores wave-gated launch: a stage is invoked only once every
	// producer sealed (the pre-PR 4 behavior, kept for comparison).
	Pipelined bool
	// MaxStageWait is the no-progress liveness cap: under speculation, a
	// runnable stage (producers sealed) that goes this long without ANY
	// worker response — the window restarts on every response — has its
	// whole missing set re-invoked as the next attempt. This covers the
	// cases the quorum/median policy can never arm for: no response at all,
	// and a sub-quorum stall. stageplan.Stage.MaxStageWait overrides it per
	// stage; 0 disables the cap (the pre-PR 5 behavior).
	MaxStageWait time.Duration
	// ExchangeLevels forces every stage boundary's round count: 1 pins
	// single-round, 2 pins the multi-level boundary (one intermediate
	// regrouping round, §4.4.2). 0 — the default — resolves each boundary
	// from the analytic request model (stageplan.ChooseVariant) once the
	// sender fleet size is known: large fleets go multi-level automatically,
	// small ones stay single-round. Write combining comes from
	// Exchange.WriteCombining either way.
	ExchangeLevels int
	// MaxAutoPartitions caps the autotuned boundary fan-in
	// (0 = stageplan.MaxAutoPartitions). Paper-scale fleets raise it: with
	// multi-level boundaries the boundary request count grows as O(√P·S)
	// instead of O(S·P), so wide fan-ins stay affordable.
	MaxAutoPartitions int
}

// DefaultStageConfig shuffles through the write-combining exchange with
// pipelined stage launch, autotuned partition counts, and a one-minute
// all-stragglers cap.
func DefaultStageConfig() StageConfig {
	return StageConfig{Exchange: DefaultExchangeConfig(), Pipelined: true, MaxStageWait: time.Minute}
}

// TableFiles maps each base table of a query to its lpq files on S3.
type TableFiles map[string][]scan.FileRef

// stageSpec is the runtime wire form of one stage, shipped inside worker
// payloads next to the plan fragment.
type stageSpec struct {
	StageID int               `json:"stageId"`
	Inputs  []stageInputSpec  `json:"inputs,omitempty"`
	Output  *stageplan.Output `json:"output,omitempty"`

	Buckets   []string `json:"buckets"`
	Prefix    string   `json:"prefix"`
	PollNs    int64    `json:"pollNs"`
	MaxWaitNs int64    `json:"maxWaitNs"`
	// SealTable is the DynamoDB table holding per-stage ready markers;
	// QueryID and Epoch scope the marker keys (an older epoch's markers can
	// never satisfy this epoch's barrier).
	SealTable string `json:"sealTable"`
	QueryID   string `json:"queryId"`
	Epoch     int    `json:"epoch"`
}

// stageInputSpec is the planner's Input plus the runtime sender count and
// the resolved boundary variant.
type stageInputSpec struct {
	stageplan.Input
	// Senders is the producing stage's worker count.
	Senders int `json:"senders"`
	// Variant is the producing boundary's resolved exchange algorithm; the
	// collector must read with the same variant the senders wrote with.
	Variant exchange.Variant `json:"inVariant"`
	// RegroupStage, for multi-level boundaries, is the synthetic regroup
	// fleet's stage ID: the consumer's ready barrier waits on ITS seal (the
	// round-2 objects exist only once every regroup worker committed), not
	// the producer's.
	RegroupStage int `json:"regroupStage,omitempty"`
}

// stagesTableName names the DynamoDB seal/ready table of an installation.
func stagesTableName(fn string) string { return fn + "-stages" }

// sealKey names a stage's ready marker; the epoch segment fences markers of
// an aborted identically-numbered run out of this run's barrier.
func sealKey(queryID string, epoch, stageID int) string {
	return fmt.Sprintf("%s/e%d/s%d", queryID, epoch, stageID)
}

// epochKey names the durable per-query epoch item in the stages table.
func epochKey(queryID string) string { return "epoch/" + queryID }

// acquireEpoch durably fences this run of queryID: it atomically increments
// the query's epoch item with a conditional Put, so two drivers reusing the
// same query ID (a fresh driver on the same deployment restarts query
// numbering) always land in distinct epochs, and the older run's in-flight
// workers are structurally unable to satisfy the newer run's barriers —
// their seals, ready markers and boundary files all carry the losing epoch.
// The uniqueness source is the durable counter itself (no wall clock, no
// randomness), so DES runs stay deterministic.
func (d *query) acquireEpoch(table, queryID string) (int, error) {
	if d.s.bumpEpochAcquires() {
		d.sweepEpochs(table)
	}
	key := epochKey(queryID)
	for {
		var cur []byte
		err := d.retry.policy.Do(d.env, "dynamo.Get", func() error {
			var gerr error
			cur, gerr = d.dep.Dynamo.Get(d.env, table, key)
			return gerr
		})
		if err != nil {
			if !errors.Is(err, dynamo.ErrNoSuchItem) {
				return 0, err
			}
			cur = nil
		}
		next := 1
		if cur != nil {
			prev, _, ok := parseEpochValue(cur)
			if !ok {
				return 0, fmt.Errorf("driver: corrupt epoch item %s/%s: %q", table, key, cur)
			}
			next = prev + 1
		}
		val := []byte(fmt.Sprintf("%d@%d", next, int64(d.env.Now())))
		putErr := d.retry.policy.Do(d.env, "dynamo.PutIf", func() error {
			return d.dep.Dynamo.PutIf(d.env, table, key, val, cur)
		})
		if putErr == nil {
			return next, nil
		}
		if !errors.Is(putErr, dynamo.ErrConditionFailed) {
			return 0, putErr
		}
		// Lost the increment race to a concurrent driver: re-read, go again.
	}
}

// parseEpochValue decodes an epoch item: "<epoch>@<writtenAtNs>" since the
// TTL sweep was introduced, a bare integer before it. The timestamp is the
// virtual write instant, used only to age items out (legacy items read as
// written at time zero, so they age out first).
func parseEpochValue(v []byte) (epoch int, at int64, ok bool) {
	s := string(v)
	if i := strings.IndexByte(s, '@'); i >= 0 {
		e, err1 := strconv.Atoi(s[:i])
		a, err2 := strconv.ParseInt(s[i+1:], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, false
		}
		return e, a, true
	}
	e, err := strconv.Atoi(s)
	if err != nil {
		return 0, 0, false
	}
	return e, 0, true
}

// sweepEpochs lazily deletes expired epoch fence items — without it the
// stages table accumulates one item per query ID ever run on the
// deployment. An item expires once EpochTTL of virtual time passed since
// its last increment; the TTL must exceed the function timeout, so no
// worker of a fenced run can still be alive when its fence goes. Best
// effort: errors are ignored (the next sweep retries), and the
// delete/re-acquire race is safe — acquireEpoch's conditional Put with a
// non-nil expect fails on a missing item and re-reads.
func (d *query) sweepEpochs(table string) {
	items, err := d.dep.Dynamo.Scan(d.env, table, "epoch/")
	if err != nil {
		return
	}
	cutoff := int64(d.env.Now()) - int64(d.cfg.EpochTTL)
	for _, it := range items {
		if _, at, ok := parseEpochValue(it.Value); ok && at < cutoff {
			d.dep.Dynamo.Delete(d.env, table, it.Key)
		}
	}
}

// StageFailure is the structured terminal error of a query: a worker posted
// a failure seal the scheduler could not — or must not — retry away (Stage
// is 0 for single-scope queries).
// Retryable distinguishes an exhausted relaunch budget (transient causes,
// crash-class errors, spent retry budgets) from a deterministic plan or
// data error that no relaunch would fix.
type StageFailure struct {
	QueryID   string
	Stage     int
	Worker    int
	Attempt   int
	Retryable bool
	Msg       string
}

func (e *StageFailure) Error() string {
	return fmt.Sprintf("driver: stage %d worker %d failed: %s", e.Stage, e.Worker, e.Msg)
}

// RunSQLStaged parses a SQL query over any number of S3-backed tables and
// executes it through the stage planner: joins shuffle through the exchange
// when both sides are large (per-join broadcast-vs-shuffle choice from the
// lpq footer row counts), grouped aggregations repartition on their group
// keys, and the driver only merges the final stage's outputs.
func (d *Driver) RunSQLStaged(sql string, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	return d.sess.RunSQLStaged(d.env, sql, tables, cfg)
}

// stageState tracks one stage through the event-driven scheduler.
type stageState int

const (
	stagePending  stageState = iota // not yet invoked
	stageLaunched                   // fleet invoked, seals outstanding
	stageSealed                     // every worker sealed, ready marker written
)

// stageRun is the scheduler's bookkeeping for one stage of one query.
type stageRun struct {
	st       *stageplan.Stage
	payloads []workerPayload // attempt-0 payloads, one per worker
	state    stageState
	// bodies are the marshaled attempt-0 payloads, built on first launch.
	bodies [][]byte
	// launched counts workers invoked so far: always the full fleet after
	// one launch without admission, possibly a prefix under admission (the
	// scheduler launches as many as TryAcquire grants and resumes from the
	// cursor on later passes).
	launched int

	launchedAt time.Duration
	sealedAt   time.Duration
	// winners records, per worker, the attempt whose seal arrived first.
	// Later seals of the same worker — the losing half of a backup pair —
	// are ignored; their boundary files are swept after the query.
	winners    map[int]int
	policy     stragglerPolicy
	speculated int
	// span is the stage's trace span (0 when tracing is off): opened at
	// payload build, re-timed to the launch instant, ended at the seal.
	span obs.SpanID
	// boundary is the stage's output-boundary variant as resolved by the
	// driver (zero for the result stage); regroup runs carry the boundary
	// they regroup.
	boundary exchange.Variant
	// regroup marks a synthetic regroup fleet (multi-level boundaries);
	// regroupFor is then the producing stage whose boundary it regroups.
	regroup    bool
	regroupFor int
}

// RunPlanStaged optimizes plan against the tables' footer schemas,
// decomposes it into a stage DAG, and runs it on the event-driven stage
// scheduler: the driver first fences the run with a durable query epoch
// (an atomic DynamoDB increment stamped into every payload, seal, ready
// marker and boundary prefix, so leftovers — at rest or still in flight —
// of an aborted identically-numbered run are structurally discarded), then
// invokes every eager stage up front (pipelined launch — consumer cold
// starts overlap upstream execution), workers report completion through the
// SQS result queue (seal), the driver records stage readiness in DynamoDB
// (the notify-driven barrier gating consumer collects), and
// Config.Speculate re-invokes any stage's stragglers as attempt-versioned
// backups whose boundary publishes cannot race the originals' — the first
// sealed attempt per worker wins, and the stale-drain collector sweeps the
// boundary namespace afterwards.
func (d *Driver) RunPlanStaged(plan engine.Plan, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	return d.sess.RunPlanStaged(d.env, plan, tables, cfg)
}

// runPlanStaged is the per-query scheduler instance: the whole staged state
// machine runs on the query's private result queue and retry scope, so N of
// these can interleave on one session, isolated by queryID+epoch and
// queue-level routing. Its prologue fences the run and cleans the boundary
// namespace; schedule then runs the stage DAG.
func (d *query) runPlanStaged(plan engine.Plan, tables TableFiles, cfg StageConfig) (*columnar.Chunk, *Report, error) {
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("driver: no input tables")
	}
	queryID := d.id

	// The query span is opened before the boundary-sweep defer below, so
	// the error-path sweep's requests are still attributed (defers run
	// LIFO).
	rep := d.begin()
	defer d.release()

	// Resolve every table's schema from its lpq footers — driver-side
	// metadata reads only. Each table's footers are opened in one
	// overlapped wave (WarmOpen) before anything reads them; tables go in
	// name order so a DES run's waves, and their latencies, replay.
	driverClient := s3.NewClient(d.dep.S3, d.env)
	optCat := engine.Catalog{}
	srcs := map[string]*scan.Source{}
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		files := tables[name]
		if len(files) == 0 {
			return nil, nil, fmt.Errorf("driver: table %q has no files", name)
		}
		src := scan.New(driverClient, d.cfg.Scan, files...)
		if err := src.WarmOpen(); err != nil {
			return nil, nil, fmt.Errorf("driver: opening %q footers: %w", name, err)
		}
		schema, err := src.Schema()
		if err != nil {
			return nil, nil, fmt.Errorf("driver: resolving %q schema: %w", name, err)
		}
		optCat[name] = engine.NewMemSource(schema)
		srcs[name] = src
	}

	opt, err := engine.Optimize(plan, optCat)
	if err != nil {
		return nil, nil, err
	}

	// Pruning-aware fan-out: size the stage DAG from the rows the pushed-
	// down predicates can actually select, not the full table. The prune
	// predicates must be collected before Decompose — it rewrites the plan
	// in place.
	tablePreds := map[string][]lpq.Predicate{}
	engine.VisitScans(opt, func(s *engine.ScanPlan) {
		if len(s.Prune) > 0 {
			tablePreds[s.Table] = s.Prune
		}
	})
	stats := stageplan.Stats{Rows: map[string]int64{}}
	for name, src := range srcs {
		rows, err := src.EstimateRows(tablePreds[name])
		if err != nil {
			return nil, nil, fmt.Errorf("driver: estimating %q rows: %w", name, err)
		}
		stats.Rows[name] = rows
	}

	sp, err := stageplan.Decompose(opt, stats, stageplan.Config{
		Partitions:        cfg.Partitions,
		BroadcastRowLimit: cfg.BroadcastRowLimit,
		MaxAutoPartitions: cfg.MaxAutoPartitions,
	})
	if err != nil {
		return nil, nil, err
	}

	// Pruned file assignment: a file whose footer statistics rule out every
	// predicate match gets no scan worker at all — fewer invocations, and
	// the surviving workers still prune at row-group/page granularity.
	scanFiles := TableFiles{}
	for name, files := range tables {
		preds := tablePreds[name]
		if len(preds) == 0 {
			scanFiles[name] = files
			continue
		}
		var kept []scan.FileRef
		for _, f := range files {
			rows, err := srcs[name].EstimateFileRows(f, preds)
			if err != nil {
				return nil, nil, fmt.Errorf("driver: estimating %q file rows: %w", name, err)
			}
			if rows > 0 {
				kept = append(kept, f)
			}
		}
		if len(kept) == 0 {
			// Every file pruned: keep one worker alive so the stage still
			// launches and seals (exchange consumers wait on its senders);
			// its scan reads only the footer and yields nothing.
			kept = files[:1]
		}
		scanFiles[name] = kept
	}

	// Load the genuinely small tables the planner kept as broadcast joins.
	blobs := map[string][]byte{}
	for _, name := range sp.Broadcast {
		chunk, err := d.loadTable(driverClient, tables[name])
		if err != nil {
			return nil, nil, fmt.Errorf("driver: loading broadcast table %q: %w", name, err)
		}
		blob, err := lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk)
		if err != nil {
			return nil, nil, err
		}
		blobs[name] = blob
	}

	buckets := d.s.InstallExchange(cfg.Exchange)
	sealTable := stagesTableName(d.cfg.FunctionName)
	d.dep.Dynamo.CreateTable(sealTable)

	// Epoch fence: durably increment this query ID's epoch before anything
	// else. Every artifact of the run — worker payloads, seal messages,
	// ready markers, the exchange boundary prefix — carries the epoch, and
	// the scheduler discards artifacts of older epochs, so an in-flight
	// worker of an aborted identically-numbered run cannot poison this one
	// no matter when it wakes. The purge and sweep below are then hygiene
	// (reclaiming queue slots and at-rest debris), not a correctness
	// mechanism racing zombie workers.
	epoch, err := d.acquireEpoch(sealTable, queryID)
	if err != nil {
		return nil, nil, fmt.Errorf("driver: acquiring epoch for %s: %w", queryID, err)
	}
	// prefix scopes the query across all epochs — sweeps cover every
	// epoch's debris — while the boundary namespace the payloads carry is
	// the fenced e<epoch> sub-prefix (built in stagePayloads).
	prefix := d.cfg.FunctionName + "/" + queryID

	if err := d.purgeResults(); err != nil {
		return nil, nil, err
	}
	if _, err := exchange.Sweep(driverClient, buckets, prefix); err != nil {
		return nil, nil, fmt.Errorf("driver: sweeping stale boundary %s: %w", prefix, err)
	}
	swept := false
	defer func() {
		// Stale-drain collector: reclaim the boundary namespace — winner
		// files and loser attempts alike — even when the query fails.
		if !swept {
			exchange.Sweep(driverClient, buckets, prefix)
		}
	}()

	// Worker counts: scan stages derive from their file count (F files per
	// worker); exchange-fed stages run one worker per partition.
	workers := map[int]int{}
	for _, st := range sp.Stages {
		if st.Table != "" {
			files := scanFiles[st.Table]
			if files == nil {
				return nil, nil, fmt.Errorf("driver: stage %d scans unknown table %q", st.ID, st.Table)
			}
			w := (len(files) + d.cfg.FilesPerWorker - 1) / d.cfg.FilesPerWorker
			if w > len(files) {
				w = len(files)
			}
			workers[st.ID] = w
			continue
		}
		parts := 0
		for _, in := range st.Inputs {
			for _, up := range sp.Stages {
				if up.ID == in.StageID && up.Output != nil {
					if parts != 0 && parts != up.Output.Partitions {
						return nil, nil, fmt.Errorf("driver: stage %d inputs disagree on partitions", st.ID)
					}
					parts = up.Output.Partitions
				}
			}
		}
		if parts == 0 {
			return nil, nil, fmt.Errorf("driver: stage %d has no boundary inputs", st.ID)
		}
		workers[st.ID] = parts
	}

	resultStage := sp.ResultStage()
	if resultStage == nil {
		return nil, nil, fmt.Errorf("driver: stage plan has no result stage")
	}

	// Resolve every boundary's exchange variant now that fleet sizes are
	// known: plan-pinned variants (Output.Variant.Levels > 0) stand, the
	// rest come from the analytic request model — multi-level only when the
	// request savings at this (S, P, B) pay for the regroup fleet, or when
	// cfg.ExchangeLevels forces it.
	for _, st := range sp.Stages {
		if st.Output == nil {
			continue
		}
		if st.Output.Variant.Levels == 0 {
			st.Output.Variant = stageplan.ChooseVariant(
				workers[st.ID], st.Output.Partitions, len(buckets),
				cfg.Exchange.WriteCombining, cfg.ExchangeLevels)
		}
	}

	// Every stage's payloads are computable up front (worker counts depend
	// only on file and partition counts), so pipelined launch can invoke
	// consumers before their producers seal.
	runs := make([]*stageRun, 0, len(sp.Stages))
	for _, st := range sp.Stages {
		ps, err := d.stagePayloads(queryID, epoch, st, sp, scanFiles, workers, blobs, buckets, sealTable, cfg)
		if err != nil {
			return nil, nil, err
		}
		r := &stageRun{st: st, payloads: ps, winners: map[int]int{}}
		if st.Output != nil {
			r.boundary = st.Output.Variant
		}
		runs = append(runs, r)
	}

	// Synthetic regroup fleets: every multi-level boundary gets its own
	// Groups(P)-worker stage between producer and consumers, scheduled like
	// any other — pipelined launch, speculation, failure-seal relaunch and
	// the liveness cap all apply. Consumers additionally depend on the
	// regroup seal (their round-2 objects exist only then).
	for _, st := range sp.Stages {
		if st.Output == nil || st.Output.Variant.Levels < 2 {
			continue
		}
		r, err := d.regroupRun(queryID, epoch, st, workers[st.ID], buckets, sealTable, cfg)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, r)
		for _, c := range sp.Stages {
			for _, dep := range c.DependsOn {
				if dep == st.ID {
					c.DependsOn = append(c.DependsOn, r.st.ID)
					break
				}
			}
		}
	}

	chunks, err := d.schedule(runs, resultStage.ID, epoch, sealTable, cfg, rep)
	if err != nil {
		return nil, nil, err
	}
	result, err := mergeResults(chunks, resultStage.Plan, sp.Driver)
	if err != nil {
		return nil, nil, err
	}

	// All stages sealed, so no winner is still publishing: drain the
	// boundary namespace now and let its requests count toward the query.
	if _, err := exchange.Sweep(driverClient, buckets, prefix); err != nil {
		return nil, nil, fmt.Errorf("driver: sweeping boundary %s: %w", prefix, err)
	}
	swept = true

	rep.Epoch = epoch
	rep.Stages = len(sp.Stages)
	for _, r := range runs {
		ss := StageStat{
			StageID:    r.st.ID,
			Workers:    len(r.payloads),
			Launched:   r.launchedAt - d.start,
			Sealed:     r.sealedAt - d.start,
			Speculated: r.speculated,
			Span:       r.span,
		}
		if r.regroup {
			ss.StageID = r.regroupFor
			ss.Regroup = true
		}
		if r.boundary.Levels > 0 {
			ss.Variant = r.boundary.String()
		}
		rep.StageStats = append(rep.StageStats, ss)
	}
	d.finish(rep)
	return result, rep, nil
}

// schedule is the driver's one event loop (§3.3: the driver invokes the
// fleet, then polls the result queue until every worker has reported). It
// runs every stage of runs to its seal: it launches each stage once it is
// launchable, consumes seal messages as they arrive, relaunches retryable
// failure seals, arms per-stage speculation, and — when sealTable is set —
// writes each stage's DynamoDB ready marker the moment its last worker
// sealed. Messages of another query or epoch are discarded, and so are
// duplicate seals of a worker (SQS is at-least-once; backup pairs both
// answer).
//
// A single-scope query is one run with no dependencies and no fence: epoch
// 0 and no seal table. It returns the outputs of stage resultID decoded in
// worker order (the arrival order is racy; worker order makes the driver
// merge deterministic) and fills rep's fleet fields.
func (d *query) schedule(runs []*stageRun, resultID, epoch int, sealTable string, cfg StageConfig, rep *Report) ([]*columnar.Chunk, error) {
	tr := d.dep.Trace
	byID := make(map[int]*stageRun, len(runs))
	for _, r := range runs {
		byID[r.st.ID] = r
		if tr.Enabled() {
			name := "stage-" + strconv.Itoa(r.st.ID)
			if r.regroup {
				name = "regroup-" + strconv.Itoa(r.regroupFor)
			}
			r.span = tr.StartSpan(obs.KindStage, name, rep.Span, d.env.Now())
		}
	}

	adm := d.s.admission
	sealedID := func(id int) bool {
		r := byID[id]
		return r != nil && r.state == stageSealed
	}
	depsSealed := func(r *stageRun) bool {
		for _, dep := range r.st.DependsOn {
			if !sealedID(dep) {
				return false
			}
		}
		return true
	}
	// depsLaunched gates eager-pipelined launch under admission: a consumer
	// may take tokens only once every producer it depends on has its whole
	// fleet launched. Producers then always make progress with the tokens
	// they hold, so token-holding consumers parked on a ready barrier are
	// never waiting on a producer that admission starved — the inductive
	// liveness argument bottoms out at scan stages, which depend on nothing.
	depsLaunched := func(r *stageRun) bool {
		for _, dep := range r.st.DependsOn {
			if u := byID[dep]; u != nil && u.launched < len(u.payloads) {
				return false
			}
		}
		return true
	}
	launchable := func(r *stageRun) bool {
		if adm == nil {
			if r.state != stagePending {
				return false
			}
		} else if r.launched == len(r.payloads) {
			return false // fully launched; partial fleets stay launchable
		}
		if cfg.Pipelined && r.st.Eager {
			if adm != nil {
				return depsLaunched(r)
			}
			return true
		}
		return depsSealed(r)
	}

	launch := func(r *stageRun) error {
		if r.bodies == nil {
			r.bodies = make([][]byte, len(r.payloads))
			for i := range r.payloads {
				body, err := json.Marshal(&r.payloads[i])
				if err != nil {
					return err
				}
				r.bodies[i] = body
			}
		}
		first := r.state == stagePending
		invokeStart := d.env.Now()
		if adm == nil {
			// Invocation policy is per stage: small fleets (the final merge
			// of a wide query, say) launch directly even when big scan
			// fleets go through the invocation tree.
			tr.SetStart(r.span, invokeStart)
			if err := d.invokeAll(r.bodies, r.span); err != nil {
				return err
			}
			r.launched = len(r.bodies)
		} else {
			// Admission-governed partial launch: take tokens one worker at a
			// time without ever blocking — a blocked driver could not
			// consume the seal messages that token-holding consumers are
			// waiting on. Whatever the pool denies stays at the cursor; the
			// event loop retries every pass as other containers settle.
			for r.launched < len(r.bodies) && adm.TryAcquire() {
				w := r.launched
				adm.Pace(d.env)
				if err := d.retry.policy.Do(d.env, "lambda.Invoke", func() error {
					return d.dep.Lambda.Invoke(d.env, d.cfg.FunctionName, r.bodies[w],
						lambdasvc.InvokeOptions{WorkerID: r.payloads[w].WorkerID, Pipelined: true, Span: r.span})
				}); err != nil {
					adm.Release(d.env)
					return err
				}
				r.launched++
			}
			if first && r.launched > 0 {
				tr.SetStart(r.span, invokeStart)
			}
		}
		rep.Invocation += d.env.Now() - invokeStart
		if !first || r.launched == 0 {
			return nil
		}
		r.state = stageLaunched
		r.launchedAt = d.env.Now()
		r.policy = newStragglerPolicy(d.cfg.Speculate, len(r.payloads), r.launchedAt)
		// The all-stragglers liveness cap starts ticking once the stage is
		// runnable: immediately for stages whose producers already sealed
		// (scan stages, wave-gated launches), on the last producer's seal
		// otherwise — a pipelined consumer idling on the ready barrier is
		// not straggling.
		if depsSealed(r) {
			r.policy.armCap(stageCap(r.st, cfg), r.launchedAt)
		}
		rep.Workers += len(r.payloads)
		return nil
	}
	launchReady := func() error {
		for _, r := range runs {
			if launchable(r) {
				if err := launch(r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := launchReady(); err != nil {
		return nil, err
	}

	type workerResult struct {
		workerID int
		chunk    []byte
	}
	var results []workerResult
	zombieDiscards, loserDiscards := 0, 0
	sealedCount := 0
	backupPacing := invoke.DriverPacing(d.cfg.Region, 1)
	deadline := d.env.Now() + d.cfg.MaxWait
	for sealedCount < len(runs) {
		if adm != nil {
			// Resume partial launches: containers of this or other queries
			// settling since the last pass may have freed tokens.
			if err := launchReady(); err != nil {
				return nil, err
			}
		}
		var msgs []sqs.Message
		if err := d.retry.policy.Do(d.env, "sqs.Receive", func() error {
			var rerr error
			msgs, rerr = d.dep.SQS.Receive(d.env, d.cfg.ResultQueue, 10)
			return rerr
		}); err != nil {
			return nil, fmt.Errorf("driver: collecting seals: %w", err)
		}
		for _, m := range msgs {
			var rm resultMsg
			if err := json.Unmarshal(m.Body, &rm); err != nil {
				return nil, err
			}
			if rm.QueryID != d.id || rm.Epoch != epoch {
				// Leftover of an earlier aborted query — including a zombie
				// worker of an aborted identically-numbered run posting its
				// seal after this run's purge: its older epoch fences it out.
				zombieDiscards++
				continue
			}
			r := byID[rm.Stage]
			if r == nil || r.state != stageLaunched {
				loserDiscards++
				continue // unknown stage, or a loser sealing after the stage did
			}
			if _, dup := r.winners[rm.WorkerID]; dup {
				loserDiscards++
				continue // losing half of a backup pair — files swept later
			}
			d.workerRetries += rm.Retries
			if rm.Err != "" {
				// Failure seal. A retryable one — the worker exhausted its
				// substrate retry budget, or died of a crash-class error —
				// is re-invoked through the attempt machinery: the fresh
				// attempt namespaces its boundary publishes exactly like a
				// speculation backup, so it cannot race the dead original.
				// Every invocation gets at least one relaunch even with
				// speculation disabled; deterministic plan or data errors
				// fail the query immediately with a structured error.
				relaunches := r.policy.maxRetries(r.st.MaxAttempts)
				if relaunches < 1 {
					relaunches = 1
				}
				if rm.Retryable && r.policy.attempts[rm.WorkerID] < relaunches {
					r.policy.attempts[rm.WorkerID]++
					rep.FailureSeals++
					backup := r.payloads[rm.WorkerID]
					backup.Attempt = r.policy.attempts[rm.WorkerID]
					body, err := json.Marshal(&backup)
					if err != nil {
						return nil, err
					}
					if err := d.invokeOne(body, rm.WorkerID, r.span); err != nil {
						return nil, fmt.Errorf("driver: relaunching stage %d worker %d: %w", rm.Stage, rm.WorkerID, err)
					}
					continue
				}
				return nil, &StageFailure{QueryID: d.id, Stage: rm.Stage, Worker: rm.WorkerID, Attempt: rm.Attempt, Retryable: rm.Retryable, Msg: rm.Err}
			}
			r.winners[rm.WorkerID] = rm.Attempt
			if rm.Cold {
				rep.ColdWorkers++
			}
			rep.WorkerProcessing = append(rep.WorkerProcessing, time.Duration(rm.ProcessingNs))
			r.policy.record(d.env.Now())
			if rm.Stage == resultID && len(rm.Chunk) > 0 {
				results = append(results, workerResult{workerID: rm.WorkerID, chunk: rm.Chunk})
			}
			if len(r.winners) == len(r.payloads) {
				// Seal: every worker of the stage reported through SQS.
				// Ready: record it in DynamoDB for the consumers' barrier
				// (the Put broadcasts the completion signal, waking workers
				// parked in waitSealed at this exact instant).
				if sealTable != "" {
					if err := d.retry.policy.Do(d.env, "dynamo.Put", func() error {
						return d.dep.Dynamo.Put(d.env, sealTable, sealKey(d.id, epoch, r.st.ID), []byte("sealed"))
					}); err != nil {
						return nil, err
					}
				}
				r.state = stageSealed
				r.sealedAt = d.env.Now()
				if tr.Enabled() {
					tr.SetTag(r.span, "workers", strconv.Itoa(len(r.payloads)))
					if r.speculated > 0 {
						tr.SetTag(r.span, "speculated", strconv.Itoa(r.speculated))
					}
					tr.EndSpan(r.span, r.sealedAt)
				}
				sealedCount++
				if err := launchReady(); err != nil {
					return nil, err
				}
				// This seal may have made already-launched consumers
				// runnable: start their liveness-cap clocks now.
				for _, c := range runs {
					if c.state == stageLaunched && !c.policy.capArmed() && depsSealed(c) {
						c.policy.armCap(stageCap(c.st, cfg), d.env.Now())
					}
				}
			}
		}
		if sealedCount >= len(runs) {
			break
		}
		// Straggler speculation, per stage: the missing workers are past the
		// median-based deadline (or the stage's liveness cap expired with no
		// response at all) — re-invoke them as the next attempt. Their
		// boundary publishes land in a fresh attempt namespace, so whichever
		// attempt commits first wins. Backup bursts pace like any other
		// direct launch: the liveness cap can re-invoke a whole stage fleet
		// at once, which must not exceed the Invoke API rate.
		for _, r := range runs {
			if r.state != stageLaunched {
				continue
			}
			reported := func(w int) bool {
				if w >= r.launched {
					return true // never launched (admission backlog) — not a straggler
				}
				_, ok := r.winners[w]
				return ok
			}
			backups := r.policy.stragglers(d.env.Now(), reported, r.st.MaxAttempts)
			for i, w := range backups {
				r.speculated++
				rep.Speculated++
				backup := r.payloads[w]
				backup.Attempt = r.policy.attempts[w]
				body, err := json.Marshal(&backup)
				if err != nil {
					return nil, err
				}
				if err := d.invokeOne(body, w, r.span); err != nil {
					return nil, fmt.Errorf("driver: backup invocation of stage %d worker %d: %w", r.st.ID, w, err)
				}
				if i < len(backups)-1 {
					d.env.Sleep(backupPacing.Gap())
				}
			}
		}
		if d.env.Now() >= deadline {
			missing := 0
			for _, r := range runs {
				if r.state == stageLaunched {
					missing += len(r.payloads) - len(r.winners)
				}
			}
			return nil, fmt.Errorf("driver: %d seal messages missing after %v", missing, d.cfg.MaxWait)
		}
		if len(msgs) == 0 {
			// Park on the result queue's completion topic: the loop wakes at
			// the instant the next seal lands instead of rounding the whole
			// query up to the next PollInterval tick, with the timed poll as
			// fallback — and stays parked through unrelated broadcasts
			// (boundary puts, ready markers) that used to wake it.
			simenv.WaitNotifyKey(d.env, "sqs/"+d.cfg.ResultQueue, d.cfg.PollInterval)
		}
	}
	if tr.Enabled() {
		if zombieDiscards > 0 {
			tr.SetTag(rep.Span, "zombieDiscards", strconv.Itoa(zombieDiscards))
		}
		if loserDiscards > 0 {
			tr.SetTag(rep.Span, "loserDiscards", strconv.Itoa(loserDiscards))
		}
	}

	sort.Slice(results, func(i, j int) bool { return results[i].workerID < results[j].workerID })
	var chunks []*columnar.Chunk
	for _, r := range results {
		c, err := decodeChunk(r.chunk)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	return chunks, nil
}

// purgeResults drains every leftover message from the result queue. Called
// before a staged query launches (no workers of this query are in flight
// yet, so everything received is stale). With the epoch fence this is queue
// hygiene, not a correctness mechanism: even a message posted after the
// purge by a zombie worker of an aborted identically-numbered run is
// discarded by its older epoch.
func (d *query) purgeResults() error {
	for {
		var msgs []sqs.Message
		if err := d.retry.policy.Do(d.env, "sqs.Receive", func() error {
			var rerr error
			msgs, rerr = d.dep.SQS.Receive(d.env, d.cfg.ResultQueue, 10)
			return rerr
		}); err != nil {
			return err
		}
		if len(msgs) == 0 {
			return nil
		}
	}
}

// stageCap resolves a stage's all-stragglers liveness cap: the stage's own
// MaxStageWait when set (negative = disabled), the StageConfig default
// otherwise.
func stageCap(st *stageplan.Stage, cfg StageConfig) time.Duration {
	if st.MaxStageWait != 0 {
		if st.MaxStageWait < 0 {
			return 0
		}
		return st.MaxStageWait
	}
	return cfg.MaxStageWait
}

// stagePayloads builds the invocation payloads of one stage (attempt 0),
// every one stamped with the query's epoch fence token.
func (d *query) stagePayloads(queryID string, epoch int, st *stageplan.Stage, sp *stageplan.Plan, tables TableFiles, workers map[int]int, blobs map[string][]byte, buckets []string, sealTable string, cfg StageConfig) ([]workerPayload, error) {
	planJSON, err := engine.MarshalPlan(st.Plan)
	if err != nil {
		return nil, err
	}
	spec := stageSpec{
		StageID:   st.ID,
		Buckets:   buckets,
		Prefix:    fmt.Sprintf("%s/%s/e%d", d.cfg.FunctionName, queryID, epoch),
		PollNs:    int64(cfg.Exchange.Poll),
		MaxWaitNs: int64(cfg.Exchange.MaxWait),
		SealTable: sealTable,
		QueryID:   queryID,
		Epoch:     epoch,
	}
	for _, in := range st.Inputs {
		is := stageInputSpec{Input: in, Senders: workers[in.StageID]}
		for _, up := range sp.Stages {
			if up.ID == in.StageID && up.Output != nil {
				is.Variant = up.Output.Variant
				if up.Output.Variant.Levels >= 2 {
					is.RegroupStage = regroupStageID(in.StageID)
				}
			}
		}
		spec.Inputs = append(spec.Inputs, is)
	}
	spec.Output = st.Output
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}

	// Only ship the broadcast blobs the fragment references.
	var stageBlobs map[string][]byte
	for name := range blobs {
		if fragmentScans(st.Plan, name) {
			if stageBlobs == nil {
				stageBlobs = map[string][]byte{}
			}
			stageBlobs[name] = blobs[name]
		}
	}

	n := workers[st.ID]
	payloads := make([]workerPayload, n)
	files := tables[st.Table]
	per := 0
	if st.Table != "" {
		per = (len(files) + n - 1) / n
	}
	for w := 0; w < n; w++ {
		p := workerPayload{
			QueryID:     queryID,
			WorkerID:    w,
			NumWorkers:  n,
			Plan:        planJSON,
			ResultQueue: d.cfg.ResultQueue,
			StageID:     st.ID,
			StageSpec:   specJSON,
			Epoch:       epoch,
			Broadcast:   stageBlobs,
		}
		if st.Table != "" {
			lo, hi := w*per, (w+1)*per
			if hi > len(files) {
				hi = len(files)
			}
			if lo > hi {
				lo = hi
			}
			p.Table = st.Table
			p.Files = files[lo:hi]
		}
		payloads[w] = p
	}
	return payloads, nil
}

// loadTable reads a small table's lpq files whole on the driver (the §3.2
// "small amounts of data read locally" that broadcast joins ship).
func (d *query) loadTable(client *s3.Client, files []scan.FileRef) (*columnar.Chunk, error) {
	if len(files) == 0 {
		return nil, errors.New("no files")
	}
	src := scan.New(client, d.cfg.Scan, files...)
	schema, err := src.Schema()
	if err != nil {
		return nil, err
	}
	out := columnar.NewChunk(schema, 0)
	err = src.Scan(nil, nil, func(c *columnar.Chunk) error {
		out.AppendChunk(c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fragmentScans reports whether the fragment scans table (join build sides
// included).
func fragmentScans(p engine.Plan, table string) bool {
	found := false
	engine.VisitScans(p, func(s *engine.ScanPlan) {
		if s.Table == table {
			found = true
		}
	})
	return found
}

// runStageFragment is the worker side of a stage: wait out the upstream
// ready markers, collect this worker's partition of every input boundary,
// execute the fragment on the pipeline-graph scheduler, and either publish
// the partitioned output into this stage's attempt namespace or hand the
// chunk back for the SQS result post.
func (d *Session) runStageFragment(ctx *lambdasvc.Ctx, ws *retryScope, client *s3.Client, p *workerPayload, plan engine.Plan, cat engine.Catalog) (*columnar.Chunk, error) {
	var spec stageSpec
	if err := json.Unmarshal(p.StageSpec, &spec); err != nil {
		return nil, err
	}
	// The driver resolves every boundary before it builds payloads, so an
	// unresolved one is a driver bug: refuse it rather than guess a variant
	// the other side of the boundary may not share.
	for _, in := range spec.Inputs {
		if in.Variant.Levels == 0 {
			return nil, fmt.Errorf("stage %d: input boundary of stage %d has no resolved variant", spec.StageID, in.StageID)
		}
	}
	if spec.Output != nil && spec.Output.Variant.Levels == 0 {
		return nil, fmt.Errorf("stage %d: output boundary has no resolved variant", spec.StageID)
	}
	opts := exchange.Options{
		Buckets: spec.Buckets,
		Prefix:  spec.Prefix,
		Poll:    time.Duration(spec.PollNs),
		MaxWait: time.Duration(spec.MaxWaitNs),
	}
	budget := engineMemoryBudget(ctx.MemoryMiB)
	var collected int64
	// One wait deadline for the whole fragment: a k-input stage gets
	// MaxWait across ALL its barriers — the ready-marker waits and the
	// exchange commit waits alike — not MaxWait per input (which let a
	// fragment wait k×MaxWait before reporting failure). Only waits are
	// bounded; the data reads themselves are not cut short.
	sealDeadline := ctx.Env.Now() + time.Duration(spec.MaxWaitNs)
	for _, in := range spec.Inputs {
		// Ready barrier: the driver marks a stage sealed in DynamoDB once
		// every producer reported through SQS. Under pipelined launch this
		// worker was invoked before its producers sealed, so the wait here
		// is where cold start and upstream execution overlap. Multi-level
		// boundaries gate on the regroup fleet's seal instead — the round-2
		// objects this worker reads exist only once every regroup worker
		// committed.
		waitStage := in.StageID
		if in.RegroupStage != 0 && in.Variant.Levels >= 2 {
			waitStage = in.RegroupStage
		}
		if err := d.waitSealed(ctx, ws, &spec, waitStage, sealDeadline); err != nil {
			return nil, err
		}
		copts := opts
		copts.Variant = in.Variant
		if rem := sealDeadline - ctx.Env.Now(); rem < copts.MaxWait {
			if rem < 0 {
				rem = 0
			}
			copts.MaxWait = rem
		}
		chunk, err := exchange.CollectStage(client, copts, exchange.Boundary{
			Stage:      in.StageID,
			Senders:    in.Senders,
			Partitions: p.NumWorkers,
		}, p.WorkerID)
		if err != nil {
			return nil, fmt.Errorf("collecting stage %d partition %d: %w", in.StageID, p.WorkerID, err)
		}
		// §3.3: report the working set exceeding the engine budget instead
		// of dying silently. A join stage holds BOTH sides' partitions at
		// once (plus build-side structures and output), so the guard sums
		// over the inputs collected so far.
		collected += chunk.ByteSize()
		if need := 3 * collected; need > budget {
			return nil, fmt.Errorf("%w: partition working set %d MiB exceeds engine budget %d MiB",
				ErrWorkerOOM, need>>20, budget>>20)
		}
		cat[in.Table] = engine.NewMemSource(chunk.Schema, chunk)
	}

	out, err := engine.ExecuteParallel(plan, cat, engine.ParallelConfig{Pipelines: d.cfg.PipelineParallelism})
	if err != nil {
		return nil, err
	}
	// Exchange-volume tags: output rows of the fragment and bytes collected
	// from upstream boundaries, read off the invocation span for the
	// per-stage profile (rows/bytes exchanged).
	tr := d.dep.Trace
	if tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "rows.out", strconv.FormatInt(int64(out.NumRows()), 10))
		if n := client.BytesRead(); n > 0 {
			tr.SetTag(ctx.Span, "bytes.in", strconv.FormatInt(n, 10))
		}
	}
	if spec.Output == nil {
		return out, nil
	}
	wrote := client.BytesWritten()
	popts := opts
	popts.Variant = spec.Output.Variant
	err = exchange.PublishStage(client, popts, exchange.Boundary{
		Stage:      spec.StageID,
		Attempt:    p.Attempt,
		Senders:    p.NumWorkers,
		Partitions: spec.Output.Partitions,
	}, p.WorkerID, out, spec.Output.Keys)
	if err != nil {
		return nil, fmt.Errorf("publishing stage %d output: %w", spec.StageID, err)
	}
	if tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "bytes.out", strconv.FormatInt(client.BytesWritten()-wrote, 10))
	}
	// The seal travels through the result queue: an empty chunk.
	return nil, nil
}

// waitSealed waits for the DynamoDB ready marker of a producing stage, up
// to the fragment-wide deadline. The marker key carries the query epoch, so
// a marker written by an aborted identically-numbered run can never satisfy
// this run's barrier. Between checks the worker parks on the completion
// signal dynamo.Put broadcasts — it wakes at the instant the marker lands
// instead of at the next poll boundary — with the timed poll as fallback.
func (d *Session) waitSealed(ctx *lambdasvc.Ctx, ws *retryScope, spec *stageSpec, stageID int, deadline time.Duration) error {
	for {
		err := ws.policy.Do(ctx.Env, "dynamo.Get", func() error {
			_, gerr := d.dep.Dynamo.Get(ctx.Env, spec.SealTable, sealKey(spec.QueryID, spec.Epoch, stageID))
			return gerr
		})
		if err == nil {
			return nil
		}
		if !errors.Is(err, dynamo.ErrNoSuchItem) {
			return err
		}
		if ctx.Env.Now() >= deadline {
			return fmt.Errorf("stage %d never sealed: %w", stageID, err)
		}
		// Park on this marker's exact completion topic: only the dynamo.Put
		// of this (query, epoch, stage) ready marker wakes the worker early.
		simenv.WaitNotifyKey(ctx.Env, "dynamo/"+spec.SealTable+"/"+sealKey(spec.QueryID, spec.Epoch, stageID), time.Duration(spec.PollNs))
	}
}
