// Package stageplan decomposes an optimized engine plan into a DAG of
// stages connected by exchange boundaries — the distributed planning layer
// that lets query shapes the driver cannot broadcast (joins with two large
// sides, high-cardinality group-bys) flow through the purpose-built S3
// exchange (§4.4) end-to-end:
//
//   - scan stages read a base table's lpq files and hash-partition their
//     output on the downstream join keys through the exchange;
//   - join stages run one worker per partition pair: worker p collects
//     partition p of both sides, builds the hash table on the build side
//     and probes with the other — no worker ever sees a whole table;
//   - grouped aggregations split into a partial aggregate in the stage
//     producing the rows and a final merge stage fed by a repartition on
//     the group keys, so group state never funnels through the driver.
//
// Joins whose build side is genuinely small (by lpq footer row counts) stay
// broadcast joins inside their probe side's stage — the planner chooses
// broadcast-vs-shuffle per join. The driver executes stages in dependency
// waves with seal/ready barriers (SQS completion messages, DynamoDB ready
// markers); every stage fragment is an ordinary engine plan run on the
// pipeline-graph scheduler, so results are byte-identical to single-node
// execution at any worker/partition count.
package stageplan

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"lambada/internal/awssim/pricing"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/exchange"
)

// Fingerprint returns a stable identity for a logical plan — the FNV-64a
// hash of its canonical JSON encoding. Two plans with the same fingerprint
// compute the same result over the same table data, which makes the
// fingerprint the plan half of a (plan, table files) result-cache key.
// Callers must fingerprint the plan before Decompose/SplitDistributed
// mutate it.
func Fingerprint(p engine.Plan) (string, error) {
	b, err := engine.MarshalPlan(p)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Output is a stage's exchange boundary: its result rows are hash-
// partitioned on Keys into Partitions partitions. The JSON tags are the
// wire form both stageplan.Marshal and the driver's worker payloads use.
type Output struct {
	// Keys are the partition key columns (all Int64), hash-combined.
	Keys []string `json:"keys"`
	// Partitions is the consuming stage's worker count.
	Partitions int `json:"partitions"`
	// Variant selects the boundary's exchange algorithm. The zero value
	// (Levels 0) means "unresolved": the driver picks per boundary from the
	// analytic request model (ChooseVariant) once it knows the sender fleet
	// size. Workers refuse a boundary still unresolved at run time.
	Variant exchange.Variant `json:"variant,omitempty"`
}

// Input binds one upstream stage's boundary into a stage's catalog.
type Input struct {
	// StageID is the producing stage.
	StageID int `json:"stageId"`
	// Table is the catalog name the fragment scans the partition under.
	Table string `json:"table"`
}

// Stage is one gang-scheduled fragment of a distributed plan.
type Stage struct {
	ID int
	// Plan is the engine fragment every worker of the stage executes.
	Plan engine.Plan
	// Table is the base S3 table the stage scans ("" for exchange-fed
	// stages, whose inputs come from upstream boundaries instead).
	Table string
	// Inputs are the exchange boundaries the stage consumes; worker p
	// collects partition p of each.
	Inputs []Input
	// Output is the boundary the stage produces (nil: results go to the
	// driver through the SQS result queue).
	Output *Output
	// DependsOn lists the stage IDs whose boundaries this stage consumes.
	// The event-driven scheduler no longer waits for them before invoking
	// the stage (see Eager); they gate the stage's collect instead.
	DependsOn []int
	// Eager marks the stage eligible for pipelined launch: the scheduler may
	// invoke its workers before the producing stages seal, overlapping their
	// cold starts with upstream execution, because the DynamoDB ready
	// barrier gates the collect. Decompose marks every stage eager; a
	// cost-based policy (or StageConfig.Pipelined = false) can still hold a
	// stage back until its producers sealed.
	Eager bool
	// MaxAttempts bounds per-worker attempts of this stage under straggler
	// speculation (0 = the driver's SpeculateConfig default). Attempt
	// numbers version the stage's exchange boundary names.
	MaxAttempts int
	// MaxStageWait caps how long the stage may go without ANY worker
	// response before speculation re-invokes the whole missing set as the
	// next attempt — the no-progress cases the quorum/median policy can
	// never arm for (no response at all, or a sub-quorum stall). The
	// window starts when the stage becomes runnable (its producers sealed),
	// not at its pipelined launch, and restarts on every response. 0 uses
	// the driver's StageConfig default; negative disables the cap for this
	// stage.
	MaxStageWait time.Duration
}

// Plan is a stage-decomposed distributed plan.
type Plan struct {
	// Stages in topological order: producers precede consumers.
	Stages []*Stage
	// Driver is the driver-side merge scope; its scan of
	// engine.WorkerResultTable binds to the result stage's collected
	// outputs (ordered by worker ID).
	Driver engine.Plan
	// Broadcast names the tables the driver must materialize and ship
	// inside worker payloads (the small sides of broadcast joins).
	Broadcast []string
}

// ResultStage returns the stage whose output feeds the driver scope.
func (p *Plan) ResultStage() *Stage {
	for _, s := range p.Stages {
		if s.Output == nil {
			return s
		}
	}
	return nil
}

// Stats carries the planner's cost inputs.
type Stats struct {
	// Rows is the per-table row estimate, summed from the lpq file footers
	// at plan time (a driver-side metadata read, no data scanned). For
	// tables scanned with pushed-down predicates this is the page-granular
	// pruning bound (lpq.EstimateRows) — post-filter, so autotuned fan-in
	// tracks the selective workload; for unfiltered scans it is the exact
	// total row count.
	Rows map[string]int64
}

// Config tunes the decomposition.
type Config struct {
	// Partitions is the fan-in of every exchange boundary: join and final-
	// aggregation stages run this many workers. 0 derives the fan-in from
	// the lpq footer row counts in Stats: ceil(largest table rows /
	// AutoRowsPerPartition), clamped to [1, MaxAutoPartitions].
	Partitions int
	// BroadcastRowLimit: a join build side of at most this many rows stays
	// a broadcast join (0 = 65536; negative = never broadcast).
	BroadcastRowLimit int64
	// MaxAutoPartitions caps the autotuned fan-in (0 = MaxAutoPartitions).
	// Paper-scale fleets raise it: with multi-level boundaries the request
	// count grows as O(√P·S) instead of O(S·P), so wide fan-ins stay
	// affordable.
	MaxAutoPartitions int
}

// DefaultBroadcastRowLimit is the build-side row count up to which shipping
// the table inside worker payloads beats a shuffle.
const DefaultBroadcastRowLimit = 1 << 16

// Partition autotuning (Config.Partitions = 0): each boundary partition
// targets AutoRowsPerPartition input rows — enough work to amortize a
// worker's cold start and per-partition exchange requests, small enough
// that a partition pair of a join fits a Lambda-sized memory budget.
const (
	AutoRowsPerPartition = 1 << 16
	// MaxAutoPartitions caps the derived fan-in: boundary request counts
	// grow with S×P, so wide fan-ins must be asked for explicitly.
	MaxAutoPartitions = 32
)

// partitions resolves the boundary fan-in, deriving it from the row stats
// when unset.
func (c Config) partitions(stats Stats) int {
	if c.Partitions > 0 {
		return c.Partitions
	}
	var largest int64
	for _, rows := range stats.Rows {
		if rows > largest {
			largest = rows
		}
	}
	if largest <= 0 {
		return 4
	}
	p := int((largest + AutoRowsPerPartition - 1) / AutoRowsPerPartition)
	if p < 1 {
		p = 1
	}
	if cap := c.maxAutoPartitions(); p > cap {
		p = cap
	}
	return p
}

func (c Config) maxAutoPartitions() int {
	if c.MaxAutoPartitions > 0 {
		return c.MaxAutoPartitions
	}
	return MaxAutoPartitions
}

// MinMultiLevelPartitions is the fan-in floor below which ChooseVariant
// keeps a boundary single-round regardless of raw request arithmetic. The
// regroup round adds a whole extra fleet of Groups(P) workers plus one
// round of S3 latency to the critical path; below this fan-in the absolute
// request savings are cents-invisible while the latency cost is not, and
// small deterministic test fixtures should not flip algorithms when a row
// estimate wiggles.
const MinMultiLevelPartitions = 32

// ChooseVariant resolves one stage boundary's exchange algorithm from the
// analytic request model (exchange.RequestCount). forceLevels pins the
// round count (1 or 2) when the user forced it via flag or plan JSON;
// 0 lets the model decide: multi-level is chosen only when the fan-in
// reaches MinMultiLevelPartitions and the billed-request savings exceed
// the regroup fleet's own cost (Groups(P) extra invocations priced at
// Lambda rates). Write combining is the caller's writeCombining either way
// — it is strictly fewer requests, so it is never un-chosen here.
func ChooseVariant(senders, partitions, buckets int, writeCombining bool, forceLevels int) exchange.Variant {
	single := exchange.Variant{Levels: 1, WriteCombining: writeCombining}
	multi := exchange.Variant{Levels: 2, WriteCombining: writeCombining}
	single.Buckets = chooseShards(single, senders, partitions, buckets)
	multi.Buckets = chooseShards(multi, senders, partitions, buckets)
	switch {
	case forceLevels == 1:
		return single
	case forceLevels >= 2:
		return multi
	}
	if partitions < MinMultiLevelPartitions || senders < 1 {
		return single
	}
	costSingle := single.Requests(senders, partitions, buckets).Cost()
	costMulti := multi.Requests(senders, partitions, buckets).Cost() +
		pricing.USD(exchange.Groups(partitions))*regroupWorkerOverhead()
	if costMulti < costSingle {
		return multi
	}
	return single
}

// MaxBucketRoundRequests is the per-bucket request budget one exchange
// round may put on a single shard bucket — buckets exist only to stay
// under S3's per-prefix rate ceilings (§4.4.1: ~5500 reads/s, 3500
// writes/s per prefix), so the budget sits safely below the read ceiling.
// Every receiver lists min(S, B) buckets, so once the pressure fits, each
// extra bucket only adds List requests.
const MaxBucketRoundRequests = 3000

// chooseShards returns the smallest shard-bucket count (of the available
// pool) whose per-round per-bucket request pressure fits the budget, or 0
// when the full pool is needed (Variant.Buckets zero = use all, the
// pre-choice behavior). Sharding B thus becomes a chosen dimension of the
// variant rather than a deployment constant.
func chooseShards(v exchange.Variant, senders, partitions, available int) int {
	if available <= 1 {
		return 0
	}
	load := senders
	if partitions > load {
		load = partitions
	}
	b := 1
	for b < available && v.RequestsPerBucketPerRound(load, b) > MaxBucketRoundRequests {
		b++
	}
	if b >= available {
		return 0
	}
	return b
}

// regroupWorkerOverhead prices one regroup worker's non-S3 footprint — its
// invocation, a conservative half second of 1.75 GiB Lambda duration, and
// its SQS result message — so boundaries only go multi-level when request
// savings actually pay for the extra fleet.
func regroupWorkerOverhead() pricing.USD {
	return pricing.LambdaPerRequest +
		pricing.USD(1.75*0.5)*pricing.LambdaGBSecond +
		pricing.SQSPerRequest
}

func (c Config) broadcastLimit() int64 {
	switch {
	case c.BroadcastRowLimit < 0:
		return 0
	case c.BroadcastRowLimit == 0:
		return DefaultBroadcastRowLimit
	default:
		return c.BroadcastRowLimit
	}
}

// InputTable names the catalog binding of a stage's boundary in consuming
// fragments.
func InputTable(stageID int) string { return fmt.Sprintf("__stage%d", stageID) }

// joinKeys normalizes a join's key columns to the multi-key form.
func joinKeys(j *engine.JoinPlan) (left, right []string) {
	if len(j.LeftKeys) > 0 || len(j.RightKeys) > 0 {
		return j.LeftKeys, j.RightKeys
	}
	return []string{j.LeftKey}, []string{j.RightKey}
}

type compiler struct {
	cfg       Config
	stats     Stats
	parts     int // resolved boundary fan-in (explicit or autotuned)
	stages    []*Stage
	broadcast map[string]bool
	nextID    int
}

// Decompose converts an optimized, resolved plan into a stage DAG. The plan
// must come out of engine.Optimize against a catalog holding every base
// table; stats supplies the per-table row counts the broadcast-vs-shuffle
// choice is made from.
//
// Decompose takes ownership of p and rewrites it in place (join sides may
// swap, shuffle joins are rebound to boundary scans) — like Optimize, it is
// a one-way pass. Callers wanting a single-node reference must build the
// plan twice, not reuse p afterwards.
func Decompose(p engine.Plan, stats Stats, cfg Config) (*Plan, error) {
	c := &compiler{cfg: cfg, stats: stats, parts: cfg.partitions(stats), broadcast: map[string]bool{}}

	// Peel the driver-only tail (OrderBy, Limit) and an optional top-level
	// projection, mirroring engine.SplitDistributed.
	var tail []engine.Plan
	cur := p
	for {
		switch n := cur.(type) {
		case *engine.OrderByPlan:
			tail = append(tail, n)
			cur = n.In
			continue
		case *engine.LimitPlan:
			tail = append(tail, n)
			cur = n.In
			continue
		}
		break
	}
	var topProject *engine.ProjectPlan
	var agg *engine.AggregatePlan
	switch n := cur.(type) {
	case *engine.ProjectPlan:
		if a, ok := n.In.(*engine.AggregatePlan); ok {
			topProject, agg, cur = n, a, a.In
		} else {
			topProject, cur = n, n.In
		}
	case *engine.AggregatePlan:
		agg, cur = n, n.In
	}

	// Compile the row source (scan chains and the join tree) into stages.
	rowStage, err := c.build(cur)
	if err != nil {
		return nil, err
	}

	var driver engine.Plan
	switch {
	case agg != nil && len(agg.GroupBy) > 0:
		partial, final, err := engine.SplitAggregate(agg)
		if err != nil {
			return nil, err
		}
		partial.In = rowStage.Plan
		rowStage.Plan = partial
		ps, err := partial.OutSchema()
		if err != nil {
			return nil, err
		}
		if intKeys(ps, agg.GroupBy) {
			// Repartition the partials on the group keys; one final-merge
			// worker per partition owns every group hashing to it.
			rowStage.Output = &Output{Keys: agg.GroupBy, Partitions: c.parts}
			workerFinal := final
			if topProject != nil {
				workerFinal = &engine.ProjectPlan{In: final, Exprs: topProject.Exprs, Names: topProject.Names}
			}
			inTable := InputTable(rowStage.ID)
			rebindScan(workerFinal, engine.WorkerResultTable, inTable)
			finalStage := &Stage{
				ID:        c.id(),
				Plan:      workerFinal,
				Inputs:    []Input{{StageID: rowStage.ID, Table: inTable}},
				DependsOn: []int{rowStage.ID},
				Eager:     true,
			}
			c.stages = append(c.stages, finalStage)
			fs, err := workerFinal.OutSchema()
			if err != nil {
				return nil, err
			}
			driver = &engine.ScanPlan{Table: engine.WorkerResultTable, TableSchema: fs}
		} else {
			// Non-hashable group keys: fall back to a driver-side merge of
			// the raw partials (the SplitDistributed shape).
			driver = final
			if topProject != nil {
				driver = &engine.ProjectPlan{In: driver, Exprs: topProject.Exprs, Names: topProject.Names}
			}
		}
	case agg != nil:
		// Global aggregate: partials are one row per worker — merge on the
		// driver.
		partial, final, err := engine.SplitAggregate(agg)
		if err != nil {
			return nil, err
		}
		partial.In = rowStage.Plan
		rowStage.Plan = partial
		driver = final
		if topProject != nil {
			driver = &engine.ProjectPlan{In: driver, Exprs: topProject.Exprs, Names: topProject.Names}
		}
	case topProject != nil:
		topProject.In = rowStage.Plan
		rowStage.Plan = topProject
		ts, err := topProject.OutSchema()
		if err != nil {
			return nil, err
		}
		driver = &engine.ScanPlan{Table: engine.WorkerResultTable, TableSchema: ts}
	default:
		rs, err := rowStage.Plan.OutSchema()
		if err != nil {
			return nil, err
		}
		driver = &engine.ScanPlan{Table: engine.WorkerResultTable, TableSchema: rs}
	}

	for i := len(tail) - 1; i >= 0; i-- {
		switch t := tail[i].(type) {
		case *engine.OrderByPlan:
			driver = &engine.OrderByPlan{In: driver, Keys: t.Keys}
		case *engine.LimitPlan:
			driver = &engine.LimitPlan{In: driver, N: t.N}
		}
	}

	out := &Plan{Stages: c.stages, Driver: driver}
	for t := range c.broadcast {
		out.Broadcast = append(out.Broadcast, t)
	}
	sort.Strings(out.Broadcast)
	return out, nil
}

func (c *compiler) id() int {
	id := c.nextID
	c.nextID++
	return id
}

// build compiles a row-source subtree into its own stage (appended after
// its producers, keeping c.stages topological) and returns it.
func (c *compiler) build(p engine.Plan) (*Stage, error) {
	st := &Stage{ID: c.id(), Eager: true}
	frag, err := c.embed(st, p)
	if err != nil {
		return nil, err
	}
	st.Plan = frag
	if st.Table == "" && len(st.Inputs) == 0 {
		return nil, fmt.Errorf("stageplan: stage %d scans no base table and no boundary", st.ID)
	}
	c.stages = append(c.stages, st)
	return st, nil
}

// embed walks a row-source subtree, keeping streamable operators inside st
// and cutting stage boundaries at shuffle joins.
func (c *compiler) embed(st *Stage, p engine.Plan) (engine.Plan, error) {
	switch n := p.(type) {
	case *engine.ScanPlan:
		if c.broadcast[n.Table] {
			return n, nil
		}
		if st.Table != "" && st.Table != n.Table {
			return nil, fmt.Errorf("stageplan: stage %d scans both %q and %q — a shuffle join should have split them", st.ID, st.Table, n.Table)
		}
		st.Table = n.Table
		return n, nil
	case *engine.FilterPlan:
		in, err := c.embed(st, n.In)
		if err != nil {
			return nil, err
		}
		n.In = in
		return n, nil
	case *engine.ProjectPlan:
		in, err := c.embed(st, n.In)
		if err != nil {
			return nil, err
		}
		n.In = in
		return n, nil
	case *engine.JoinPlan:
		return c.embedJoin(st, n)
	default:
		return nil, fmt.Errorf("stageplan: cannot stage plan node %T", p)
	}
}

// embedJoin chooses broadcast or shuffle for one join. Broadcast keeps the
// join inside st with its build side shipped in worker payloads; shuffle
// materializes both sides as upstream stages partitioned on the join keys
// and rebinds the join to their boundaries.
func (c *compiler) embedJoin(st *Stage, j *engine.JoinPlan) (engine.Plan, error) {
	lk, rk := joinKeys(j)
	limit := c.cfg.broadcastLimit()

	// Prefer building on the smaller side: if only the left side is a
	// broadcastable scan, swap the sides (inner joins commute; downstream
	// operators resolve columns by name).
	if !c.scanRows(j.Right, limit) && c.scanRows(j.Left, limit) {
		j.Left, j.Right = j.Right, j.Left
		j.LeftKey, j.RightKey = j.RightKey, j.LeftKey
		j.LeftKeys, j.RightKeys = j.RightKeys, j.LeftKeys
		lk, rk = joinKeys(j)
	}

	if c.scanRows(j.Right, limit) {
		left, err := c.embed(st, j.Left)
		if err != nil {
			return nil, err
		}
		j.Left = left
		c.broadcast[j.Right.(*engine.ScanPlan).Table] = true
		return j, nil
	}

	// Shuffle: both sides become stages partitioned on their join keys.
	parts := c.parts
	ls, err := c.build(j.Left)
	if err != nil {
		return nil, err
	}
	ls.Output = &Output{Keys: lk, Partitions: parts}
	rs, err := c.build(j.Right)
	if err != nil {
		return nil, err
	}
	rs.Output = &Output{Keys: rk, Partitions: parts}
	for _, s := range []*Stage{ls, rs} {
		if err := checkKeys(s, s.Output.Keys); err != nil {
			return nil, err
		}
	}

	lt, rt := InputTable(ls.ID), InputTable(rs.ID)
	lschema, err := ls.Plan.OutSchema()
	if err != nil {
		return nil, err
	}
	rschema, err := rs.Plan.OutSchema()
	if err != nil {
		return nil, err
	}
	st.Inputs = append(st.Inputs, Input{StageID: ls.ID, Table: lt}, Input{StageID: rs.ID, Table: rt})
	st.DependsOn = append(st.DependsOn, ls.ID, rs.ID)
	return &engine.JoinPlan{
		Left:     &engine.ScanPlan{Table: lt, TableSchema: lschema},
		Right:    &engine.ScanPlan{Table: rt, TableSchema: rschema},
		LeftKeys: lk, RightKeys: rk,
	}, nil
}

// scanRows reports whether p is a bare base-table scan of at most limit
// rows — the broadcast criterion. Subtrees with joins or filters above the
// scan shuffle instead (their output size is not footer-predictable).
// Filtered scans are excluded even when the post-filter estimate is small:
// broadcast ships the whole table inside every worker payload, and the
// estimate is an upper bound on selected rows, not shipped bytes.
func (c *compiler) scanRows(p engine.Plan, limit int64) bool {
	s, ok := p.(*engine.ScanPlan)
	if !ok || limit <= 0 || s.Filter != nil {
		return false
	}
	rows, known := c.stats.Rows[s.Table]
	return known && rows > 0 && rows <= limit
}

// checkKeys validates that a boundary's partition keys exist in the stage's
// output schema as Int64 columns.
func checkKeys(s *Stage, keys []string) error {
	schema, err := s.Plan.OutSchema()
	if err != nil {
		return err
	}
	for _, k := range keys {
		i := schema.Index(k)
		if i < 0 {
			return fmt.Errorf("stageplan: stage %d partition key %q not in output schema", s.ID, k)
		}
		if schema.Fields[i].Type != columnar.Int64 {
			return fmt.Errorf("stageplan: stage %d partition key %q has type %v (only BIGINT keys are hashable)", s.ID, k, schema.Fields[i].Type)
		}
	}
	return nil
}

// intKeys reports whether every key resolves to an Int64 column of schema.
func intKeys(schema *columnar.Schema, keys []string) bool {
	for _, k := range keys {
		i := schema.Index(k)
		if i < 0 || schema.Fields[i].Type != columnar.Int64 {
			return false
		}
	}
	return true
}

// rebindScan renames every scan of table from to table to in p (the
// SplitAggregate final merge scans engine.WorkerResultTable; final stages
// bind it to their boundary's catalog name instead).
func rebindScan(p engine.Plan, from, to string) {
	engine.VisitScans(p, func(s *engine.ScanPlan) {
		if s.Table == from {
			s.Table = to
		}
	})
}

// Explain renders the stage DAG for logs and tests.
func Explain(p *Plan) string {
	out := ""
	for _, s := range p.Stages {
		out += fmt.Sprintf("stage %d", s.ID)
		if s.Table != "" {
			out += fmt.Sprintf(" scan=%s", s.Table)
		}
		for _, in := range s.Inputs {
			out += fmt.Sprintf(" in=%d", in.StageID)
		}
		if s.Output != nil {
			out += fmt.Sprintf(" out=hash(%v)x%d", s.Output.Keys, s.Output.Partitions)
		} else {
			out += " out=driver"
		}
		out += "\n" + indent(engine.Explain(s.Plan))
	}
	out += "driver:\n" + indent(engine.Explain(p.Driver))
	return out
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out += "  " + s[start:i+1]
			start = i + 1
		}
	}
	if start < len(s) {
		out += "  " + s[start:]
	}
	return out
}
