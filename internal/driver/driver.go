// Package driver implements the Lambada system core (§3): the driver that
// runs on the data scientist's machine, compiles queries into distributed
// plans, invokes serverless workers (directly or through the two-level
// invocation tree of §4.2), and collects their results through the SQS
// result queue. Workers execute plan fragments against S3 through the
// cost-aware scan operator and report back via shared serverless storage —
// no always-on infrastructure anywhere.
package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"lambada/internal/awssim/dynamo"
	"lambada/internal/awssim/faults"
	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/pricing"
	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/awssim/sqs"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/invoke"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
	"lambada/internal/scan"
	"lambada/internal/simclock"
)

// Deployment bundles the serverless services of Figure 3.
type Deployment struct {
	S3     *s3.Service
	Lambda *lambdasvc.Service
	SQS    *sqs.Service
	Dynamo *dynamo.Service
	Meter  *pricing.CostMeter
	Net    netmodel.LambdaNet

	// Deterministic is true for DES deployments: worker-side code must not
	// spawn goroutines, so scan concurrency is disabled (its timing effect
	// is modeled by the bandwidth shaper instead).
	Deterministic bool
	// Shaped enables per-worker bandwidth shaping of S3 transfers.
	Shaped bool
	// Faults is the fault injector shared by every service of a chaos
	// deployment (NewChaos) — held here for reporting injected-fault counts.
	// Nil on fault-free deployments.
	Faults *faults.Injector

	// Trace is the deployment-wide tracer (nil = tracing off). Install it
	// with EnableTracing before any query traffic: every service attributes
	// its billed requests to the span bound to the calling environment, the
	// driver opens query/stage spans, and workers get invocation spans.
	Trace *obs.Tracer
}

// EnableTracing installs tr on the deployment and every service, so billed
// requests, retries and invocations are recorded as a span tree. Call it
// once, before Install and before any traffic; nil disables tracing again.
func (dep *Deployment) EnableTracing(tr *obs.Tracer) {
	dep.Trace = tr
	dep.S3.SetTracer(tr)
	dep.Lambda.SetTracer(tr)
	dep.SQS.SetTracer(tr)
	dep.Dynamo.SetTracer(tr)
}

// NewLocal returns a functional-layer deployment: real goroutine workers,
// zero latencies, no rate limits — correctness testing and examples.
func NewLocal() *Deployment {
	meter := pricing.NewCostMeter()
	return &Deployment{
		S3:     s3.New(s3.Config{Meter: meter}),
		Lambda: lambdasvc.New(lambdasvc.Config{Meter: meter}, &lambdasvc.GoRuntime{}),
		SQS:    sqs.New(sqs.Config{Meter: meter}),
		Dynamo: dynamo.New(dynamo.Config{Meter: meter}),
		Meter:  meter,
		Net:    netmodel.DefaultLambdaNet(),
	}
}

// NewSimulated returns a DES deployment on kernel k with the calibrated AWS
// latency, bandwidth, throttling and pricing models — the performance layer.
func NewSimulated(k *simclock.Kernel, seed int64) *Deployment {
	meter := pricing.NewCostMeter()
	return &Deployment{
		S3:            s3.New(s3.DefaultAWSConfig(meter, seed)),
		Lambda:        lambdasvc.New(lambdasvc.DefaultAWSConfig(meter, seed+1), lambdasvc.SimRuntime{K: k}),
		SQS:           sqs.New(sqs.DefaultAWSConfig(meter, seed+2)),
		Dynamo:        dynamo.New(dynamo.DefaultAWSConfig(meter, seed+3)),
		Meter:         meter,
		Net:           netmodel.DefaultLambdaNet(),
		Deterministic: true,
		Shaped:        true,
	}
}

// NewChaos returns a DES deployment like NewSimulated whose services all
// consult the given fault plan: S3 transient 500s/timeouts/SlowDown storms,
// SQS duplicate and delayed delivery, DynamoDB throttling, Lambda crashes
// and cold-start spikes, every one scheduled deterministically by the plan's
// seed. One injector is shared by all services — operation streams are
// independent per operation name, so the schedules compose without
// interference. A plan with no rules yields a nil injector, making the
// deployment trace-identical to NewSimulated(k, seed).
func NewChaos(k *simclock.Kernel, seed int64, plan faults.Plan) *Deployment {
	meter := pricing.NewCostMeter()
	inj := faults.NewInjector(plan)
	s3cfg := s3.DefaultAWSConfig(meter, seed)
	s3cfg.Faults = inj
	lcfg := lambdasvc.DefaultAWSConfig(meter, seed+1)
	lcfg.Faults = inj
	qcfg := sqs.DefaultAWSConfig(meter, seed+2)
	qcfg.Faults = inj
	dcfg := dynamo.DefaultAWSConfig(meter, seed+3)
	dcfg.Faults = inj
	return &Deployment{
		S3:            s3.New(s3cfg),
		Lambda:        lambdasvc.New(lcfg, lambdasvc.SimRuntime{K: k}),
		SQS:           sqs.New(qcfg),
		Dynamo:        dynamo.New(dcfg),
		Meter:         meter,
		Net:           netmodel.DefaultLambdaNet(),
		Deterministic: true,
		Shaped:        true,
		Faults:        inj,
	}
}

// Config tunes a Lambada installation.
type Config struct {
	// FunctionName is the worker Lambda function name.
	FunctionName string
	// WorkerMemoryMiB is M of §5.2 (default 1792: exactly one vCPU).
	WorkerMemoryMiB int
	// FilesPerWorker is F of §5.2; a scan fleet runs ceil(len(files)/F)
	// workers.
	FilesPerWorker int
	// TreeInvoke enables the two-level invocation tree (§4.2).
	TreeInvoke bool
	// Region selects the Table 1 invocation profile.
	Region netmodel.Region
	// Scan configures the S3 scan operator.
	Scan scan.Config
	// PipelineParallelism is the number of morsel-pipeline goroutines the
	// worker-side engine fans scan chunks out to (0 = GOMAXPROCS, 1 =
	// serial). Forced to 1 in deterministic (DES) deployments, where
	// worker code must not spawn goroutines.
	PipelineParallelism int
	// Timeout is the worker function timeout.
	Timeout time.Duration
	// ResultQueue names the SQS result queue.
	ResultQueue string
	// PollInterval is the driver's result poll interval.
	PollInterval time.Duration
	// MaxWait bounds result collection.
	MaxWait time.Duration
	// Speculate configures driver-side straggler mitigation.
	Speculate SpeculateConfig
	// RetryBudget caps substrate retries per scope — the driver side of one
	// query, or one worker invocation. 0 means the default of 256; negative
	// means unlimited. A worker that exhausts its budget posts a typed
	// retryable failure seal so the scheduler can re-invoke the fragment.
	RetryBudget int
	// EpochTTL bounds the lifetime of epoch fence items in the staging
	// table; the driver lazily sweeps expired items when acquiring epochs.
	// Must comfortably exceed the function timeout so a live query's fence
	// is never collected. 0 means 24 hours of virtual time.
	EpochTTL time.Duration
	// EpochGCInterval is the number of epoch acquisitions between lazy
	// sweeps of expired fence items (0 = every 64th).
	EpochGCInterval int
	// MaxInFlight, when positive, caps the deployment-wide number of
	// concurrently running worker containers across every query of the
	// session, single-scope and staged alike: the scheduler takes one token
	// from a shared admission controller (invoke.Admission) per worker it
	// launches, launching directly and never blocking, and each settling
	// container releases one. It replaces per-query DriverPacing as the
	// launch governor — the shared pacer splits the region's Invoke API
	// rate across concurrent queries. 0 keeps per-query pacing (and the
	// invocation tree) with no concurrency cap.
	MaxInFlight int
	// ResultCacheEntries, when positive, enables the session's result
	// cache: staged query results are memoized by (plan fingerprint, table
	// files) and invalidated explicitly (InvalidateTable) or implicitly by
	// UploadTable. 0 disables caching.
	ResultCacheEntries int

	// testWorkerDelay, when set by tests, stalls the given invocation
	// before it executes its fragment — the straggler-injection seam.
	// Stage is 0 for single-scope queries; attempt 0 is the original
	// invocation, higher attempts are speculation backups.
	testWorkerDelay func(stage, workerID, attempt int) time.Duration
}

// DefaultConfig mirrors the paper's default setup (M=1792, F=1).
func DefaultConfig() Config {
	return Config{
		FunctionName:    "lambada-worker",
		WorkerMemoryMiB: 1792,
		FilesPerWorker:  1,
		TreeInvoke:      true,
		Region:          netmodel.RegionEU,
		Scan:            scan.DefaultConfig(),
		Timeout:         5 * time.Minute,
		ResultQueue:     "lambada-results",
		PollInterval:    25 * time.Millisecond,
		MaxWait:         10 * time.Minute,
	}
}

// Driver is the classic single-user façade over a Session: one resident
// session plus one bound environment, serving one query at a time. All the
// machinery lives in Session — Driver only forwards, so every pre-session
// caller and test keeps working unchanged while multi-query users hold the
// Session directly.
type Driver struct {
	sess *Session
	env  simenv.Env
}

// retryScope bundles the retry machinery of one execution scope — the
// driver side of one query, or one worker invocation: a policy with
// deterministic backoff jitter, the scope's retry budget, and a stats
// counter surfaced in the Report.
type retryScope struct {
	policy resilience.Policy
	budget *resilience.Budget
	stats  *resilience.Stats
}

// New returns a driver using env as its local clock.
func New(dep *Deployment, env simenv.Env, cfg Config) *Driver {
	return &Driver{sess: NewSession(dep, cfg), env: env}
}

// Config returns the driver's configuration.
func (d *Driver) Config() Config { return d.sess.cfg }

// Deployment returns the bound deployment.
func (d *Driver) Deployment() *Deployment { return d.sess.dep }

// Session returns the resident session the driver fronts.
func (d *Driver) Session() *Session { return d.sess }

// Install registers the worker function and creates the result queue —
// the installation step of the usage model (Figure 2), done once.
func (d *Driver) Install() error { return d.sess.Install() }

// workerPayload is the invocation parameter blob (§3.3).
type workerPayload struct {
	QueryID     string            `json:"queryId"`
	WorkerID    int               `json:"workerId"`
	NumWorkers  int               `json:"numWorkers"`
	Plan        json.RawMessage   `json:"plan"`
	Table       string            `json:"table"`
	Files       []scan.FileRef    `json:"files"`
	ResultQueue string            `json:"resultQueue"`
	Children    []json.RawMessage `json:"children,omitempty"`
	// StageID and StageSpec mark a stage fragment of a stage-decomposed
	// plan (internal/stageplan): the worker collects its exchange inputs,
	// executes the fragment, and either publishes its partitioned output
	// or posts it to the result queue.
	StageID   int             `json:"stageId,omitempty"`
	StageSpec json.RawMessage `json:"stageSpec,omitempty"`
	// Regroup marks a plan-less regroup invocation of a multi-level stage
	// boundary (driver/regroup.go): the worker merges one partition group
	// across all senders and republishes it per partition, posting a bare
	// seal when done.
	Regroup json.RawMessage `json:"regroup,omitempty"`
	// Attempt versions this invocation: 0 is the original, higher numbers
	// are speculation backups for the same (stage, worker). Stage boundary
	// publishes are namespaced by it so backups never race originals.
	Attempt int `json:"attempt,omitempty"`
	// Epoch is the query's fence token (staged runs): the driver durably
	// increments it in DynamoDB at query start, every artifact the worker
	// produces — seal message, boundary prefix — carries it, and artifacts
	// of an older epoch are discarded. A zombie worker of an aborted
	// identically-numbered run is structurally unable to satisfy this run's
	// barriers, no matter when it wakes. 0 for single-scope queries.
	Epoch int `json:"epoch,omitempty"`
	// Broadcast carries small driver-side tables (lpq blobs by table name)
	// referenced by join plans.
	Broadcast map[string][]byte `json:"broadcast,omitempty"`
}

// resultMsg is the worker → driver completion message.
type resultMsg struct {
	QueryID  string `json:"queryId"`
	WorkerID int    `json:"workerId"`
	Stage    int    `json:"stage,omitempty"`   // stage fragment's stage ID
	Attempt  int    `json:"attempt,omitempty"` // invocation attempt number
	Epoch    int    `json:"epoch,omitempty"`   // query epoch fence token
	Err      string `json:"err,omitempty"`
	// Retryable marks a failure as transient — the worker died of exhausted
	// retries or an injected crash-class error, not of a plan or data error
	// — so the scheduler may re-invoke the fragment instead of failing the
	// query.
	Retryable    bool   `json:"retryable,omitempty"`
	Retries      int64  `json:"retries,omitempty"` // substrate retries spent by this invocation
	Chunk        []byte `json:"chunk,omitempty"`   // lpq blob
	ProcessingNs int64  `json:"processingNs"`      // plan execution time
	Cold         bool   `json:"cold"`
}

// workerHandler is the event handler running inside every serverless
// worker: invoke children (tree), execute the plan fragment, post to SQS.
// It hangs off the Session, not a query: workers of every concurrent query
// share one installed function, and everything query-specific travels in
// the payload (queryID, epoch, result queue).
func (d *Session) workerHandler(ctx *lambdasvc.Ctx, payload []byte) error {
	var p workerPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return err
	}
	// Per-invocation retry scope: every substrate call the worker makes
	// draws on this one budget, so a fault storm cannot keep a single
	// invocation retrying forever — it degrades into a retryable failure
	// seal the scheduler can act on.
	ws := d.newRetryScope(int64(p.StageID)<<32 + int64(p.WorkerID)<<8 + int64(p.Attempt) + 1)

	// Identify this invocation's span: queryID/stage/attempt tags turn the
	// flat invocation list into the query → stage → attempt taxonomy.
	if tr := d.dep.Trace; tr.Enabled() && ctx.Span != 0 {
		tr.SetTag(ctx.Span, "query", p.QueryID)
		if p.StageID != 0 || len(p.StageSpec) > 0 {
			tr.SetTag(ctx.Span, "stage", strconv.Itoa(p.StageID))
		}
		if p.Attempt > 0 {
			tr.SetTag(ctx.Span, "attempt", strconv.Itoa(p.Attempt))
		}
	}

	// First-generation workers launch their children before their own
	// fragment (§4.2).
	if len(p.Children) > 0 {
		pacing := invoke.WorkerPacing(d.cfg.Region)
		for _, ch := range p.Children {
			var cp workerPayload
			if err := json.Unmarshal(ch, &cp); err != nil {
				d.postResult(ctx.Env, ws, p, fmt.Errorf("decoding child payload: %w", err), nil, 0, ctx.Cold)
				return err
			}
			body := ch
			if err := ws.policy.Do(ctx.Env, "lambda.Invoke", func() error {
				return d.dep.Lambda.Invoke(ctx.Env, d.cfg.FunctionName, body, lambdasvc.InvokeOptions{WorkerID: cp.WorkerID, Pipelined: true, Span: ctx.Span})
			}); err != nil {
				d.postResult(ctx.Env, ws, p, fmt.Errorf("invoking child %d: %w", cp.WorkerID, err), nil, 0, ctx.Cold)
				return err
			}
			ctx.Env.Sleep(pacing.Gap())
		}
	}

	if d.cfg.testWorkerDelay != nil {
		ctx.Env.Sleep(d.cfg.testWorkerDelay(p.StageID, p.WorkerID, p.Attempt))
	}
	start := ctx.Env.Now()
	chunk, err := d.executeFragment(ctx, ws, &p)
	processing := ctx.Env.Now() - start
	return d.postResult(ctx.Env, ws, p, err, chunk, processing, ctx.Cold)
}

// ErrWorkerOOM is reported when a worker's working set exceeds its memory.
var ErrWorkerOOM = errors.New("worker out of memory")

// memGuardSource wraps a scan source and fails with an out-of-memory error
// when a materialized chunk exceeds the execution-engine budget. §3.3: the
// handler "starts the execution engine ... with a memory limit slightly
// lower than that of the serverless function such that it can report
// out-of-memory situations ... rather than dying silently".
type memGuardSource struct {
	engine.Source
	budget int64
}

func (m memGuardSource) Scan(proj []string, preds []lpq.Predicate, yield func(*columnar.Chunk) error) error {
	return m.Source.Scan(proj, preds, m.guard(yield))
}

// ScanFiltered forwards late-materialized scans to the wrapped source
// (memGuardSource must re-implement the interface: embedding engine.Source
// hides whether the dynamic value is filterable). When it isn't, fall back
// to a full scan filtered here so pipelines that skipped their filter stage
// still see filtered chunks.
func (m memGuardSource) ScanFiltered(proj []string, preds []lpq.Predicate, filter engine.Expr, yield func(*columnar.Chunk) error) error {
	if fs, ok := m.Source.(engine.FilterableSource); ok {
		return fs.ScanFiltered(proj, preds, filter, m.guard(yield))
	}
	var sel []int
	return m.Source.Scan(proj, preds, m.guard(func(c *columnar.Chunk) error {
		var err error
		sel, err = engine.FilterSelection(c, filter, sel)
		if err != nil {
			return err
		}
		if len(sel) == 0 {
			return nil
		}
		if len(sel) == c.NumRows() {
			return yield(c)
		}
		return yield(c.Gather(sel))
	}))
}

// guard wraps yield with the working-set budget check.
func (m memGuardSource) guard(yield func(*columnar.Chunk) error) func(*columnar.Chunk) error {
	return func(c *columnar.Chunk) error {
		// The scan pipeline holds the decoded chunk plus the compressed
		// download buffers and the double-buffered next group; budget 3×.
		if need := 3 * c.ByteSize(); need > m.budget {
			return fmt.Errorf("%w: chunk working set %d MiB exceeds engine budget %d MiB",
				ErrWorkerOOM, need>>20, m.budget>>20)
		}
		return yield(c)
	}
}

var _ engine.FilterableSource = memGuardSource{}

// engineMemoryBudget returns the execution-engine limit: the function's
// memory minus a fixed headroom for the handler and runtime.
func engineMemoryBudget(memoryMiB int) int64 {
	const headroomMiB = 192
	b := int64(memoryMiB-headroomMiB) << 20
	if b < 1<<20 {
		b = 1 << 20
	}
	return b
}

func (d *Session) executeFragment(ctx *lambdasvc.Ctx, ws *retryScope, p *workerPayload) (*columnar.Chunk, error) {
	opts := []s3.ClientOption{s3.WithBudget(ws.budget)}
	if d.dep.Shaped {
		opts = append(opts, s3.WithShaper(d.dep.Net, ctx.MemoryMiB))
	}
	client := s3.NewClient(d.dep.S3, ctx.Env, opts...)
	defer func() { ws.stats.Add(client.Retries()) }()
	// Regroup invocations carry no plan fragment at all: the whole task is
	// the intermediate round of a multi-level boundary.
	if len(p.Regroup) > 0 {
		return nil, d.runRegroup(ctx, ws, client, p)
	}
	plan, err := engine.UnmarshalPlan(p.Plan)
	if err != nil {
		return nil, err
	}
	cat := engine.Catalog{}
	if len(p.Files) > 0 {
		src := scan.New(client, d.cfg.Scan, p.Files...)
		cat[p.Table] = memGuardSource{Source: src, budget: engineMemoryBudget(ctx.MemoryMiB)}
	}
	for name, blob := range p.Broadcast {
		r, err := lpq.OpenReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			return nil, fmt.Errorf("decoding broadcast table %q: %w", name, err)
		}
		c, err := r.ReadAll()
		if err != nil {
			return nil, err
		}
		cat[name] = engine.NewMemSource(c.Schema, c)
	}
	// Stage fragments collect their exchange inputs before executing and
	// publish their partitioned output after (driver/stage.go).
	if len(p.StageSpec) > 0 {
		return d.runStageFragment(ctx, ws, client, p, plan, cat)
	}
	// Every fragment — joins included — runs on the pipeline-graph
	// scheduler; parallelism 1 (forced in DES deployments) executes the
	// whole graph inline without spawning goroutines.
	return engine.ExecuteParallel(plan, cat, engine.ParallelConfig{Pipelines: d.cfg.PipelineParallelism})
}

func (d *Session) postResult(env simenv.Env, ws *retryScope, p workerPayload, execErr error, chunk *columnar.Chunk, processing time.Duration, cold bool) error {
	msg := resultMsg{QueryID: p.QueryID, WorkerID: p.WorkerID, Stage: p.StageID, Attempt: p.Attempt, Epoch: p.Epoch, ProcessingNs: processing.Nanoseconds(), Cold: cold}
	if execErr != nil {
		msg.Err = execErr.Error()
		// A retryable failure is a typed failure seal: the scheduler may
		// re-invoke the fragment through the attempt machinery instead of
		// failing the query.
		msg.Retryable = resilience.Retryable(execErr)
	} else if chunk != nil {
		blob, err := lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk)
		if err != nil {
			msg.Err = err.Error()
		} else {
			msg.Chunk = blob
		}
	}
	msg.Retries = ws.stats.Retries()
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	// The completion message is the worker's last word — losing it to a
	// transient SQS error would strand the whole query, so it retries too.
	// It goes to the payload's queue, not a session-wide one: each query
	// collects on its own result queue, so concurrent queries never read
	// (and destroy) each other's completions.
	return ws.policy.Do(env, "sqs.Send", func() error {
		return d.dep.SQS.Send(env, p.ResultQueue, body)
	})
}
