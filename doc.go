// Package lambada is a reproduction of "Lambada: Interactive Data Analytics
// on Cold Data using Serverless Cloud Infrastructure" (Müller, Marroquín,
// Alonso; SIGMOD 2020): a purely serverless query processing system — a
// local driver, thousands of FaaS workers, and communication exclusively
// through shared serverless storage — together with the simulated AWS
// substrate (S3, Lambda, SQS, DynamoDB on a deterministic discrete-event
// kernel) that the paper's evaluation is reproduced on.
//
// # Concurrency levels
//
// Each worker exploits concurrency at five levels — the paper's four scan
// levels (§4.3.2, Figure 8) plus a morsel-driven execution layer on top:
//
//	(5) file/pipeline parallelism: a bounded worker pool scans multiple lpq
//	    files concurrently (scan.Config.ParallelFiles) and the engine runs
//	    every plan on a pipeline-graph scheduler at N morsel workers
//	    (engine.ExecuteParallel, driver.Config.PipelineParallelism);
//	(4) metadata of all files prefetched eagerly: scan.Source.WarmOpen
//	    opens every footer 32 at a time in both clocks (on DES child
//	    processes under the kernel), and scan.Config.MetaPrefetch overlaps
//	    a scan's remaining footers with its data in a dedicated thread;
//	(3) row groups double-buffered: download overlaps decompression;
//	(2) column chunks of a row group fetched in parallel;
//	(1) multiple chunked requests per read, only as a fallback, since
//	    extra requests cost money (Figure 7).
//
// # Price-aware scan layer
//
// S3 bills a scan on two axes — a fixed price per GET request and a linear
// price per byte — and the lpq v2 format plus the scan read path spend both
// deliberately (Figure 7's request-size trade-off, applied to dollars
// rather than bandwidth).
//
// An LPQ2 file extends every column chunk's footer entry with a distinct-
// count estimate and a page index: chunks longer than WriterOptions.PageRows
// are split into pages, each encoded and compressed independently, with
// per-page row counts, byte extents and min/max bounds. The index is stored
// compactly — lengths as uvarints with offsets reconstructed cumulatively,
// Int64/Bool bounds zigzag-encoded, Float64 bounds raw — because every
// reader downloads the footer before anything else. Page bounds are kept
// only when they can actually prune: if the average page value range
// exceeds half the chunk's range (an unclustered column), the writer drops
// the page stats and the pages carry extents alone. LPQ1 files remain fully
// readable; the footer read itself fetches a speculative tail sized to real
// footers (lpq.FooterGuess) so opening metadata never re-downloads a small
// object end to end.
//
// Scans with a residual filter run in two phases (late materialization):
// phase one fetches only the filter columns of the pages that survive
// zone-map pruning and evaluates the exact predicate; phase two fetches the
// payload columns only for pages where rows actually survived, then gathers
// the surviving rows. Each phase fetches one covering byte range per column
// — first kept page to last kept page — so per-column requests never exceed
// one and billed bytes never exceed the chunk. Across columns, ranges are
// batched through s3fs.File.ReadRanges, which coalesces them into spans
// when the gap is small (scan.Config.CoalesceGapBytes, default 128 KiB)
// and the accumulated hole bytes stay under 1/8 of the span — trading one
// fixed-price request against a bounded byte overhead, never an unbounded
// one. The same page index feeds planning: stage fan-out uses the
// pruning-aware lpq.EstimateRows instead of raw footer row counts, so
// selective queries launch fewer scan workers. scan.Stats and the driver
// Report expose the billed request and byte counters the cost-guard tests
// and BenchmarkStagedSelectiveScan assert on.
//
// # Pipeline-graph scheduler
//
// The engine has exactly one executor. A planner pass decomposes any plan
// into a DAG of pipelines — streamable scan/filter/project/join-probe
// chains terminated by breaker sinks (aggregate, sort, limit, collect) —
// with dependency edges: a join's build pipeline completes and its hash
// table seals before the probe pipeline starts. The scheduler runs ready
// pipelines as their dependencies finish, fanning each pipeline's morsels
// out to N workers; engine.Execute is the same scheduler at N = 1, running
// the whole graph inline without spawning a single goroutine (the form DES
// deployments require). There is no serial fallback path: joins, nested
// breakers and arbitrary operator chains all run morsel-parallel.
//
// Hash joins build a sealed-then-shared table in one of three key modes
// (mirroring the aggregation kernel's group-addressing matrix):
//
//	dense   single int64 key spanning a narrow range: direct-index CSR
//	int64   single wide int64 key: open addressing, partition-parallel build
//	string  multi-column keys: encoded-key map, partition-parallel build
//
// Float and bool join keys are rejected at planning time with
// engine.ErrJoinKey. Probes gather matches through selection vectors in
// (probe row, build row) order, so results are independent of worker count.
//
// Everything above level 1 is deterministic in its results: parallel scans
// deliver chunks in serial order, aggregation folds per-chunk partials in
// sequence order, collect sinks reassemble morsels in sequence order, and
// the limit sink takes the first N rows in sequence order — outputs are
// byte-identical to serial execution. In discrete-event-simulated
// deployments the scan and engine levels are forced off (worker code must
// not spawn goroutines); the bandwidth shaper models their timing effect
// instead. Footer warming is the exception: its fan-out runs on DES child
// processes (s3.Client.Fan), so it overlaps under the kernel too.
//
// # Stage planner and exchange data flow
//
// Queries whose shapes exceed one distribution scope — joins with two
// large sides, high-cardinality group-bys — run through the stage planner
// (internal/stageplan): the optimized plan is decomposed into a DAG of
// stages connected by exchange boundaries over S3 (§4.4).
//
//	scan stage      reads its file subset of one base table, applies the
//	                pushed-down filters/projections, and hash-partitions
//	                its output rows on the downstream join keys into P
//	                partition files (write-combined: one object per worker
//	                with cumulative offsets encoded in its name)
//	join stage      P workers; worker p collects partition p of both
//	                sides, builds the hash table on the build side and
//	                probes with the other — no worker sees a whole table
//	agg split       grouped aggregations split into a partial aggregate in
//	                the row-producing stage, a repartition on the group
//	                keys, and a final-merge stage owning each group whole
//
// The planner chooses broadcast-vs-shuffle per join from the lpq footer
// row counts: a genuinely small build side ships inside worker payloads as
// before, everything else shuffles. Boundary fan-in autotunes from the
// same row counts when unset (stageplan.AutoRowsPerPartition rows per
// partition, capped at stageplan.MaxAutoPartitions — raise the ceiling per
// query through driver.StageConfig.MaxAutoPartitions / -max-partitions
// when driving multi-thousand-worker fleets).
//
// # Multi-level exchange boundaries
//
// A single-round boundary with S senders and P receivers costs O(S·P) S3
// requests — the dominant bill at scale (§4.4's central observation). Each
// boundary therefore carries an exchange.Variant resolved independently per
// edge: stageplan.ChooseVariant prices every candidate with the exact
// analytic request model (exchange.Variant.Requests — puts, gets and lists
// as closed-form functions of S, P and the shard-bucket count) and keeps
// single-round for narrow edges while sending wide ones through the
// multi-level protocol (§4.4.2). Multi-level inserts one intermediate
// regroup round: senders write their P partition files grouped into
// G = exchange.Groups(P) ≈ √P combined objects, a synthetic regroup fleet of
// G workers (one per group, scheduled as a first-class stage with the same
// launch, seal, speculation and epoch machinery) merges each group's
// fragments into one object per group laying receiver slices contiguously,
// and each receiver range-reads exactly its slice from the G merged objects
// — O(S·G + P·G) requests instead of O(S·P). Attempt versioning carries
// through both rounds: a regroup worker merges each sender's first
// committed round-1 attempt, and its own output is attempt-versioned and
// committed the same way, so first-committed-attempt semantics and the
// epoch fence hold unchanged; the fence/speculation/chaos suites re-run
// over forced
// multi-level boundaries, and TestStagedQ12ScaleSmoke pins the billed
// request counts of a 1k-worker staged q12 to the model integer-exactly.
// -exchange-levels forces a round count (1 or 2) for ablations, and the
// profile output reports each boundary's resolved variant.
//
// Invocation itself is the other O(S·P) hazard: every stage's fleet
// launches through the invoke.TreeFanout protocol (first workers re-invoke
// the rest, §4.2), so driver-side launch work per stage is O(fanout) while
// the event loop stays O(1) per completion event at 4k workers.
//
// The driver runs the DAG on an event-driven stage scheduler (pending →
// launched → sealed) rather than in lock-step dependency waves. Every
// stage's payloads are computable up front, so under pipelined launch
// (StageConfig.Pipelined, the default) all eager stages are invoked the
// moment the query starts: consumer cold starts and invocation pacing
// overlap upstream execution, and the DynamoDB ready marker — written when
// the driver has seen every producer seal through the SQS result queue —
// gates each worker's collect instead of its launch. Wave-gated launch
// remains available for comparison (BenchmarkStagedWaves). This loop is the
// driver's only result collector: a single-scope query (RunPlan) runs on it
// as one stage with no dependencies and no fence — epoch 0, no ready
// marker, no purge or sweep — so launch, admission, failure-seal relaunch,
// speculation and the worker-order merge are the same code for both.
//
// Straggler speculation (§5.5's aggressive-timeouts-and-retries theme)
// applies per stage: once a quorum of a stage's workers sealed and a
// straggler outlives a multiple of the median response time, the scheduler
// re-invokes it as a new attempt. Exchange boundary names are versioned by
// attempt (s<stage>/<round>/p<part>/a<attempt>-w<writer>, with a
// per-attempt commit marker under s<stage>/<round>/commit/;
// write-combining's single Put commits implicitly), so a backup never
// races the original's files: receivers take each writer's first committed
// attempt, and since fragments are deterministic, every attempt's files are
// byte-identical — whichever attempt wins, the rows collected are the
// same. The stale-drain collector (exchange.Sweep) purges
// the boundary namespace before a query (an identically-numbered aborted
// run on a fresh driver must not leak into its retry) and after it (loser
// attempts and winner files alike).
//
// Stage fragments are ordinary engine plans executed on the pipeline-graph
// scheduler, and every boundary preserves row order (partition rows in
// sender order, senders in ascending ID order, driver merges in worker
// order), so staged execution is fully deterministic — pipelined launch,
// speculation and all — and, for order-insensitive aggregates (COUNT,
// integer SUM, MIN/MAX) under an ORDER BY, byte-identical to single-node
// execution at any worker/partition/attempt count; floating-point SUM/AVG
// agree to last-ulp rounding, as the split changes the summation order.
//
// # Query-epoch fence
//
// The serverless model has no cluster membership, so nothing tells the
// driver that workers of an earlier run still exist. A fresh driver on the
// same deployment restarts query numbering, and while the pre-launch
// purge/sweep clears an aborted identically-numbered run's at-rest debris,
// one of its workers still in flight could post a seal — or publish
// boundary files — after that purge, under the same query ID. The epoch
// fence closes this structurally. Each staged query's lifecycle:
//
//	acquire   the driver atomically increments the query's epoch item in
//	          the <fn>-stages DynamoDB table (conditional Put; the durable
//	          counter itself is the uniqueness source — no wall clock, no
//	          randomness, so DES runs stay deterministic)
//	stamp     the epoch rides in every worker payload, every seal message,
//	          every ready-marker key (q<N>/e<E>/s<stage>) and the whole
//	          boundary namespace
//	          (<fn>/q<N>/e<E>/s<stage>/<round>/p<part>/a<attempt>-w<writer>)
//	discard   the scheduler drops seal messages whose epoch is not the
//	          current one; consumers wait on this epoch's ready markers
//	          and collect under this epoch's prefix, so an older epoch's
//	          artifacts are invisible rather than merely improbable
//	sweep     purge/sweep still run — as hygiene: sweeps cover the query's
//	          whole prefix across epochs, reclaiming zombie debris
//	          whenever it lands
//
// A zombie worker of an aborted epoch can therefore wake at any time,
// publish anywhere in its own e<E-1> namespace and post any seal it likes:
// the retry at epoch E never reads it (stage_fence_test.go injects exactly
// this and checks the retry stays byte-identical).
//
// Barriers are notify-driven rather than poll-quantized, and the completion
// broadcast is keyed: every substrate write broadcasts a topic naming what
// became visible ("s3/<key>", "dynamo/<table>/<key>", "sqs/<queue>"), and
// waiters park on the prefix they actually await — waitSealed on its seal
// marker's key, the exchange's commit waits on the stage's commit prefix,
// result collectors on the result queue's topic (simclock.Proc.WaitNotifyKey
// under DES, simenv.WaitNotifyKey for functional-mode goroutines). A waiter
// wakes at the exact virtual instant of the matching write — removing the
// up-to-one-poll residual from modeled latencies — while a hundred-sender
// shuffle no longer wakes every parked barrier in the simulation on each
// Put (Report.Wakeups counts the delivered wakeups; the keyed-vs-unkeyed
// regression test pins the reduction). The timed poll remains the fallback
// for waiters whose write never comes. Commit
// discovery is batched: one List of the stage's commit namespace per shard
// bucket per round, cached across rounds, and exchange.Sweep deletes
// through the batched DeleteObjects API. Liveness holes in speculation are
// covered by the per-stage MaxStageWait cap: a runnable stage that goes
// that long without any worker response (the window restarts on every
// response) has its missing workers re-invoked as the next attempt — the
// no-response and sub-quorum stalls quorum arithmetic can never arm for.
//
// # Resident query service
//
// The one-shot driver is a thin veneer over a resident session. A
// driver.Session binds to a deployment once — installs the worker function,
// owns the admission controller and the result cache — and then runs many
// queries, sequentially or concurrently, against that warm state; Driver
// itself is now Session plus a default environment, so the single-query API
// is unchanged. Each query runs on its own per-query scheduler with three
// isolation planes:
//
//	results   every query gets its own SQS result queue (<base>-q<N>),
//	          created at query start and deleted at close — a zombie seal
//	          from a finished query lands in a deleted queue, not in a
//	          sibling's mailbox
//	names     the epoch fence already namespaces S3 boundaries, ready
//	          markers and seal messages per (query, epoch); concurrent
//	          queries never share a prefix
//	budgets   retry budgets and fault scopes stay per-query
//
// Admission replaces per-query invocation pacing with a deployment-wide
// budget (invoke.Admission, Config.MaxInFlight): every invocation across
// all live queries takes a slot, released by the Lambda service's
// completion hook. The scheduler launches every fleet — single-scope or
// staged — one non-blocking slot at a time: a stage launches as many
// workers as there are free slots and the remainder as slots free up, so
// N queries make progress under one cap instead of deadlocking on
// whole-fleet acquisition; recovery and speculation re-invokes use an
// overflow class that may exceed the cap rather than wait behind the very
// queries they are unsticking. The interleaved-session test pins the
// meter: the in-flight peak never exceeds the cap, and K = 4 concurrent
// staged queries on one session produce byte-identical results to the
// same queries run one-shot, deterministically across seeded DES runs on
// both exchange variants.
//
// Repeated queries skip the fleet entirely: the session caches final
// result chunks keyed by (stageplan.Fingerprint of the logical plan,
// sorted table file lists), so a hit is a driver-local decode with zero
// invocations and zero new billed requests. Invalidation is explicit
// (Session.InvalidateTable / InvalidateAll) and automatic on UploadTable,
// which overwrites objects under the same FileRefs.
//
// internal/service wraps a session in an HTTP/JSON endpoint and
// cmd/lambada-serve runs it: POST /query takes a named query or raw SQL
// with :name parameters, and every response carries the rows, a per-query
// profile (workers, stages, cold starts, speculated attempts, billed $,
// S3 requests/bytes, cache hit) and — for queries with a calibrated QaaS
// spec — the modeled Athena/BigQuery price/latency comparison, the paper's
// §5.4 table as a per-request field. A Runner abstraction picks the
// execution substrate: GoRunner serves each request inline on a real-time
// local deployment; DESRunner batches concurrent HTTP requests inside a
// real-time window into one interleaved virtual-time run on the DES
// kernel, so even the simulated deployment serves concurrent traffic.
// `make serve-smoke` boots both modes in CI and drives the
// fresh/cached/invalidate sequence end to end.
//
// # Failure model and resilience
//
// The simulated substrate injects failures deterministically: every service
// consults a seeded internal/awssim/faults.Injector once per operation, and
// a JSON-serializable FaultPlan prescribes what goes wrong where — S3
// transient 500s, request timeouts and SlowDown storms, SQS at-least-once
// duplicate delivery (the copy surfaces after a configured delay) and
// receive timeouts, DynamoDB throttling (rejected before any mutation, so
// conditional writes stay safe to retry), Lambda crash-on-invoke,
// crash-mid-run and cold-start spikes. Decisions are pure hashes of
// (seed, rule, op, per-op counter), so a plan replays exactly under the DES
// kernel: the chaos suite asserts a staged query under a seeded storm is
// byte-identical to its fault-free run, twice.
//
// One policy layer absorbs those faults everywhere: internal/resilience
// classifies errors retryable-vs-fatal (a registry the services feed, e.g.
// S3 SlowDown), backs off with decorrelated jitter drawn from the same
// deterministic hash (virtual-time-safe — waits go through simenv), and
// charges every retry against a per-scope budget. The driver holds one
// budget per query, each worker invocation one of its own; retried requests
// are still billed, because the real substrate bills them too.
//
// Degradation is graceful and typed: a worker that exhausts its budget
// posts a failure seal marked retryable, and the stage scheduler re-invokes
// it through the same attempt-versioned machinery speculation uses (the
// failure path works with speculation disabled); a worker that dies without
// posting anything is recovered by the MaxStageWait liveness cap. A query
// that cannot progress fails fast with a structured *StageFailure and the
// usual sweeps reclaim its debris. Epoch fence items themselves are
// garbage-collected lazily: acquireEpoch periodically sweeps epoch/<query>
// items older than EpochTTL of virtual time.
//
// # Observability and tracing
//
// internal/obs is a dependency-free, virtual-clock tracing and metrics
// layer threaded through the whole query lifecycle. A deployment runs
// traced after Deployment.EnableTracing(obs.New()); a nil tracer is the
// no-op tracer, so the instrumented call sites cost nothing when tracing
// is off. Spans form a tree:
//
//	query    one driver query (RunPlan/RunPlanStaged)
//	stage    one stage of the query (a single-scope query has one,
//	         stage-0)
//	invoke   one Lambda worker invocation (an attempt; tags carry worker,
//	         cold, attempt, fault/timeout outcomes, rows and bytes moved)
//	op       one substrate call (s3.getrange, sqs.Receive, dynamo.PutIf,
//	         lambda.start, …; tags carry retries and outcome)
//
// Cost attribution is exact, not sampled: services charge the tracer at
// the same points they charge the pricing meter, each billed request
// lands on the innermost span bound to the acting environment, and
// summing obs.Cost over all spans reproduces the Report's meter deltas
// integer-exactly (request counts, S3 read bytes, Lambda MiB·ns — the
// cost-attribution test pins equality). To make that hold, a traced query
// closes its cost window only after the Lambda service runs no invocation
// — so a traced Report.Duration includes the straggler-loser tail that an
// untraced run's Duration excludes.
//
// Everything downstream is derived from the span tree. Report.Profile
// folds it into an EXPLAIN ANALYZE record: per-stage wall time, attempt
// counts, rows and shuffle bytes, billed cost in exact units and dollars
// (driver.CostUSD), plus the critical path — obs.CriticalPath extracts
// the latency-bounding chain, whose segments tile the query span exactly,
// so their durations sum to the end-to-end virtual latency. The CLI
// prints it under -profile and writes a Chrome trace-event JSON file
// under -trace-out (loadable in Perfetto; validated by cmd/tracecheck and
// `make trace-smoke`). Timestamps come from the virtual clock and span
// IDs from call order, so under the DES kernel two runs of the same
// seeded query export byte-identical traces — the determinism suite
// asserts this with the chaos plan active on both exchange variants.
//
// # Chunk pooling
//
// Hot paths avoid the allocator: columnar.Pool recycles vectors and chunks
// between morsels. The ownership contract is documented on columnar.Pool —
// in short, only the operator that got a chunk from the pool may recycle
// it, and only at a pipeline breaker once the morsel is fully consumed.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for paper-vs-
// measured results. The benchmarks in bench_test.go regenerate every table
// and figure of the paper's evaluation section.
package lambada
