GO ?= go
# bench-json knobs: the PR-numbered output file, the previous PR's file the
# comparability check runs against, and the per-benchmark time.
# BENCH_PR14.json started the num_cpu=2 series; every earlier BENCH file
# ran on one CPU and can never be a baseline of this one.
BENCH_JSON ?= BENCH_PR16.json
BENCH_BASELINE ?= BENCH_PR14.json
BENCHTIME ?= 300ms
# trace-smoke output file (Chrome trace-event JSON; also the CI artifact).
TRACE_OUT ?= trace-smoke.json

.PHONY: build test race race-staged chaos fuzz-smoke scale-smoke bench bench-json bench-quick vet trace-smoke serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-staged runs the staged-execution suites (scheduler, speculation,
# epoch fencing, the shared admission controller, exchange boundaries,
# stage planner, and the DES/notify primitives under them)
# race-instrumented at a fixed GOMAXPROCS so goroutine interleavings
# actually happen on 1-CPU runners. -short skips
# the 1k-worker scale smoke, which runs uninstrumented via scale-smoke.
race-staged:
	GOMAXPROCS=4 $(GO) test -race -short ./internal/driver/ ./internal/invoke/ ./internal/exchange/ ./internal/stageplan/ ./internal/simclock/ ./internal/awssim/dynamo/ ./internal/lpq/ ./internal/scan/

# scale-smoke is the multi-level acceptance point: staged q12 on the DES
# kernel at 512 partitions (a 1k+ worker fleet), checking the resolved
# boundary variants and that the billed S3 requests match the analytic
# request model integer-exactly. Uninstrumented — the run is allocation-
# heavy and race mode would triple its time for no interleaving coverage
# the -short race suites don't already have.
scale-smoke:
	$(GO) test -run 'TestStagedQ12ScaleSmoke|TestMultiLevelRequestsMatchModel' -v -timeout 10m ./internal/driver/ ./internal/exchange/

# chaos runs the deterministic fault-injection suites race-instrumented:
# the injector/resilience unit tests, the per-service fault tests, and the
# driver chaos acceptance tests (staged q12 under a seeded fault storm must
# replay exactly and still produce the fault-free answer; single-scope
# queries must survive duplicate delivery and relaunch failure seals).
chaos:
	GOMAXPROCS=4 $(GO) test -race ./internal/awssim/faults/ ./internal/resilience/
	GOMAXPROCS=4 $(GO) test -race \
		-run 'Chaos|Injected|ClientRetries|ClientBudget|EpochSweep|SingleScope' \
		./internal/awssim/s3/ ./internal/awssim/sqs/ ./internal/awssim/dynamo/ \
		./internal/awssim/lambdasvc/ ./internal/driver/

# fuzz-smoke runs a short, fixed-length fuzz of the stage-boundary commit-
# name parser (names come from S3 List and are untrusted). The checked-in
# corpus under internal/exchange/testdata/fuzz also runs as plain tests.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParseCommitName -fuzztime 5000x ./internal/exchange

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run=NONE ./internal/engine/ ./internal/scan/ ./internal/lpq/ .

# bench-json records the engine/scan/exchange/driver benchmarks as
# machine-readable JSON (ns/op, B/op, allocs/op, custom metrics like the
# staged vms/op) — the repo's perf trajectory, one BENCH_PR<N>.json per PR.
# -require-same-cpu refuses to record when $(BENCH_BASELINE) was measured
# on a different CPU count: such points must never be compared. Non-gating
# in CI.
bench-json:
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) -baseline=$(BENCH_BASELINE) \
		-require-same-cpu -benchtime $(BENCHTIME) \
		./internal/engine ./internal/scan ./internal/lpq ./internal/exchange ./internal/driver \
		./internal/simclock ./internal/s3fs

# bench-quick builds the repository benchmark (perfbench, a module of its
# own) from this checkout and runs every workload at a fifth of the data;
# it exits non-zero on any failed query or wrong result. It is also the
# only build of the Session entry points' out-of-tree caller.
bench-quick:
	bash perfbench/run.sh --quick

# serve-smoke boots the resident query service end to end in both modes
# (goroutine workers in real time; DES virtual time with request batching),
# runs the fresh/cached/invalidate query sequence over HTTP, and exits
# non-zero on any divergence. The CI face of cmd/lambada-serve.
serve-smoke:
	$(GO) run ./cmd/lambada-serve -smoke -sf 0.002 -files 4
	$(GO) run ./cmd/lambada-serve -smoke -mode des -sf 0.002 -files 4

# trace-smoke runs a traced staged query under the DES kernel, exports the
# Chrome trace-event JSON, and validates it against the schema subset the
# obs package emits. The file is uploaded as a CI artifact.
trace-smoke:
	$(GO) run ./cmd/lambada -mode des -exchange -query q12 -sf 0.002 -files 4 \
		-profile -trace-out $(TRACE_OUT)
	$(GO) run ./cmd/tracecheck $(TRACE_OUT)
