package driver

import (
	"encoding/json"
	"fmt"
	"time"

	"lambada/internal/awssim/lambdasvc"
	"lambada/internal/awssim/s3"
	"lambada/internal/exchange"
	"lambada/internal/stageplan"
)

// Synthetic regroup fleets. A multi-level stage boundary (§4.4.2, adapted —
// see the internal/exchange package comment) needs an intermediate round
// between the producing stage's publish and the consuming stage's collect:
// worker g of Groups(P) merges partition group g across all senders and
// re-publishes it as the group's own round. The driver schedules that
// round as its own stage run — a fleet of Groups(P) plan-less workers
// inserted between producer and consumers — so pipelined launch, straggler
// speculation, failure-seal relaunch and the liveness cap all apply to it
// unchanged. Its stage ID lives far above the planner's ID space, keyed off
// the producer, and its seal is what consumers of the boundary gate their
// collects on.

// regroupIDBase offsets synthetic regroup stage IDs above every planner-
// assigned ID (the planner numbers stages densely from 0).
const regroupIDBase = 1_000_000

// regroupStageID names the synthetic regroup stage of one producer's
// boundary.
func regroupStageID(producer int) int { return regroupIDBase + producer }

// regroupSpec is the wire form of one regroup worker's task, shipped in
// workerPayload.Regroup.
type regroupSpec struct {
	QueryID string `json:"queryId"`
	Epoch   int    `json:"epoch"`
	// Stage is the producing stage whose boundary is regrouped; boundary
	// object names stay keyed by it across all rounds.
	Stage      int              `json:"stage"`
	Senders    int              `json:"senders"`
	Partitions int              `json:"partitions"`
	Keys       []string         `json:"keys"`
	Variant    exchange.Variant `json:"variant"`
	Buckets    []string         `json:"buckets"`
	Prefix     string           `json:"prefix"`
	PollNs     int64            `json:"pollNs"`
	MaxWaitNs  int64            `json:"maxWaitNs"`
	SealTable  string           `json:"sealTable"`
}

// regroupRun builds the scheduler entry for one multi-level boundary's
// regroup fleet: Groups(P) attempt-0 payloads, depending on the producing
// stage (the fleet is invoked pipelined like any eager stage and parks on
// the producer's ready marker).
func (d *query) regroupRun(queryID string, epoch int, st *stageplan.Stage, senders int, buckets []string, sealTable string, cfg StageConfig) (*stageRun, error) {
	spec := regroupSpec{
		QueryID:    queryID,
		Epoch:      epoch,
		Stage:      st.ID,
		Senders:    senders,
		Partitions: st.Output.Partitions,
		Keys:       st.Output.Keys,
		Variant:    st.Output.Variant,
		Buckets:    buckets,
		Prefix:     fmt.Sprintf("%s/%s/e%d", d.cfg.FunctionName, queryID, epoch),
		PollNs:     int64(cfg.Exchange.Poll),
		MaxWaitNs:  int64(cfg.Exchange.MaxWait),
		SealTable:  sealTable,
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	id := regroupStageID(st.ID)
	groups := exchange.Groups(st.Output.Partitions)
	payloads := make([]workerPayload, groups)
	for g := 0; g < groups; g++ {
		payloads[g] = workerPayload{
			QueryID:     queryID,
			WorkerID:    g,
			NumWorkers:  groups,
			ResultQueue: d.cfg.ResultQueue,
			StageID:     id,
			Regroup:     specJSON,
			Epoch:       epoch,
		}
	}
	synth := &stageplan.Stage{
		ID:           id,
		DependsOn:    []int{st.ID},
		Eager:        true,
		MaxAttempts:  st.MaxAttempts,
		MaxStageWait: st.MaxStageWait,
	}
	return &stageRun{
		st:         synth,
		payloads:   payloads,
		winners:    map[int]int{},
		boundary:   st.Output.Variant,
		regroup:    true,
		regroupFor: st.ID,
	}, nil
}

// runRegroup is the worker side of a regroup invocation: wait out the
// producing stage's ready marker, then run the intermediate round for this
// worker's group under this invocation's attempt number (regroup attempts
// version their round-2 publishes exactly like sender attempts — first
// committed attempt wins at the receivers). The seal travels back through
// the result queue like any fragment's, with no chunk.
func (d *Session) runRegroup(ctx *lambdasvc.Ctx, ws *retryScope, client *s3.Client, p *workerPayload) error {
	var spec regroupSpec
	if err := json.Unmarshal(p.Regroup, &spec); err != nil {
		return err
	}
	opts := exchange.Options{
		Variant: spec.Variant,
		Buckets: spec.Buckets,
		Prefix:  spec.Prefix,
		Poll:    time.Duration(spec.PollNs),
		MaxWait: time.Duration(spec.MaxWaitNs),
	}
	// One deadline across both barriers — the producer-seal wait and the
	// round-1 commit discovery — mirroring runStageFragment.
	deadline := ctx.Env.Now() + time.Duration(spec.MaxWaitNs)
	ss := stageSpec{SealTable: spec.SealTable, QueryID: spec.QueryID, Epoch: spec.Epoch, PollNs: spec.PollNs}
	if err := d.waitSealed(ctx, ws, &ss, spec.Stage, deadline); err != nil {
		return err
	}
	if rem := deadline - ctx.Env.Now(); rem < opts.MaxWait {
		if rem < 0 {
			rem = 0
		}
		opts.MaxWait = rem
	}
	return exchange.RegroupStage(client, opts, exchange.Boundary{
		Stage:      spec.Stage,
		Attempt:    p.Attempt,
		Senders:    spec.Senders,
		Partitions: spec.Partitions,
	}, p.WorkerID, spec.Keys)
}
