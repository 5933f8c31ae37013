package driver

import (
	"encoding/json"
	"sort"
	"time"
)

// SpeculateConfig enables driver-side straggler mitigation: once a quorum
// of workers has reported, any worker still missing after a multiple of the
// median response time is re-invoked ("backup requests"). The first result
// per worker wins; duplicates are discarded. This is the driver-side
// counterpart of the aggressive-timeouts-and-retries theme of §5.5
// (footnote 17): tail latencies propagate, so the driver cuts the tail.
//
// The same policy drives both single-scope fleets and the event-driven
// stage scheduler: each stage of a staged query arms independently over its
// own fleet, and backups are launched as a new attempt whose exchange
// boundary names cannot race the original's (first committed attempt wins,
// the stale-drain collector sweeps the losers).
type SpeculateConfig struct {
	// Enabled turns speculation on.
	Enabled bool
	// QuorumFraction is the fraction of workers that must report before
	// speculation arms (default 0.75).
	QuorumFraction float64
	// LatencyFactor multiplies the median response time to form the
	// straggler deadline (default 3).
	LatencyFactor float64
	// MaxRetries bounds re-invocations per worker (default 1). Stage plans
	// may override it per stage through stageplan.Stage.MaxAttempts.
	MaxRetries int
}

// DefaultSpeculateConfig returns the standard backup-request policy.
func DefaultSpeculateConfig() SpeculateConfig {
	return SpeculateConfig{Enabled: true, QuorumFraction: 0.75, LatencyFactor: 3, MaxRetries: 1}
}

// stragglerPolicy applies SpeculateConfig to one fleet (a single-scope
// query's workers, or one stage's workers): it records response times as
// seals arrive and, once a quorum reported and the median-based deadline
// passed, nominates the missing workers for a backup attempt.
type stragglerPolicy struct {
	cfg      SpeculateConfig
	workers  int
	launchAt time.Duration
	// responses holds the per-response latencies, kept SORTED by record's
	// binary-search insert: the median read in stragglers is O(1) instead of
	// a re-sort per event-loop pass — at 4k workers the driver's loop calls
	// stragglers once per message batch per stage, and the old copy+sort
	// made each of those calls O(n²).
	responses []time.Duration
	// attempts counts the backup attempts issued per worker; attempts[w]
	// is also the attempt number of the latest invocation of w.
	attempts map[int]int
	// cap is the no-progress liveness bound: once armed (capFrom >= 0) and
	// cap of virtual time passed without ANY response arriving (capFrom
	// resets on every response), the missing workers are re-invoked even
	// though the quorum/median policy never armed — covering both the
	// all-stragglers case (quorum arithmetic needs at least one response)
	// and a sub-quorum stall (responses stopped before quorum). A fleet
	// making progress keeps deferring the cap, so on-pace workers are
	// never mass-re-invoked.
	cap     time.Duration
	capFrom time.Duration
}

func newStragglerPolicy(cfg SpeculateConfig, workers int, launchAt time.Duration) stragglerPolicy {
	return stragglerPolicy{cfg: cfg, workers: workers, launchAt: launchAt, attempts: map[int]int{}, capFrom: -1}
}

// armCap installs the liveness cap with its clock starting at from. The
// staged scheduler arms it when the stage becomes runnable — its producers
// sealed — not at its (possibly pipelined, hence much earlier) launch, so
// consumers legitimately idling on the ready barrier are not re-invoked.
func (sp *stragglerPolicy) armCap(cap, from time.Duration) {
	sp.cap = cap
	sp.capFrom = from
}

// capArmed reports whether the liveness cap has started ticking.
func (sp *stragglerPolicy) capArmed() bool { return sp.capFrom >= 0 && sp.cap > 0 }

// record notes one worker's response at virtual time now, inserting its
// latency into the sorted responses slice. Progress defers the liveness
// cap: its window restarts at the latest response.
func (sp *stragglerPolicy) record(now time.Duration) {
	d := now - sp.launchAt
	i := sort.Search(len(sp.responses), func(i int) bool { return sp.responses[i] > d })
	sp.responses = append(sp.responses, 0)
	copy(sp.responses[i+1:], sp.responses[i:])
	sp.responses[i] = d
	if sp.capFrom >= 0 {
		sp.capFrom = now
	}
}

// maxRetries resolves the per-worker backup budget, with override taking
// precedence when positive (override counts total attempts, so budget =
// override - 1).
func (sp *stragglerPolicy) maxRetries(override int) int {
	if override > 0 {
		return override - 1
	}
	return sp.cfg.MaxRetries
}

// stragglers returns the workers to re-invoke at virtual time now, bumping
// their attempt counters: no response yet and retry budget (maxAttempts,
// 0 = config default) left, provided either the quorum/median deadline
// passed or the all-stragglers liveness cap expired.
func (sp *stragglerPolicy) stragglers(now time.Duration, reported func(w int) bool, maxAttempts int) []int {
	if !sp.cfg.Enabled || len(sp.responses) >= sp.workers {
		return nil
	}
	quorum := int(sp.cfg.QuorumFraction * float64(sp.workers))
	if quorum < 1 {
		quorum = 1
	}
	armed := false
	if len(sp.responses) >= quorum {
		median := sp.responses[len(sp.responses)/2] // responses stay sorted
		deadline := sp.launchAt + time.Duration(float64(median)*sp.cfg.LatencyFactor)
		armed = now > deadline
	}
	if !armed {
		// Liveness cap: no response has arrived for cap of virtual time
		// since the stage became runnable (or since the last response —
		// record defers the window on every arrival, so a fleet making any
		// progress is never mass-re-invoked; the quorum/median machinery
		// handles it once quorum is reached).
		if !sp.capArmed() || now <= sp.capFrom+sp.cap {
			return nil
		}
		sp.capFrom = now // the re-invoked attempt gets a fresh cap window
	}
	retries := sp.maxRetries(maxAttempts)
	var out []int
	for w := 0; w < sp.workers; w++ {
		if reported(w) || sp.attempts[w] >= retries {
			continue
		}
		sp.attempts[w]++
		out = append(out, w)
	}
	return out
}

// reattempt rewrites a worker payload with the given attempt number — the
// backup invocation's body. Attempt numbers namespace the worker's exchange
// publishes and travel back in its seal message.
func reattempt(payload []byte, attempt int) ([]byte, error) {
	var p workerPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		return nil, err
	}
	p.Attempt = attempt
	return json.Marshal(p)
}
