package invoke

import (
	"sync"
	"time"

	"lambada/internal/awssim/simenv"
)

// Admission is the deployment-wide invocation budget of a resident session:
// every query running on the session takes a token from one shared pool
// for each worker it launches, so a thousand-worker fleet cannot starve an
// interactive query of invocation capacity — admission replaces the old
// per-query DriverPacing as the launch governor.
//
// The driver's scheduler launches every fleet — single-scope or staged —
// one direct invocation at a time under admission, each after a
// non-blocking TryAcquire: whatever the pool denies waits in the
// scheduler's launch cursor while its event loop keeps consuming seal
// messages. Every container releases exactly one token when it settles,
// crash paths included (the Lambda service's completion hook fires wherever
// its running gauge decrements). In-flight therefore never undercounts
// actual running containers, and Peak() ≤ Capacity bounds the deployment's
// true peak concurrency in runs without recovery traffic (see
// AcquireOverflow).
//
// Release happens on the worker side of the simulation, not in the driver's
// event loop, so containers free capacity on their own. Launch order within
// a query is topological (producers before consumers), so tokens held by
// workers parked on a ready barrier always have their producers fully
// launched and making progress.
//
// The controller also owns the shared invocation-rate pacer: the Invoke API
// rate (Pacing, Table 1) is a deployment-wide resource, so concurrent
// queries split it instead of each assuming the full rate.
type Admission struct {
	mu       sync.Mutex
	capacity int
	inFlight int
	peak     int
	blocked  uint64
	overflow uint64
	acquired uint64

	pacing   Pacing
	nextSlot time.Duration

	topic string
}

// NewAdmission returns a controller with the given concurrent-invocation
// capacity (<= 0 means unlimited: TryAcquire always succeeds, Pace still
// paces). topic namespaces the release broadcast.
func NewAdmission(capacity int, pacing Pacing, topic string) *Admission {
	return &Admission{capacity: capacity, pacing: pacing, topic: "admission/" + topic}
}

// Capacity returns the configured token capacity (<= 0 = unlimited).
func (a *Admission) Capacity() int {
	if a == nil {
		return 0
	}
	return a.capacity
}

// TryAcquire takes one token if one is available right now and reports
// whether it did. It never blocks: a driver blocked on admission could not
// consume the seal messages that token-holding consumers parked on a ready
// barrier are waiting for. Nil and unlimited controllers always succeed.
func (a *Admission) TryAcquire() bool {
	if a == nil || a.capacity <= 0 {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.inFlight >= a.capacity {
		a.blocked++
		return false
	}
	a.inFlight++
	a.acquired++
	if a.inFlight > a.peak {
		a.peak = a.inFlight
	}
	return true
}

// AcquireOverflow takes one token immediately, past capacity if need be.
// Recovery traffic — failure relaunches and speculative backups — must not
// queue behind the very tokens held by workers waiting on the crashed
// producer, so it is admitted unconditionally and counted in Overflow;
// Peak() ≤ Capacity is therefore guaranteed only for fault-free runs.
func (a *Admission) AcquireOverflow(env simenv.Env) {
	if a == nil || a.capacity <= 0 {
		return
	}
	a.mu.Lock()
	a.inFlight++
	a.acquired++
	if a.inFlight > a.capacity {
		a.overflow++
	}
	if a.inFlight > a.peak {
		a.peak = a.inFlight
	}
	a.mu.Unlock()
}

// Release returns one token. The Lambda service's completion hook calls it
// as each container settles; the broadcast on the controller's topic wakes
// wildcard waiters, such as the driver's traced quiesce, at that instant.
func (a *Admission) Release(env simenv.Env) {
	if a == nil || a.capacity <= 0 {
		return
	}
	a.mu.Lock()
	if a.inFlight > 0 {
		a.inFlight--
	}
	a.mu.Unlock()
	simenv.BroadcastKey(env, a.topic)
}

// Pace charges one Invoke API slot against the shared rate pacer, sleeping
// the caller until its slot: concurrent queries interleave at the
// deployment's effective invocation rate instead of each assuming the full
// rate. Nil receivers are no-ops (per-query pacing applies then).
func (a *Admission) Pace(env simenv.Env) {
	if a == nil {
		return
	}
	gap := a.pacing.Gap()
	a.mu.Lock()
	now := env.Now()
	if a.nextSlot < now {
		a.nextSlot = now
	}
	wait := a.nextSlot - now
	a.nextSlot += gap
	a.mu.Unlock()
	if wait > 0 {
		env.Sleep(wait)
	}
}

// InFlight returns the tokens currently held.
func (a *Admission) InFlight() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inFlight
}

// Peak returns the highest token count ever held simultaneously — with
// exact accounting this bounds the deployment's true peak container
// concurrency from above.
func (a *Admission) Peak() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}

// Blocked counts TryAcquire calls denied for lack of capacity.
func (a *Admission) Blocked() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.blocked
}

// Overflow counts tokens taken past capacity by AcquireOverflow (recovery
// traffic). Zero in fault-free, speculation-free runs.
func (a *Admission) Overflow() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.overflow
}

// Acquired returns the cumulative tokens ever acquired (one per container
// launched through admission).
func (a *Admission) Acquired() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acquired
}
