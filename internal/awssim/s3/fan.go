package s3

import (
	"sync"
	"sync/atomic"

	"lambada/internal/awssim/simenv"
	"lambada/internal/simclock"
)

// Fan runs fn for every i in [0, n), at most width at a time, and returns
// once all have finished: the way a driver overlaps independent requests
// (footer opens, per-bucket sweeps) instead of issuing them back to back.
//
// Each task gets a client of its own environment that shares c's service,
// retry settings, retry budget, byte and retry counters, shaper and
// tracer, and is bound to c's current span, so the task's op spans and
// billed cost land where c's own requests would. Under the DES kernel (c's
// environment is a *simclock.Proc) every task runs in a child process of
// c's, admitted by a kernel semaphore, so the tasks' latencies overlap in
// virtual time and the run stays deterministic. In real time the tasks run
// on a pool of width goroutines, each task on a distinct environment that
// charges c's.
//
// fn must write only per-index state. A task client must not outlive its
// task. A panicking task does not stop the others; the first panic is
// re-raised in the caller after the join.
func (c *Client) Fan(n, width int, fn func(i int, c *Client)) {
	if n <= 0 {
		return
	}
	if width < 1 {
		width = 1
	}
	if width > n {
		width = n
	}
	span := c.trace.Current(c.env)
	var (
		panicOnce sync.Once
		panicVal  any
		panicked  bool
	)
	run := func(i int, env simenv.Env) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal, panicked = r, true })
			}
		}()
		tc := *c
		tc.env = env
		c.trace.Bind(env, span)
		defer c.trace.Pop(env)
		fn(i, &tc)
	}

	if p, ok := c.env.(*simclock.Proc); ok {
		k := p.Kernel()
		sem := k.NewSemaphore(width)
		wg := k.NewWaitGroup()
		for i := 0; i < n; i++ {
			sem.Acquire(p)
			wg.Add(1)
			k.Go(p.Name()+"/fan", func(cp *simclock.Proc) {
				defer wg.Done()
				defer sem.Release()
				run(i, cp)
			})
		}
		wg.Wait(p)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					run(i, &fanEnv{c.env})
				}
			}()
		}
		wg.Wait()
	}
	if panicked {
		panic(panicVal)
	}
}

// fanEnv is a real-time Fan task's environment: it charges the parent
// environment's clock but has an identity of its own, so the tracer keeps
// a separate span stack per task.
type fanEnv struct{ simenv.Env }
