package s3

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"lambada/internal/awssim/simenv"
	"lambada/internal/netmodel"
	"lambada/internal/obs"
	"lambada/internal/resilience"
)

// The organic SlowDown rejection is as retryable as any injected fault;
// register it so every layer classifying through resilience agrees.
func init() { resilience.RegisterRetryable(ErrSlowDown) }

// lockedRand is a seeded rand.Rand safe for concurrent use in the
// functional layer (the DES layer is single-threaded anyway).
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (l *lockedRand) sample(d netmodel.Dist) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return d.Sample(l.rng)
}

func (l *lockedRand) float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// Client is one worker's (or the driver's) view of S3. It owns the
// per-function ingress bandwidth shaper, so concurrent range reads by the
// same worker share its token bucket, reproducing the burst behaviour of
// Figure 6.
type Client struct {
	svc    *Service
	env    simenv.Env
	shaper *netmodel.TokenBucket
	net    netmodel.LambdaNet
	memMiB int

	// RetryBaseDelay and MaxRetries configure SlowDown/NoSuchKey retry
	// behaviour ("aggressive timeouts and retries", §5.5 footnote 17).
	RetryBaseDelay time.Duration
	MaxRetries     int
	// budget, when set, bounds the total retries this client may spend
	// across all operations (per-invocation scope).
	budget *resilience.Budget

	*counters

	// trace wraps every public operation in an op span (inherited from the
	// service's tracer at construction; nil = off). Op spans are created
	// only inside an already-bound span context (a query or invocation),
	// so setup traffic stays untraced.
	trace *obs.Tracer
}

// counters are a client's byte and retry totals plus the lock that also
// guards its shaper. Fan's task clients share their parent's, so requests
// issued in a fan-out count toward the client that fanned out.
type counters struct {
	mu         sync.Mutex
	bytesRead  int64
	bytesWrite int64
	retries    int64
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithShaper installs the per-function bandwidth model for a worker with
// the given memory size.
func WithShaper(net netmodel.LambdaNet, memoryMiB int) ClientOption {
	return func(c *Client) {
		c.net = net
		c.memMiB = memoryMiB
		c.shaper = net.NewBucket(memoryMiB)
	}
}

// WithRetry overrides retry configuration.
func WithRetry(base time.Duration, max int) ClientOption {
	return func(c *Client) {
		c.RetryBaseDelay = base
		c.MaxRetries = max
	}
}

// WithBudget installs a shared retry budget: once spent, further retryable
// errors surface as *resilience.ExhaustedError instead of being retried.
func WithBudget(b *resilience.Budget) ClientOption {
	return func(c *Client) { c.budget = b }
}

// NewClient returns a client bound to svc and env.
func NewClient(svc *Service, env simenv.Env, opts ...ClientOption) *Client {
	c := &Client{
		svc:            svc,
		env:            env,
		RetryBaseDelay: 25 * time.Millisecond,
		MaxRetries:     10,
		counters:       &counters{},
		trace:          svc.trace,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// opSpan opens an op span under the span currently bound to the client's
// environment and binds it, so service-side charges land on it. Returns 0
// — and records nothing — when tracing is off or no span is bound.
func (c *Client) opSpan(name string) obs.SpanID {
	tr := c.trace
	if tr == nil {
		return 0
	}
	parent := tr.Current(c.env)
	if parent == 0 {
		return 0
	}
	sp := tr.StartSpan(obs.KindOp, name, parent, c.env.Now())
	tr.Bind(c.env, sp)
	return sp
}

// endOp closes an op span, tagging the retries it consumed and its
// outcome. Runs in a defer, so a worker crash mid-operation still closes
// the span at the crash instant.
func (c *Client) endOp(sp obs.SpanID, retriesBefore int64, err *error) {
	if sp == 0 {
		return
	}
	tr := c.trace
	if n := c.Retries() - retriesBefore; n > 0 {
		tr.SetTag(sp, "retries", strconv.FormatInt(n, 10))
	}
	if err != nil && *err != nil {
		if resilience.IsExhausted(*err) {
			tr.SetTag(sp, "outcome", "exhausted")
		} else {
			tr.SetTag(sp, "outcome", "error")
		}
	}
	tr.Pop(c.env)
	tr.EndSpan(sp, c.env.Now())
}

// Env returns the client's environment.
func (c *Client) Env() simenv.Env { return c.env }

// Service returns the underlying service.
func (c *Client) Service() *Service { return c.svc }

// BytesRead returns the total payload bytes downloaded by this client.
func (c *Client) BytesRead() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesRead
}

// BytesWritten returns the total payload bytes uploaded by this client.
func (c *Client) BytesWritten() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesWrite
}

// Retries returns how many SlowDown retries the client performed.
func (c *Client) Retries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// chargeTransfer sleeps for the shaped transfer time of n bytes using conns
// parallel connections. The shaper is guarded because the functional layer
// issues concurrent reads (column-chunk parallelism, double buffering) from
// one client.
func (c *Client) chargeTransfer(n int64, conns int) {
	if c.shaper == nil || n <= 0 {
		return
	}
	rate := c.net.RequestRate(conns, c.memMiB)
	c.mu.Lock()
	d := c.shaper.Transfer(c.env.Now(), n, rate)
	c.mu.Unlock()
	c.env.Sleep(d)
}

// retry runs op, backing off exponentially (with deterministic jitter) on
// every retryable error — SlowDown plus the injected transient faults of
// the chaos layer. Fatal errors pass through; exhausting MaxRetries or the
// retry budget returns a typed *resilience.ExhaustedError (its Unwrap keeps
// errors.Is working on the underlying sentinel). The backoff mechanics and
// jitter draws are unchanged from the original SlowDown-only retry, so
// fault-free runs replay byte-identically.
func (c *Client) retry(op func() error) error {
	delay := c.RetryBaseDelay
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || resilience.Classify(err) != resilience.ClassRetryable {
			return err
		}
		if attempt >= c.MaxRetries {
			return &resilience.ExhaustedError{Op: "s3", Attempts: attempt + 1, Last: err}
		}
		if !c.budget.Take() {
			return &resilience.ExhaustedError{Op: "s3", Attempts: attempt + 1, BudgetSpent: true, Last: err}
		}
		c.mu.Lock()
		c.retries++
		c.mu.Unlock()
		jitter := time.Duration(c.svc.rng.float64() * float64(delay))
		c.env.Sleep(delay + jitter)
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}

// Put uploads data (shaped as one connection egress; AWS does not shape
// egress to S3 differently, so we reuse the ingress model symmetrically).
func (c *Client) Put(bucket, key string, data []byte) (err error) {
	defer c.endOp(c.opSpan("s3.put"), c.Retries(), &err)
	err = c.retry(func() error { return c.svc.Put(c.env, bucket, key, data) })
	if err == nil {
		c.chargeTransfer(int64(len(data)), 1)
		c.mu.Lock()
		c.bytesWrite += int64(len(data))
		c.mu.Unlock()
	}
	return err
}

// PutSynthetic uploads a size-only object, charging transfer time.
func (c *Client) PutSynthetic(bucket, key string, size int64) (err error) {
	defer c.endOp(c.opSpan("s3.put"), c.Retries(), &err)
	err = c.retry(func() error { return c.svc.PutSynthetic(c.env, bucket, key, size) })
	if err == nil {
		c.chargeTransfer(size, 1)
		c.mu.Lock()
		c.bytesWrite += size
		c.mu.Unlock()
	}
	return err
}

// Get downloads a whole object using conns parallel connections.
func (c *Client) Get(bucket, key string, conns int) (_ []byte, _ int64, err error) {
	defer c.endOp(c.opSpan("s3.get"), c.Retries(), &err)
	var data []byte
	var size int64
	err = c.retry(func() error {
		var e error
		data, size, e = c.svc.Get(c.env, bucket, key)
		return e
	})
	if err != nil {
		return nil, 0, err
	}
	c.chargeTransfer(size, conns)
	c.mu.Lock()
	c.bytesRead += size
	c.mu.Unlock()
	return data, size, nil
}

// GetRange downloads object bytes [off, off+n) using conns connections.
func (c *Client) GetRange(bucket, key string, off, n int64, conns int) (_ []byte, _ int64, err error) {
	defer c.endOp(c.opSpan("s3.getrange"), c.Retries(), &err)
	var data []byte
	var got int64
	err = c.retry(func() error {
		var e error
		data, got, e = c.svc.GetRange(c.env, bucket, key, off, n)
		return e
	})
	if err != nil {
		return nil, 0, err
	}
	c.chargeTransfer(got, conns)
	c.mu.Lock()
	c.bytesRead += got
	c.mu.Unlock()
	return data, got, nil
}

// Head returns the object size.
func (c *Client) Head(bucket, key string) (_ int64, err error) {
	defer c.endOp(c.opSpan("s3.head"), c.Retries(), &err)
	var size int64
	err = c.retry(func() error {
		var e error
		size, e = c.svc.Head(c.env, bucket, key)
		return e
	})
	return size, err
}

// List returns entries under prefix.
func (c *Client) List(bucket, prefix string) (_ []ListEntry, err error) {
	defer c.endOp(c.opSpan("s3.list"), c.Retries(), &err)
	var out []ListEntry
	err = c.retry(func() error {
		var e error
		out, e = c.svc.List(c.env, bucket, prefix)
		return e
	})
	return out, err
}

// Delete removes an object.
func (c *Client) Delete(bucket, key string) (err error) {
	defer c.endOp(c.opSpan("s3.delete"), c.Retries(), &err)
	err = c.retry(func() error { return c.svc.Delete(c.env, bucket, key) })
	return err
}

// DeleteBatch removes many objects through the batched DeleteObjects API —
// one round trip per 1000 keys.
func (c *Client) DeleteBatch(bucket string, keys []string) (err error) {
	if len(keys) == 0 {
		return nil
	}
	defer c.endOp(c.opSpan("s3.deletebatch"), c.Retries(), &err)
	err = c.retry(func() error { return c.svc.DeleteBatch(c.env, bucket, keys) })
	return err
}

// WaitFor polls until bucket/key exists (the receiver side of the exchange:
// "the receiver must repeat reading a file until that file exists", §4.4.1),
// up to maxWait of virtual time. It returns the object size.
func (c *Client) WaitFor(bucket, key string, poll, maxWait time.Duration) (int64, error) {
	deadline := c.env.Now() + maxWait
	for {
		size, err := c.Head(bucket, key)
		if err == nil {
			return size, nil
		}
		if !errors.Is(err, ErrNoSuchKey) {
			return 0, err
		}
		if c.env.Now()+poll > deadline {
			return 0, err
		}
		c.env.Sleep(poll)
	}
}
