package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestNilTracerIsInert: every method on a nil *Tracer is a safe no-op, so
// call sites thread tracers unconditionally.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	id := tr.StartSpan(KindQuery, "q", 0, 0)
	if id != 0 {
		t.Fatalf("nil StartSpan = %d, want 0", id)
	}
	tr.EndSpan(id, time.Second)
	tr.SetStart(id, time.Second)
	tr.SetTag(id, "k", "v")
	tr.AddCost(id, Cost{S3Get: 1})
	tr.Bind("env", 1)
	tr.Pop("env")
	tr.ChargeTo("env", Cost{S3Get: 1})
	tr.TagTo("env", "k", "v")
	tr.Release("env", time.Second)
	if tr.Current("env") != 0 {
		t.Fatal("nil Current != 0")
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil Spans = %v, want nil", got)
	}
	if _, ok := tr.Span(1); ok {
		t.Fatal("nil Span(1) found a span")
	}
}

// TestChargeToInnermostBoundSpan: Bind/Pop maintain a per-environment
// stack, charges land on the innermost span exactly once, and charges
// with no bound span are dropped.
func TestChargeToInnermostBoundSpan(t *testing.T) {
	tr := New()
	env := "driver"
	outer := tr.StartSpan(KindQuery, "q1", 0, 0)
	inner := tr.StartSpan(KindOp, "s3.get", outer, time.Second)

	tr.ChargeTo(env, Cost{S3Get: 7}) // unbound: dropped
	tr.Bind(env, outer)
	tr.ChargeTo(env, Cost{S3Get: 1})
	tr.Bind(env, inner)
	tr.ChargeTo(env, Cost{S3Get: 2, S3ReadBytes: 100})
	tr.Pop(env)
	tr.ChargeTo(env, Cost{SQSRequests: 3})
	tr.Release(env, 2*time.Second)
	tr.ChargeTo(env, Cost{S3Put: 9}) // released: dropped

	o, _ := tr.Span(outer)
	i, _ := tr.Span(inner)
	if o.Cost != (Cost{S3Get: 1, SQSRequests: 3}) {
		t.Errorf("outer cost %+v", o.Cost)
	}
	if i.Cost != (Cost{S3Get: 2, S3ReadBytes: 100}) {
		t.Errorf("inner cost %+v", i.Cost)
	}
	if total := TotalCost(tr.Spans()); total != (Cost{S3Get: 3, S3ReadBytes: 100, SQSRequests: 3}) {
		t.Errorf("TotalCost %+v", total)
	}
	// Release back-fills End on spans still in the stack; inner was
	// popped first, so only outer is closed.
	if o.End != 2*time.Second {
		t.Errorf("Release did not back-fill outer end: %v", o.End)
	}
	if i.End != 0 {
		t.Errorf("popped inner span was back-filled: %v", i.End)
	}
}

// TestPopForgetsEmptyEnv: popping an environment's last span drops the
// environment, so short-lived environments (fan-out tasks, one per
// request) leave no entry behind in a long-lived tracer.
func TestPopForgetsEmptyEnv(t *testing.T) {
	tr := New()
	root := tr.StartSpan(KindQuery, "q1", 0, 0)
	for i := 0; i < 100; i++ {
		env := new(int)
		tr.Bind(env, root)
		tr.Bind(env, root)
		tr.Pop(env)
		if tr.Current(env) != root {
			t.Fatal("Pop removed more than the innermost span")
		}
		tr.Pop(env)
	}
	if n := len(tr.binds); n != 0 {
		t.Errorf("%d environments still tracked after every stack was popped empty", n)
	}
}

// TestSubtreeCost sums a span and its descendants only.
func TestSubtreeCost(t *testing.T) {
	tr := New()
	root := tr.StartSpan(KindQuery, "q", 0, 0)
	st := tr.StartSpan(KindStage, "stage-1", root, 0)
	inv := tr.StartSpan(KindInvoke, "w0", st, 0)
	other := tr.StartSpan(KindStage, "stage-2", root, 0)
	tr.AddCost(root, Cost{SQSRequests: 1})
	tr.AddCost(st, Cost{S3Get: 2})
	tr.AddCost(inv, Cost{S3Get: 4, LambdaMiBNs: 1000})
	tr.AddCost(other, Cost{S3Put: 8})

	if c := SubtreeCost(tr.Spans(), st); c != (Cost{S3Get: 6, LambdaMiBNs: 1000}) {
		t.Errorf("stage subtree %+v", c)
	}
	if c := SubtreeCost(tr.Spans(), root); c != (Cost{S3Get: 6, S3Put: 8, SQSRequests: 1, LambdaMiBNs: 1000}) {
		t.Errorf("root subtree %+v", c)
	}
}

// TestCriticalPathTilesRoot: segments are chronological, non-overlapping,
// and their durations sum exactly to the root span's duration; uncovered
// intervals are attributed to the root.
func TestCriticalPathTilesRoot(t *testing.T) {
	tr := New()
	mk := func(kind Kind, name string, parent SpanID, from, to time.Duration) SpanID {
		id := tr.StartSpan(kind, name, parent, from)
		tr.EndSpan(id, to)
		return id
	}
	root := mk(KindQuery, "q", 0, 0, 10*time.Second)
	st := mk(KindStage, "s1", root, 1*time.Second, 7*time.Second)
	mk(KindInvoke, "w0", st, 2*time.Second, 5*time.Second) // deepest mid-stage
	mk(KindInvoke, "w1", st, 3*time.Second, 6*time.Second) // latest-reaching invoke
	mk(KindOp, "tail", root, 8*time.Second, 9*time.Second) // gap before and after

	segs := CriticalPath(tr.Spans(), root)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	var sum time.Duration
	cursor := time.Duration(0)
	for i, s := range segs {
		if s.From != cursor {
			t.Fatalf("segment %d starts at %v, cursor %v (not a tiling)", i, s.From, cursor)
		}
		if s.To < s.From {
			t.Fatalf("segment %d inverted: %+v", i, s)
		}
		cursor = s.To
		sum += s.Duration()
	}
	if cursor != 10*time.Second || sum != 10*time.Second {
		t.Fatalf("tiling ends at %v, durations sum %v, want 10s both", cursor, sum)
	}
	// The root owns the [0,1s), [7s,8s) and [9s,10s) gaps.
	rootTime := time.Duration(0)
	for _, s := range segs {
		if s.Span == root {
			rootTime += s.Duration()
		}
	}
	if rootTime != 3*time.Second {
		t.Errorf("root-attributed gap time %v, want 3s", rootTime)
	}
}

// TestChromeExportDeterministicAndValid: two identical span sets export
// byte-identically, and the export passes the validator with the right
// event count.
func TestChromeExportDeterministicAndValid(t *testing.T) {
	build := func() *Tracer {
		tr := New()
		q := tr.StartSpan(KindQuery, "q1", 0, 0)
		inv := tr.StartSpan(KindInvoke, "worker-0", q, time.Millisecond)
		op := tr.StartSpan(KindOp, "s3.get", inv, 2*time.Millisecond)
		tr.SetTag(inv, "worker", "0")
		tr.SetTag(inv, "cold", "true")
		tr.AddCost(op, Cost{S3Get: 1, S3ReadBytes: 4096})
		tr.EndSpan(op, 3*time.Millisecond)
		tr.EndSpan(inv, 4*time.Millisecond)
		tr.EndSpan(q, 5*time.Millisecond)
		return tr
	}
	var a, b bytes.Buffer
	if err := ExportChromeTrace(&a, build().Spans()); err != nil {
		t.Fatal(err)
	}
	if err := ExportChromeTrace(&b, build().Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical span sets exported differently")
	}
	n, err := ValidateChromeTrace(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("validated %d events, want 3", n)
	}
}

// TestValidateChromeTraceRejections covers the validator's failure modes.
func TestValidateChromeTraceRejections(t *testing.T) {
	cases := map[string]string{
		"not json":       `{`,
		"no traceEvents": `{"displayTimeUnit":"ms"}`,
		"missing ph":     `{"traceEvents":[{"name":"x","ts":0,"pid":1,"tid":1}]}`,
		"missing dur":    `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`,
		"negative dur":   `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if n, err := ValidateChromeTrace([]byte(`{"traceEvents":[]}`)); err != nil || n != 0 {
		t.Errorf("empty traceEvents: n=%d err=%v", n, err)
	}
}
