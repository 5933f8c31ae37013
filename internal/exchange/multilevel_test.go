package exchange

import (
	"fmt"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
)

func chunksEqualML(t *testing.T, tag string, a, b *columnar.Chunk) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %d rows vs %d", tag, a.NumRows(), b.NumRows())
	}
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s: %d columns vs %d", tag, len(a.Columns), len(b.Columns))
	}
	for ci := range a.Columns {
		av, bv := a.Columns[ci], b.Columns[ci]
		if av.Type != bv.Type {
			t.Fatalf("%s: column %d type %v vs %v", tag, ci, av.Type, bv.Type)
		}
		for i := 0; i < a.NumRows(); i++ {
			switch av.Type {
			case columnar.Int64:
				if av.Int64s[i] != bv.Int64s[i] {
					t.Fatalf("%s: column %d row %d: %d vs %d", tag, ci, i, av.Int64s[i], bv.Int64s[i])
				}
			case columnar.Float64:
				if av.Float64s[i] != bv.Float64s[i] {
					t.Fatalf("%s: column %d row %d: %v vs %v", tag, ci, i, av.Float64s[i], bv.Float64s[i])
				}
			default:
				if av.Bools[i] != bv.Bools[i] {
					t.Fatalf("%s: column %d row %d: %v vs %v", tag, ci, i, av.Bools[i], bv.Bools[i])
				}
			}
		}
	}
}

// runMultiLevelBoundary publishes all senders, runs the regroup fleet when
// the variant is multi-level, and collects every partition — the fault-free
// sequential execution whose request counts the model predicts exactly.
func runMultiLevelBoundary(t *testing.T, client *s3.Client, opts Options, b Boundary, inputs []*columnar.Chunk, keys []string) []*columnar.Chunk {
	t.Helper()
	for s := 0; s < b.Senders; s++ {
		if err := PublishStage(client, opts, b, s, inputs[s], keys); err != nil {
			t.Fatalf("%v publish sender %d: %v", opts.Variant, s, err)
		}
	}
	if opts.Variant.Levels >= 2 {
		for g := 0; g < Groups(b.Partitions); g++ {
			if err := RegroupStage(client, opts, b, g, keys); err != nil {
				t.Fatalf("%v regroup group %d: %v", opts.Variant, g, err)
			}
		}
	}
	out := make([]*columnar.Chunk, b.Partitions)
	for p := 0; p < b.Partitions; p++ {
		res, err := CollectStage(client, opts, b, p)
		if err != nil {
			t.Fatalf("%v collect partition %d: %v", opts.Variant, p, err)
		}
		out[p] = res
	}
	return out
}

// TestStageBoundaryMultiLevelByteIdentity: at matching (S, P), the chunks a
// multi-level boundary delivers are identical to the single-round boundary's
// — same rows, same (sender, row) order, partition by partition — for both
// write-combining modes, including partitions that end up empty. The grid
// is uneven on purpose (P = 11 → 4 groups of 3, last group of 2).
func TestStageBoundaryMultiLevelByteIdentity(t *testing.T) {
	const senders, parts = 4, 11
	keys := []string{"k", "k2"}
	inputs := make([]*columnar.Chunk, senders)
	for s := 0; s < senders; s++ {
		inputs[s] = stageTestChunk(s*35, 35)
	}
	for _, wc := range []bool{false, true} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		buckets := []string{"xa", "xb", "xc"}
		for _, bk := range buckets {
			svc.MustCreateBucket(bk)
		}
		client := s3.NewClient(svc, env)
		base := Options{
			Buckets: buckets,
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		b := Boundary{Stage: 3, Senders: senders, Partitions: parts}

		single := base
		single.Prefix = "qs"
		single.Variant = Variant{Levels: 1, WriteCombining: wc}
		want := runMultiLevelBoundary(t, client, single, b, inputs, keys)

		multi := base
		multi.Prefix = "qm"
		multi.Variant = Variant{Levels: 2, WriteCombining: wc}
		got := runMultiLevelBoundary(t, client, multi, b, inputs, keys)

		for p := 0; p < parts; p++ {
			chunksEqualML(t, fmt.Sprintf("wc=%v partition %d", wc, p), want[p], got[p])
		}
	}
}

// TestMultiLevelRequestsMatchModel holds the boundary protocol to the
// analytic model integer-exactly: the billed Put/Get/List counts of a
// fault-free publish → regroup → collect run equal Variant.Requests for
// all four stage-reachable variants. S, P and the bucket count are chosen
// so min(S, B) < S and the last group is short — the cases where an
// off-by-one would hide.
func TestMultiLevelRequestsMatchModel(t *testing.T) {
	const senders, parts = 5, 7
	keys := []string{"k"}
	inputs := make([]*columnar.Chunk, senders)
	for s := 0; s < senders; s++ {
		inputs[s] = stageTestChunk(s*25, 25)
	}
	for _, v := range []Variant{{Levels: 1}, {Levels: 1, WriteCombining: true}, {Levels: 2}, {Levels: 2, WriteCombining: true}} {
		env := simenv.NewImmediate()
		svc := s3.New(s3.Config{})
		buckets := []string{"xa", "xb", "xc"}
		for _, bk := range buckets {
			svc.MustCreateBucket(bk)
		}
		client := s3.NewClient(svc, env)
		opts := Options{
			Variant: v,
			Buckets: buckets,
			Prefix:  "q9",
			Poll:    time.Millisecond,
			MaxWait: 10 * time.Second,
		}
		b := Boundary{Stage: 2, Senders: senders, Partitions: parts}

		runMultiLevelBoundary(t, client, opts, b, inputs, keys)

		var got RequestCount
		for _, bk := range buckets {
			st, err := svc.BucketStats(bk)
			if err != nil {
				t.Fatal(err)
			}
			got.Puts += st.Puts
			got.Gets += st.Gets
			got.Lists += st.Lists
		}
		want := v.Requests(senders, parts, len(buckets))
		if got != want {
			t.Errorf("%v: billed %+v, model predicts %+v", v, got, want)
		}
	}
}

// TestStageBoundaryMultiLevelFirstCommittedAttemptWins: attempt versioning
// composes across both rounds. A sender's aborted round-1 attempt (garbage,
// uncommitted) must be invisible; duplicate committed sender attempts and
// duplicate committed regroup attempts must each be collected exactly once
// (lowest attempt wins); a regroup worker's aborted attempt 0 (a garbage
// slot object, never committed) must be invisible next to its committed
// attempt 1. The second case has 13 groups (P = 169), so group 1 — which
// commits only attempt 1 — sits beside group 12, which commits attempt 0:
// group 1's receivers must read attempt 1. Both write-combining modes.
func TestStageBoundaryMultiLevelFirstCommittedAttemptWins(t *testing.T) {
	const senders = 3
	keys := []string{"k"}
	cases := []struct {
		parts int
		// regroup lists the attempts each group commits; default {0}.
		regroup map[int][]int
	}{
		{parts: 6, regroup: map[int][]int{0: {0, 1}, 1: {1}}},
		{parts: 169, regroup: map[int][]int{1: {1}}},
	}
	for _, tc := range cases {
		parts := tc.parts
		for _, wc := range []bool{false, true} {
			env := simenv.NewImmediate()
			svc := s3.New(s3.Config{})
			svc.MustCreateBucket("xa")
			svc.MustCreateBucket("xb")
			client := s3.NewClient(svc, env)
			opts := Options{
				Variant: Variant{Levels: 2, WriteCombining: wc},
				Buckets: []string{"xa", "xb"},
				Prefix:  "q10",
				Poll:    time.Millisecond,
				MaxWait: 10 * time.Second,
			}
			b := Boundary{Stage: 1, Senders: senders, Partitions: parts}

			if !wc {
				// Sender 0's attempt 0 died after one group object, no commit.
				stray := sendersRound(opts, b, Groups(parts)).slotKey(0, 0, 0)
				if err := client.Put(opts.stageBucket(b.Stage, 0), stray, []byte("not an lpq file")); err != nil {
					t.Fatal(err)
				}
			}
			for s := 0; s < senders; s++ {
				in := stageTestChunk(s*20, 20)
				attempts := []int{0}
				if s == 0 {
					attempts = []int{1} // backup after the aborted attempt 0
				} else if s == 1 {
					attempts = []int{0, 1} // both original and backup committed
				}
				for _, a := range attempts {
					ba := b
					ba.Attempt = a
					if err := PublishStage(client, opts, ba, s, in, keys); err != nil {
						t.Fatalf("P=%d wc=%v sender %d attempt %d: %v", parts, wc, s, a, err)
					}
				}
			}
			for g := 0; g < Groups(parts); g++ {
				attempts, ok := tc.regroup[g]
				if !ok {
					attempts = []int{0}
				}
				if r := groupRound(opts, b, g); !wc && attempts[0] > 0 {
					// The group's attempt 0 died after its first slot object.
					stray := r.slotKey(r.s0, g, 0)
					if err := client.Put(opts.stageBucket(b.Stage, r.s0), stray, []byte("not an lpq file")); err != nil {
						t.Fatal(err)
					}
				}
				for _, a := range attempts {
					ba := b
					ba.Attempt = a
					if err := RegroupStage(client, opts, ba, g, keys); err != nil {
						t.Fatalf("P=%d wc=%v regroup %d attempt %d: %v", parts, wc, g, a, err)
					}
				}
			}
			total := 0
			groupRows := make(map[int]int)
			for p := 0; p < parts; p++ {
				res, err := CollectStage(client, opts, b, p)
				if err != nil {
					t.Fatalf("P=%d wc=%v partition %d: %v", parts, wc, p, err)
				}
				kcol := []*columnar.Vector{res.Column("k")}
				for i := 0; i < res.NumRows(); i++ {
					if got := HashPartition(kcol, i, parts); got != p {
						t.Fatalf("P=%d wc=%v: row in partition %d, want %d", parts, wc, p, got)
					}
				}
				total += res.NumRows()
				groupRows[GroupOf(p, parts)] += res.NumRows()
			}
			for g := range tc.regroup {
				if groupRows[g] == 0 {
					t.Fatalf("P=%d wc=%v: group %d collected no rows, so its attempts went unchecked", parts, wc, g)
				}
			}
			if total != senders*20 {
				t.Fatalf("P=%d wc=%v: collected %d rows, want %d (duplicate or stray attempt leaked)", parts, wc, total, senders*20)
			}
		}
	}
}
