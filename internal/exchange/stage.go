package exchange

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// Boundary identifies one producing stage's partitioned output inside an
// exchange namespace (Options.Prefix scopes the query).
type Boundary struct {
	// Stage is the producing stage's ID (namespaces the object keys).
	Stage int
	// Attempt versions the publishing sender's file set: backup attempts of
	// a straggling sender write under a fresh attempt namespace instead of
	// racing the original's files. Collectors ignore it — they discover the
	// first committed attempt per sender themselves.
	Attempt int
	// Senders is the producing stage's worker count.
	Senders int
	// Partitions is the consuming stage's worker count.
	Partitions int
}

// GroupSize returns the number of consecutive partitions per group of a
// multi-level boundary with the given partition count: ceil(P / ceil(√P)).
func GroupSize(parts int) int {
	if parts < 1 {
		return 1
	}
	g0 := int(math.Ceil(math.Sqrt(float64(parts))))
	return (parts + g0 - 1) / g0
}

// Groups returns the regroup-round fleet size of a multi-level boundary
// with the given partition count — about √P groups of GroupSize
// consecutive partitions each.
func Groups(parts int) int {
	size := GroupSize(parts)
	if parts < 1 {
		return 1
	}
	return (parts + size - 1) / size
}

// GroupOf returns the group that owns the partition.
func GroupOf(part, parts int) int {
	return part / GroupSize(parts)
}

// groupSpan returns the partition range [lo, hi) of one group.
func groupSpan(group, parts int) (lo, hi int) {
	size := GroupSize(parts)
	lo = group * size
	hi = min(lo+size, parts)
	return lo, hi
}

func (o *Options) stageBucket(stage, id int) string {
	return o.Buckets[(stage*31+id)%len(o.Buckets)]
}

// round is one publish/discover/collect hop of a stage boundary (see the
// package comment): writers [w0, w1) publish one blob per slot [s0, s1)
// under the key namespace <prefix>/s<stage>/<ns>/.
type round struct {
	opts   Options
	stage  int
	ns     string
	w0, w1 int
	s0, s1 int
}

// sendersRound is the round the producing stage's senders write: slots are
// partitions (Levels 1) or partition groups (Levels >= 2).
func sendersRound(opts Options, b Boundary, slots int) round {
	return round{opts: opts, stage: b.Stage, ns: "snd", w0: 0, w1: b.Senders, s0: 0, s1: slots}
}

// groupRound is a regroup worker's output round: its only writer is the
// group, and its slots are the group's partitions, numbered globally so
// basic-layout objects still shard by partition.
func groupRound(opts Options, b Boundary, group int) round {
	lo, hi := groupSpan(group, b.Partitions)
	return round{opts: opts, stage: b.Stage, ns: "g" + strconv.Itoa(group), w0: group, w1: group + 1, s0: lo, s1: hi}
}

// commitDir holds the round's commits: basic-layout markers, or the
// write-combined objects themselves. Readers List and park on it alone.
func (r round) commitDir() string {
	return fmt.Sprintf("%s/s%d/%s/commit/", r.opts.Prefix, r.stage, r.ns)
}

// slotKey names one writer attempt's basic-layout object of one slot.
func (r round) slotKey(slot, writer, attempt int) string {
	return fmt.Sprintf("%s/s%d/%s/p%d/a%d-w%d", r.opts.Prefix, r.stage, r.ns, slot, attempt, writer)
}

// commitKey names a writer attempt's commit: `w<writer>-a<attempt>`, plus
// `-off<o0>_…_<on>` — the cumulative slot offsets — for a write-combined
// object.
func (r round) commitKey(writer, attempt int, offsets []int64) string {
	key := fmt.Appendf(nil, "%sw%d-a%d", r.commitDir(), writer, attempt)
	if offsets != nil {
		key = appendOffsets(append(key, "-off"...), offsets)
	}
	return string(key)
}

// commit is a writer's discovered commit.
type commit struct {
	attempt int
	bucket  string
	key     string
	offsets []int64 // write-combining: slots+1 non-decreasing offsets
}

// parseCommit parses a key listed under commitDir. Keys come from S3 List
// and are untrusted: the writer must belong to the round, the attempt must
// be non-negative, and a write-combined name must carry exactly slots+1
// non-decreasing, non-negative offsets.
func (r round) parseCommit(key string) (writer int, c commit, err error) {
	c.key = key
	base := key[strings.LastIndex(key, "/")+1:]
	rest, ok := strings.CutPrefix(base, "w")
	ws, rest, ok2 := strings.Cut(rest, "-a")
	as, offs, combined := strings.Cut(rest, "-off")
	if !ok || !ok2 || combined != r.opts.Variant.WriteCombining {
		return 0, c, fmt.Errorf("exchange: bad commit name %q", key)
	}
	writer, werr := strconv.Atoi(ws)
	attempt, aerr := strconv.Atoi(as)
	if werr != nil || aerr != nil || writer < r.w0 || writer >= r.w1 || attempt < 0 {
		return 0, c, fmt.Errorf("exchange: bad commit name %q", key)
	}
	c.attempt = attempt
	if !combined {
		return writer, c, nil
	}
	if c.offsets, err = parseOffsets(offs); err != nil {
		return 0, c, fmt.Errorf("exchange: bad offsets in %q: %w", key, err)
	}
	if len(c.offsets) != r.s1-r.s0+1 {
		return 0, c, fmt.Errorf("exchange: %d offsets for %d slots in %q", len(c.offsets), r.s1-r.s0, key)
	}
	for i, off := range c.offsets {
		if off < 0 || i > 0 && off < c.offsets[i-1] {
			return 0, c, fmt.Errorf("exchange: inverted offsets in %q", key)
		}
	}
	return writer, c, nil
}

// publish writes one writer attempt's blobs, one per slot. Basic layout:
// one object per slot, sharded by slot, then the commit marker, sharded by
// writer — a reader that sees the marker knows every slot object exists (S3
// writes are strongly consistent). Write-combining: one object, sharded by
// writer, whose atomic Put is the commit.
func (r round) publish(client *s3.Client, writer, attempt int, blobs [][]byte) error {
	if r.opts.Variant.WriteCombining {
		var combined []byte
		offsets := make([]int64, 0, len(blobs)+1)
		for _, blob := range blobs {
			offsets = append(offsets, int64(len(combined)))
			combined = append(combined, blob...)
		}
		offsets = append(offsets, int64(len(combined)))
		return client.Put(r.opts.stageBucket(r.stage, writer), r.commitKey(writer, attempt, offsets), combined)
	}
	for i, blob := range blobs {
		slot := r.s0 + i
		if err := client.Put(r.opts.stageBucket(r.stage, slot), r.slotKey(slot, writer, attempt), blob); err != nil {
			return err
		}
	}
	return client.Put(r.opts.stageBucket(r.stage, writer), r.commitKey(writer, attempt, nil), nil)
}

// discover waits until every writer committed at least one attempt and
// returns, per writer in ascending order, its lowest committed attempt.
// Each pass Lists the commit namespace once per shard bucket that still
// hosts an undiscovered writer, in order of each bucket's lowest writer — a
// deterministic order matters, since DES readers consume modeled List
// latencies in iteration order. Between passes the reader parks on the
// namespace's completion signal, with the timed poll as the fallback.
func (r round) discover(client *s3.Client) ([]commit, error) {
	type shard struct {
		bucket  string
		writers []int
	}
	var shards []shard
	idx := map[string]int{}
	for w := r.w0; w < r.w1; w++ {
		bk := r.opts.stageBucket(r.stage, w)
		i, ok := idx[bk]
		if !ok {
			i = len(shards)
			idx[bk] = i
			shards = append(shards, shard{bucket: bk})
		}
		shards[i].writers = append(shards[i].writers, w)
	}
	won := make([]commit, r.w1-r.w0)
	for i := range won {
		won[i].attempt = -1
	}
	found := 0
	dir := r.commitDir()
	deadline := client.Env().Now() + r.opts.MaxWait
	for {
		for _, sh := range shards {
			pending := false
			for _, w := range sh.writers {
				pending = pending || won[w-r.w0].attempt < 0
			}
			if !pending {
				continue
			}
			entries, err := client.List(sh.bucket, dir)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				w, c, err := r.parseCommit(e.Key)
				if err != nil {
					return nil, err
				}
				c.bucket = sh.bucket
				cur := &won[w-r.w0]
				if cur.attempt < 0 {
					found++
				}
				if cur.attempt < 0 || c.attempt < cur.attempt {
					*cur = c
				}
			}
		}
		if found == len(won) {
			return won, nil
		}
		if client.Env().Now() >= deadline {
			return nil, fmt.Errorf("exchange: %d/%d writers of stage %d round %s committed after %v",
				found, len(won), r.stage, r.ns, r.opts.MaxWait)
		}
		simenv.WaitNotifyKey(client.Env(), "s3/"+dir, r.opts.Poll)
	}
}

// collect discovers the round's commits and returns the concatenation of
// slot across writers in ascending writer order, each read from the
// writer's lowest committed attempt.
func (r round) collect(client *s3.Client, slot int) (*columnar.Chunk, error) {
	won, err := r.discover(client)
	if err != nil {
		return nil, err
	}
	var out *columnar.Chunk
	for i, c := range won {
		var data []byte
		if c.offsets != nil {
			lo, hi := c.offsets[slot-r.s0], c.offsets[slot-r.s0+1]
			data, _, err = client.GetRange(c.bucket, c.key, lo, hi-lo, 1)
		} else {
			name := r.slotKey(slot, r.w0+i, c.attempt)
			if data, _, err = client.Get(r.opts.stageBucket(r.stage, slot), name, 1); err != nil {
				err = fmt.Errorf("exchange: reading %s: %w", name, err)
			}
		}
		if err != nil {
			return nil, err
		}
		if out, err = appendLpqBlob(out, data); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// HashPartition maps row i of the key columns to its partition in
// [0, parts): the per-column splitmix64 hashes are FNV-combined so composite
// keys distribute independently of any single column.
func HashPartition(keys []*columnar.Vector, i, parts int) int {
	h := uint64(14695981039346656037)
	for _, k := range keys {
		h = (h ^ Hash64(k.Int64s[i])) * 1099511628211
	}
	return int(h % uint64(parts))
}

// partitionRows returns, per partition, the row indices of chunk in row
// order. All key columns must be Int64.
func partitionRows(chunk *columnar.Chunk, keys []string, parts int) ([][]int, error) {
	cols := make([]*columnar.Vector, len(keys))
	for i, k := range keys {
		v := chunk.Column(k)
		if v == nil {
			return nil, fmt.Errorf("exchange: partition key %q missing", k)
		}
		if v.Type != columnar.Int64 {
			return nil, fmt.Errorf("exchange: partition key %q has type %v (only BIGINT keys are hashable)", k, v.Type)
		}
		cols[i] = v
	}
	sel := make([][]int, parts)
	n := chunk.NumRows()
	for i := 0; i < n; i++ {
		p := HashPartition(cols, i, parts)
		sel[p] = append(sel[p], i)
	}
	return sel, nil
}

// encodeRows writes one lpq blob per row selection of chunk.
func encodeRows(chunk *columnar.Chunk, sel [][]int) ([][]byte, error) {
	blobs := make([][]byte, len(sel))
	for i, rows := range sel {
		data, err := lpq.WriteFile(chunk.Schema, lpq.WriterOptions{}, chunk.Gather(rows))
		if err != nil {
			return nil, err
		}
		blobs[i] = data
	}
	return blobs, nil
}

// PublishStage hash-partitions chunk by the key columns and publishes this
// sender's attempt (b.Attempt) into the senders' round: one slot per
// partition, or, for a multi-level boundary, one slot per partition group
// holding the group's partitions in ascending order. Rows keep their order
// within each partition, so re-publishing the same chunk under a new
// attempt produces byte-identical blobs.
func PublishStage(client *s3.Client, opts Options, b Boundary, sender int, chunk *columnar.Chunk, keys []string) error {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return errors.New("exchange: no buckets configured")
	}
	if b.Partitions < 1 {
		return fmt.Errorf("exchange: boundary with %d partitions", b.Partitions)
	}
	sel, err := partitionRows(chunk, keys, b.Partitions)
	if err != nil {
		return err
	}
	if opts.Variant.Levels >= 2 {
		grouped := make([][]int, Groups(b.Partitions))
		for g := range grouped {
			lo, hi := groupSpan(g, b.Partitions)
			for _, rows := range sel[lo:hi] {
				grouped[g] = append(grouped[g], rows...)
			}
		}
		sel = grouped
	}
	blobs, err := encodeRows(chunk, sel)
	if err != nil {
		return err
	}
	return sendersRound(opts, b, len(sel)).publish(client, sender, b.Attempt, blobs)
}

// CollectStage returns partition part: the concatenation of its rows across
// senders in ascending sender order, each sender's lowest committed attempt
// winning — read from the senders' round directly, or, for a multi-level
// boundary, from the round of the partition's regroup group. The schema
// comes from the blobs themselves (lpq files are self-describing), so
// boundaries need no schema plumbing.
func CollectStage(client *s3.Client, opts Options, b Boundary, part int) (*columnar.Chunk, error) {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return nil, errors.New("exchange: no buckets configured")
	}
	if b.Senders < 1 {
		return nil, fmt.Errorf("exchange: stage %d has no senders", b.Stage)
	}
	if opts.Variant.Levels >= 2 {
		return groupRound(opts, b, GroupOf(part, b.Partitions)).collect(client, part)
	}
	return sendersRound(opts, b, b.Partitions).collect(client, part)
}

// RegroupStage runs the intermediate round of a multi-level boundary for
// one group: collect the group from the senders' round, re-partition the
// merged rows by the boundary's hash, and publish the group's round under
// this regroup attempt (b.Attempt — regroup workers are speculated and
// retried like any fragment).
func RegroupStage(client *s3.Client, opts Options, b Boundary, group int, keys []string) error {
	opts = opts.shardPool()
	if len(opts.Buckets) == 0 {
		return errors.New("exchange: no buckets configured")
	}
	if b.Senders < 1 {
		return fmt.Errorf("exchange: stage %d has no senders", b.Stage)
	}
	groups := Groups(b.Partitions)
	if group < 0 || group >= groups {
		return fmt.Errorf("exchange: regroup group %d of %d", group, groups)
	}
	merged, err := sendersRound(opts, b, groups).collect(client, group)
	if err != nil {
		return err
	}
	sel, err := partitionRows(merged, keys, b.Partitions)
	if err != nil {
		return err
	}
	r := groupRound(opts, b, group)
	for p := range sel {
		if (p < r.s0 || p >= r.s1) && len(sel[p]) > 0 {
			return fmt.Errorf("exchange: stage %d group %d holds %d rows hashed to partition %d (boundary shape mismatch)",
				b.Stage, group, len(sel[p]), p)
		}
	}
	blobs, err := encodeRows(merged, sel[r.s0:r.s1])
	if err != nil {
		return err
	}
	return r.publish(client, group, b.Attempt, blobs)
}

// Sweep is the stale-drain collector: it deletes every object under prefix
// in the given buckets — winner files whose consumers have collected and
// loser files of aborted or outpaced speculative attempts alike — and
// returns how many objects it removed. Buckets are swept concurrently
// (s3.Client.Fan), each with one List and its deletes batched through the
// DeleteObjects API (one round trip per 1000 keys). A failed bucket does
// not stop the others: the count sums the buckets whose deletes went
// through, and the error is the first in bucket order.
// The driver runs it before a query (clearing leftovers of an
// identically-named aborted run, every epoch included) and after
// (reclaiming the boundary namespace).
func Sweep(client *s3.Client, buckets []string, prefix string) (int, error) {
	removed := make([]int, len(buckets))
	errs := make([]error, len(buckets))
	client.Fan(len(buckets), len(buckets), func(i int, c *s3.Client) {
		entries, err := c.List(buckets[i], prefix)
		if err != nil || len(entries) == 0 {
			errs[i] = err
			return
		}
		keys := make([]string, len(entries))
		for j, e := range entries {
			keys[j] = e.Key
		}
		if errs[i] = c.DeleteBatch(buckets[i], keys); errs[i] == nil {
			removed[i] = len(keys)
		}
	})
	total := 0
	for _, n := range removed {
		total += n
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
