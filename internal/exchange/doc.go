// Package exchange implements Lambada's purely serverless exchange
// operator family (§4.4): workers that cannot accept connections shuffle
// data through S3. The basic algorithm needs a quadratic number of requests;
// the paper's two optimizations — multi-level exchange and write combining —
// reduce the request complexity to sub-quadratic, bringing request costs
// below worker costs (Figure 9) and bypassing S3 rate limits via bucket
// sharding (§4.4.1).
//
// Two shapes share the package. The symmetric grid (Worker.Run,
// RunSynthetic) is the paper's exchange among P workers, each both sender
// and receiver, and drives Table 2 and Figures 9 and 13. Its basic variant
// has no commit markers: a receiver waits for each file by name.
//
// Stage boundaries (PublishStage, RegroupStage, CollectStage) carry the
// output of a producing stage of S workers to a consuming stage of P
// partitions. Every hop of a boundary is a round: a key namespace
// <prefix>/s<stage>/<ns>/, a writer set and a slot range, with one protocol.
//
//	publish   attempt a of writer w writes one blob per slot. Basic layout:
//	          one object p<slot>/a<a>-w<w> per slot, sharded by slot, then
//	          the commit marker commit/w<w>-a<a>, sharded by writer.
//	          Write-combining (§4.4.3): one object
//	          commit/w<w>-a<a>-off<o0>_…_<on>, sharded by writer, whose name
//	          carries the cumulative slot offsets; its atomic Put commits.
//	discover  one List of commit/ per shard bucket that still hosts an
//	          undiscovered writer, in order of each bucket's lowest writer;
//	          each writer's lowest committed attempt wins. Between passes
//	          the reader parks on commit/'s completion signal until MaxWait.
//	collect   read the slot from each writer's winning attempt in
//	          ascending writer order and concatenate.
//
// A single-round boundary (Levels 1) is one round: ns snd, the senders as
// writers, the partitions as slots. A multi-level boundary (Levels >= 2,
// §4.4.2) routes through Groups(P) ≈ √P groups of consecutive partitions:
// senders publish round snd with the groups as slots; regroup worker g
// collects its slot, re-partitions the rows by the same hash and publishes
// round g<g>, whose only writer is g and whose slots are the group's
// partitions, numbered globally; receiver p collects from the round of
// GroupOf(p). Requests drop from S·P reads to G·S + P (Variant.Requests).
// Levels > 2 flatten to one regroup round.
//
// Attempts make straggler speculation race-free: a backup writes under a
// fresh attempt instead of racing the original's objects, and readers
// ignore uncommitted and later attempts. Stage fragments are
// deterministic and every round preserves row order (writers ascending,
// rows in order within a slot), so every attempt's blobs are
// byte-identical, and a multi-level boundary delivers exactly the rows of
// the single-round one. Every writer publishes every slot, empty or not,
// so readers need no membership protocol. Loser attempts linger until
// Sweep removes the boundary namespace.
package exchange
