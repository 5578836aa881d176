package stream

import (
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/mvstate"
	"mtpu/internal/types"
)

// prefetched is the prefetch/decode stage's output for one block:
// everything the execute and commit stages need, built while the
// previous block was still executing. The decode is speculative — it
// ran against a pinned snapshot of the head that earlier in-flight
// blocks may since have advanced — so it carries the snapshot height
// and the decode error (if any) instead of deciding validity itself;
// the execute stage revalidates against the exact pre-state and
// re-decodes when the speculation was stale.
type prefetched struct {
	block *types.Block
	// snap is the pinned snapshot the decode ran against. It stays open
	// until the execute stage has revalidated, which keeps the store's
	// sweep below the decode's height and the revalidation exact.
	snap *mvstate.Snapshot
	// prep is the decode product (traces, receipts, write-set, base
	// read-set, rebuilt DAG); nil when err is set.
	prep *core.Prepared
	// err is the decode failure at the pinned snapshot. It is not final:
	// the execute stage retries at the true pre-state before counting
	// the block invalid.
	err   error
	plans []*pu.Plan
	// digest is the post-block state digest at the exact chained
	// pre-state — filled by the execute stage, not here.
	digest   types.Hash
	accepted time.Time
	seq      uint64
}

// prefetch decodes one block a stage ahead of execution against a
// pinned snapshot of the current head: a single sequential EVM pass
// over a versioned overlay (no state copy) that records per-transaction
// access sets, rebuilds the conflict DAG, and collects instruction
// traces, receipts and the block's net write-set; then prebuilds the
// plain per-transaction plans with their pipeline fill memos.
//
// prefetch never rejects a block: validity is a property of the true
// chained pre-state, which may still be several folds away while this
// stage runs ahead. The caller owns the returned pin (pre.snap).
func prefetch(store *mvstate.Store, block *types.Block, cfg arch.Config) *prefetched {
	snap := store.Pin()
	pre := &prefetched{block: block, snap: snap}
	pre.prep, pre.err = core.PrepareBlock(snap, block)
	if pre.err == nil {
		pre.plans = pu.PlainPlans(pre.prep.Traces)
		pu.AttachFillMemo(cfg, pre.plans)
	}
	return pre
}
