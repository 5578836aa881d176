package main

import (
	"fmt"
	"runtime"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/arch/pu"
	"mtpu/internal/core"
	"mtpu/internal/difftest"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/stream"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
)

// The service configuration every workload runs: mtpu-serve's defaults.
const (
	serveMode   = core.ModeSTHotspot
	servePUs    = 4
	hotspotTopN = 8
	// shadowSample 0.1 makes the service shadow-check every 10th block
	// (sequence numbers 0, 10, 20, ...); the replica uses the same stride.
	shadowSample = 0.1
	shadowStride = 10
)

func serviceConfig(genesis *state.StateDB) stream.Config {
	return stream.Config{Mode: serveMode, Genesis: genesis, NumPUs: servePUs, HotspotTopN: hotspotTopN, ShadowSample: shadowSample}
}

func archConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.NumPUs = servePUs
	return cfg
}

// layer is one timed call of the replica, named after the module and
// function it times.
type layer int

const (
	layerDecode      layer = iota // types.DecodeBlockRLP (HTTP ingest)
	layerSpecPrepare              // core.PrepareBlock one block behind (prefetch stage)
	layerRevalidate               // mvstate.Store.Invalidated
	layerPrepare                  // core.PrepareBlock at the exact head
	layerPlan                     // pu.PlainPlans + pu.AttachFillMemo
	layerDigest                   // core.Prepared.DigestAt
	layerReplay                   // core.Accelerator.ReplayWith
	layerLearn                    // core.Accelerator.LearnHotspots
	layerFold                     // mvstate.Store.Commit
	layerHeadDigest               // mvstate.Store.HeadDigest (-verify-chain; off in the service)
	layerShadow                   // difftest.OracleCheckAt on the shadow stride
	numLayers
)

var layerNames = [numLayers]string{
	"types.decode", "core.spec_prepare", "mvstate.revalidate", "core.prepare", "pu.plan",
	"core.digest", "core.replay", "core.learn", "mvstate.fold", "mvstate.head_digest", "difftest.shadow",
}

// span is one timed call: which layer, for which block, when.
type span struct {
	layer      layer
	block      int
	start, dur time.Duration
}

// replica is the traced serial replica: per block, and in the
// service's order, it makes the calls the service's prefetch, execute
// and commit stages make, and times each one. It accumulates over any
// number of chains.
type replica struct {
	epoch   time.Time
	blocks  int
	spans   []span
	perCall [numLayers][]float64 // ms per call (a layer's work for one block)
	onPath  []float64            // ms per block on the service's path
	// digestGrowth is each chain's core.digest last-tenth/first-tenth
	// ratio; cpuGrowth is each chain's halfRatio of the thread CPU time
	// of the on-path sum.
	digestGrowth, cpuGrowth []float64
	// replayRate is each block's txs per thread CPU s of ReplayWith.
	replayRate []float64
	spec       struct{ hit, stale, failed int }

	simTotals

	footFirst, footEnd state.Footprint

	// corrupt, when set, edits block i's prepared write-set before the
	// fold — the seam the mutation test uses to prove the gate fails.
	corrupt func(i int, p *core.Prepared)
}

func newReplica() *replica { return &replica{epoch: time.Now()} }

// chainResult is what the correctness gate compares for one chain.
type chainResult struct {
	head    types.Hash   // head digest after the last fold
	digests []types.Hash // per-block post-state digest the block was verified against
	cycles  uint64       // summed Result.Cycles
}

// chain replays one chain from genesis. raws are the blocks' wire
// encodings; every block is decoded from them, so the replica works on
// its own copies. wire says whether the service under test decodes too
// (HTTP ingest) — if not, decode time is reported but is not on the
// service's path.
func (r *replica) chain(genesis *state.StateDB, raws [][]byte, wire bool) (*chainResult, error) {
	runtime.LockOSThread() // for threadCPU
	defer runtime.UnlockOSThread()
	tel := telemetry.New()
	store := mvstate.NewStore(genesis, tel)
	acc := core.New(archConfig())
	out := &chainResult{}
	var digestMS, cpuMS []float64

	// The saturated pipeline decodes block i while block i-1 executes,
	// against a snapshot pinned before block i-1 folds: one block behind.
	// An error abandons the store, so only the success path unpins.
	spec := store.Pin()
	for i, raw := range raws {
		ahead := store.Pin()
		var blockMS, blockCPU [numLayers]float64
		var called [numLayers]bool
		timed := func(l layer, f func()) {
			cpu := threadCPU()
			start := time.Now()
			f()
			d := time.Since(start)
			blockCPU[l] += ms(threadCPU() - cpu)
			blockMS[l] += ms(d)
			called[l] = true
			r.spans = append(r.spans, span{layer: l, block: r.blocks, start: start.Sub(r.epoch), dur: d})
		}

		var block *types.Block
		var err error
		timed(layerDecode, func() { block, err = types.DecodeBlockRLP(raw) })
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		coinbase := block.Header.Coinbase

		var prep *core.Prepared
		var plans []*pu.Plan
		plan := func() {
			plans = pu.PlainPlans(prep.Traces)
			pu.AttachFillMemo(acc.Cfg, plans)
		}
		timed(layerSpecPrepare, func() { prep, err = core.PrepareBlock(spec, block) })
		hit := false
		if err == nil {
			timed(layerPlan, plan)
			var stale bool
			timed(layerRevalidate, func() { stale = store.Invalidated(prep.BaseReads, prep.Height) })
			if stale {
				r.spec.stale++
			} else {
				r.spec.hit++
				hit = true
			}
		} else {
			r.spec.failed++
		}
		head := store.Head()
		if !hit {
			timed(layerPrepare, func() { prep, err = core.PrepareBlock(head, block) })
			if err != nil {
				return nil, fmt.Errorf("block %d invalid at the exact head: %w", i, err)
			}
			timed(layerPlan, plan)
		}
		var digest types.Hash
		timed(layerDigest, func() { digest = prep.DigestAt(head, coinbase) })
		var res *core.Result
		timed(layerReplay, func() {
			res, err = acc.ReplayWith(block, prep.Traces, prep.Receipts, digest, serveMode,
				core.ReplayOpts{Genesis: head.DB(), Head: head, Plans: plans, Tel: tel})
		})
		if err != nil {
			return nil, fmt.Errorf("block %d replay: %w", i, err)
		}
		timed(layerLearn, func() { acc.LearnHotspots(prep.Traces, hotspotTopN) })

		shadow := i%shadowStride == 0
		var pre *mvstate.Snapshot
		if shadow {
			pre = store.Pin()
		}
		if r.corrupt != nil {
			r.corrupt(i, prep)
		}
		timed(layerFold, func() { store.Commit(prep.WriteKeys, prep.WriteVals, coinbase, &prep.Fees) })
		if shadow || i == len(raws)-1 {
			var got types.Hash
			timed(layerHeadDigest, func() { got = store.HeadDigest() })
			if got != digest {
				return nil, fmt.Errorf("block %d: head digest %s after the fold != verified digest %s", i, got, digest)
			}
		}
		if shadow {
			timed(layerShadow, func() { err = difftest.OracleCheckAt(pre, block, prep.Receipts, digest, res) })
			pre.Close()
			if err != nil {
				return nil, fmt.Errorf("block %d shadow check: %w", i, err)
			}
		}
		spec.Close()
		spec = ahead

		total, totalCPU := 0.0, 0.0
		for l := layer(0); l < numLayers; l++ {
			if called[l] {
				r.perCall[l] = append(r.perCall[l], blockMS[l])
			}
			if l == layerHeadDigest || (l == layerDecode && !wire) {
				continue
			}
			total += blockMS[l]
			totalCPU += blockCPU[l]
		}
		r.onPath = append(r.onPath, total)
		digestMS = append(digestMS, blockMS[layerDigest])
		cpuMS = append(cpuMS, totalCPU)
		r.replayRate = append(r.replayRate, ratio(float64(len(block.Transactions)), blockCPU[layerReplay]/1e3))
		out.digests = append(out.digests, digest)
		out.cycles += res.Cycles
		r.add(res, len(block.Transactions))
		r.blocks++
		if i == len(raws)/10 {
			r.footFirst = addFoot(r.footFirst, store.HeadDB().Footprint())
		}
	}
	spec.Close()
	r.footEnd = addFoot(r.footEnd, store.HeadDB().Footprint())
	r.digestGrowth = append(r.digestGrowth, tenthRatio(digestMS))
	r.cpuGrowth = append(r.cpuGrowth, halfRatio(cpuMS))
	out.head = store.HeadDigest()
	return out, nil
}

func addFoot(a, b state.Footprint) state.Footprint {
	return state.Footprint{Accounts: a.Accounts + b.Accounts, StorageSlots: a.StorageSlots + b.StorageSlots, CodeBytes: a.CodeBytes + b.CodeBytes}
}

// simTotals sums the simulator counters of a set of replays: the
// totals the arch.* and sched.* metrics and cycles per tx come from.
type simTotals struct {
	cycles, txs, instructions uint64
	lineHits, lineMisses      uint64
	skipped                   uint64
	busy, capacity            float64
	redundant, refill         uint64
}

// add folds one replay's counters into the totals.
func (r *simTotals) add(res *core.Result, txs int) {
	r.cycles += res.Cycles
	r.txs += uint64(txs)
	r.instructions += res.Instructions
	r.lineHits += res.Pipeline.LineHits
	r.lineMisses += res.Pipeline.LineMisses
	r.skipped += uint64(res.SkippedInstructions)
	for _, b := range res.Sched.BusyCycles {
		r.busy += float64(b)
	}
	r.capacity += float64(res.Sched.Makespan) * float64(len(res.Sched.BusyCycles))
	r.redundant += uint64(res.Sched.RedundantSteers)
	r.refill += res.Sched.RefillScans
}

// record stores the simulator-level per-layer metrics.
func (r *simTotals) record(m map[string]float64) {
	m["arch.dbcache_hit_ratio"] = ratio(float64(r.lineHits), float64(r.lineHits+r.lineMisses))
	m["arch.skipped_instr_share"] = ratio(float64(r.skipped), float64(r.instructions+r.skipped))
	m["sched.utilization"] = ratio(r.busy, r.capacity)
	m["sched.redundant_steer_ratio"] = ratio(float64(r.redundant), float64(r.txs))
	m["sched.refill_scans_per_tx"] = ratio(float64(r.refill), float64(r.txs))
}

// serialMetrics records the end-to-end metrics a serve workload takes
// from the replica's thread CPU times: how the on-path cost grew along
// the chain, and ReplayWith's simulated tx per CPU s (median block).
func (r *replica) serialMetrics(m map[string]float64) {
	m["height_slowdown"] = median(r.cpuGrowth)
	m["sim_tx_per_s"] = median(r.replayRate)
}

// layerMetrics records the per-layer budget: per-call p50/p99, call
// counts, and each layer's share of the serial on-path total.
func (r *replica) layerMetrics(m map[string]float64) {
	total := 0.0
	for _, t := range r.onPath {
		total += t
	}
	for l := layer(0); l < numLayers; l++ {
		n := layerNames[l]
		sum := 0.0
		for _, t := range r.perCall[l] {
			sum += t
		}
		m[n+"_calls"] = float64(len(r.perCall[l]))
		m[n+"_ms_p50"] = median(r.perCall[l])
		m[n+"_ms_p99"] = percentile(r.perCall[l], 0.99)
		m[n+"_share"] = ratio(sum, total)
	}
	m["replica.ms_per_block"] = ratio(total, float64(len(r.onPath)))
	m["core.digest_growth"] = median(r.digestGrowth)
	replayNS := 0.0
	for _, t := range r.perCall[layerReplay] {
		replayNS += t * 1e6
	}
	m["core.replay_ns_per_sim_instr"] = ratio(replayNS, float64(r.instructions))
	n := float64(r.spec.hit + r.spec.stale + r.spec.failed)
	m["mvstate.spec_hit_ratio"] = ratio(float64(r.spec.hit), n)
	m["mvstate.spec_stale_ratio"] = ratio(float64(r.spec.stale), n)
	m["mvstate.spec_failed_ratio"] = ratio(float64(r.spec.failed), n)
	m["state.accounts"] = float64(r.footEnd.Accounts)
	m["state.storage_slots"] = float64(r.footEnd.StorageSlots)
	m["state.accounts_growth"] = ratio(float64(r.footEnd.Accounts), float64(r.footFirst.Accounts))
	m["state.storage_slots_growth"] = ratio(float64(r.footEnd.StorageSlots), float64(r.footFirst.StorageSlots))
}

// replicate runs the whole-chain oracle and then the replica over one
// chain, one after the other, so the replica's timings have the host to
// themselves.
func replicate(rep *replica, genesis *state.StateDB, raws [][]byte, wire bool) (*chainResult, []types.Hash, error) {
	oracle, err := oracleChain(genesis, raws)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC() // leave the replica none of the oracle's garbage to collect
	rc, err := rep.chain(genesis, raws, wire)
	if err != nil {
		return nil, nil, fmt.Errorf("replica: %w", err)
	}
	return rc, oracle, nil
}

// oracleChain is the whole-chain sequential oracle: every block applied
// in order to one copy of genesis by core.CollectTracesOn, returning
// the post-state digest after each block.
func oracleChain(genesis *state.StateDB, raws [][]byte) ([]types.Hash, error) {
	st := genesis.Copy()
	digests := make([]types.Hash, len(raws))
	for i, raw := range raws {
		block, err := types.DecodeBlockRLP(raw)
		if err != nil {
			return nil, fmt.Errorf("oracle block %d: %w", i, err)
		}
		_, _, d, err := core.CollectTracesOn(st, block)
		if err != nil {
			return nil, fmt.Errorf("oracle block %d: %w", i, err)
		}
		digests[i] = d
	}
	return digests, nil
}

// checkChain is the chain part of the correctness gate: the replica's
// per-block digests and final head must equal the oracle's.
func checkChain(o *outcome, label string, rc *chainResult, oracle []types.Hash) {
	o.check(len(rc.digests) == len(oracle), "%s: replica folded %d blocks, oracle %d", label, len(rc.digests), len(oracle))
	for i := range rc.digests {
		if i < len(oracle) && rc.digests[i] != oracle[i] {
			o.check(false, "%s: block %d digest %s != oracle %s", label, i, rc.digests[i], oracle[i])
			break
		}
	}
	if n := len(oracle); n > 0 {
		o.check(rc.head == oracle[n-1], "%s: replica head %s != oracle head %s", label, rc.head, oracle[n-1])
	}
}
