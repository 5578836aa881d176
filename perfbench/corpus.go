package main

import (
	"fmt"
	"runtime"
	"time"

	"mtpu/internal/arch"
	"mtpu/internal/core"
	"mtpu/internal/difftest"
	"mtpu/internal/mvstate"
	"mtpu/internal/state"
	"mtpu/internal/stream"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// corpusBlock is one decoded block of the simulator corpus: everything
// ReplayWith needs, plus what its replays must reproduce.
type corpusBlock struct {
	block  *types.Block
	prep   *core.Prepared
	digest types.Hash
	first  *core.Result // the first warm-up replay; later replays must repeat its cycles
}

// corpusChain is one scenario's chained prefix with its Contract Table,
// learned once from the whole prefix.
type corpusChain struct {
	scenario string
	genesis  *state.StateDB
	raws     [][]byte
	blocks   []*corpusBlock
	acc      *core.Accelerator
}

// decodeCorpus generates a chained prefix of every scenario and decodes
// it at the exact chained head.
func decodeCorpus(c config) ([]*corpusChain, error) {
	var chains []*corpusChain
	for _, sc := range workload.Scenarios {
		genesis, _, raws, err := generate(sc, c.blocks, c)
		if err != nil {
			return nil, err
		}
		ch := &corpusChain{scenario: sc, genesis: genesis, raws: raws, acc: core.New(archConfig())}
		store := mvstate.NewStore(genesis, nil)
		var traces []*arch.TxTrace
		for i, raw := range raws {
			block, err := types.DecodeBlockRLP(raw)
			if err != nil {
				return nil, err
			}
			head := store.Head()
			prep, err := core.PrepareBlock(head, block)
			if err != nil {
				return nil, fmt.Errorf("%s block %d: %w", sc, i, err)
			}
			cb := &corpusBlock{block: block, prep: prep, digest: prep.DigestAt(head, block.Header.Coinbase)}
			store.Commit(prep.WriteKeys, prep.WriteVals, block.Header.Coinbase, &prep.Fees)
			ch.blocks = append(ch.blocks, cb)
			traces = append(traces, prep.Traces...)
		}
		ch.acc.LearnHotspots(traces, hotspotTopN)
		chains = append(chains, ch)
	}
	return chains, nil
}

// replayCorpusBlock replays one corpus block and checks it repeats the
// first replay's cycles and instructions. (ReplayWith hands back the
// receipts and digest it is given; the first replay's result is checked
// against the shadow oracle in checkCorpusChain.)
func replayCorpusBlock(ch *corpusChain, b *corpusBlock) (*core.Result, error) {
	res, err := ch.acc.ReplayWith(b.block, b.prep.Traces, b.prep.Receipts, b.digest, serveMode, core.ReplayOpts{})
	if err != nil {
		return nil, err
	}
	if b.first != nil && (res.Cycles != b.first.Cycles || res.Instructions != b.first.Instructions) {
		return nil, fmt.Errorf("replay took %d cycles, first replay %d", res.Cycles, b.first.Cycles)
	}
	return res, nil
}

// runCorpus is sim-corpus: the simulator alone. Set-up decodes a
// chained prefix of every scenario; the timed loop replays every
// prepared block through ReplayWith, pass after pass.
func runCorpus(c config) (*outcome, error) {
	o := &outcome{correct: true, metrics: map[string]float64{}}
	var setupS []float64
	var chains []*corpusChain
	for k := 0; k < c.setups; k++ {
		start := processCPU()
		var err error
		if chains, err = decodeCorpus(c); err != nil {
			return nil, err
		}
		setupS = append(setupS, (processCPU() - start).Seconds())
		settle()
	}

	var sim simTotals
	for w := 0; w < corpusWarmup; w++ {
		for _, ch := range chains {
			for i, b := range ch.blocks {
				res, err := replayCorpusBlock(ch, b)
				if err != nil {
					return nil, fmt.Errorf("%s block %d warm-up: %w", ch.scenario, i, err)
				}
				if w == 0 {
					b.first = res
					sim.add(res, len(b.block.Transactions))
				}
			}
		}
	}

	// Per-block replay wall time, and thread CPU time summed over the
	// first and second half of every scenario's prefix (halfRatio). The
	// loop runs on one locked thread, so the throughputs are per CPU
	// second of that thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var lat, passBlocks, passTxs []float64
	var firstHalf, secondHalf float64
	mem := startMem()
	start, cpu0 := time.Now(), processCPU()
	for len(passBlocks) == 0 || time.Since(start).Seconds() < c.seconds {
		passCPU := threadCPU()
		blocks, txs := 0, 0
		for _, ch := range chains {
			h := len(ch.blocks) / 2
			for i, b := range ch.blocks {
				tc, t := threadCPU(), time.Now()
				_, err := replayCorpusBlock(ch, b)
				d, dc := ms(time.Since(t)), ms(threadCPU()-tc)
				o.attempted++
				if err != nil {
					o.failed++
					o.check(false, "%s block %d: %v", ch.scenario, i, err)
					continue
				}
				lat = append(lat, d)
				if i < h {
					firstHalf += dc
				} else if i >= len(ch.blocks)-h {
					secondHalf += dc
				}
				blocks++
				txs += len(b.block.Transactions)
			}
		}
		secs := (threadCPU() - passCPU).Seconds()
		passBlocks = append(passBlocks, float64(blocks)/secs)
		passTxs = append(passTxs, float64(txs)/secs)
	}
	cpu := processCPU() - cpu0
	mem.record(o.metrics, len(lat))
	o.metrics["peak_rss_mb"] = peakRSSMB()

	rep := newReplica()
	var stages stageMetrics
	for _, ch := range chains {
		oracle, err := checkCorpusChain(o, ch)
		if err != nil {
			return nil, err
		}
		if c.trace {
			if err := traceCorpusChain(o, ch, oracle, rep, &stages); err != nil {
				return nil, err
			}
		}
	}

	m := o.metrics
	m["blocks_per_s"] = median(passBlocks)
	m["height_slowdown"] = ratio(secondHalf, firstHalf)
	m["cpu_ms_per_block"] = ratio(ms(cpu), float64(len(lat)))
	m["stream.commit_p50_ms"] = median(lat)
	m["stream.commit_p90_ms"] = percentile(lat, tailQuantile)
	m["committed_share"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
	m["sim_tx_per_s"] = median(passTxs)
	m["sim_cycles_per_tx"] = ratio(float64(sim.cycles), float64(sim.txs))
	m["setup_s"] = median(setupS)
	if c.trace {
		rep.layerMetrics(m)
		stages.record(m)
		o.spans = rep.spans
	}
	// The timed loop's own simulator counters, not the replica's: the
	// loop replays with the once-learned Contract Table.
	sim.record(m)
	return o, nil
}

// checkCorpusChain is the corpus part of the correctness gate: every
// decoded digest equals the whole-chain sequential oracle's, and every
// block's first replay passes the shadow oracle at its chained
// pre-state. It returns the oracle's digests.
func checkCorpusChain(o *outcome, ch *corpusChain) ([]types.Hash, error) {
	oracle, err := oracleChain(ch.genesis, ch.raws)
	if err != nil {
		return nil, err
	}
	store := mvstate.NewStore(ch.genesis, nil)
	for i, b := range ch.blocks {
		o.check(b.digest == oracle[i], "%s block %d: decoded digest %s != oracle %s", ch.scenario, i, b.digest, oracle[i])
		if err := difftest.OracleCheckAt(store.Head(), b.block, b.prep.Receipts, b.digest, b.first); err != nil {
			o.check(false, "%s block %d shadow oracle: %v", ch.scenario, i, err)
		}
		store.Commit(b.prep.WriteKeys, b.prep.WriteVals, b.block.Header.Coinbase, &b.prep.Fees)
	}
	return oracle, nil
}

// traceCorpusChain runs the traced replica over one corpus chain, and
// the same chain through an untraced service for the stage metrics and
// the service half of the gate.
func traceCorpusChain(o *outcome, ch *corpusChain, oracle []types.Hash, rep *replica, stages *stageMetrics) error {
	rc, err := rep.chain(ch.genesis, ch.raws, false)
	if err != nil {
		return fmt.Errorf("%s replica: %w", ch.scenario, err)
	}
	checkChain(o, ch.scenario, rc, oracle)
	svc, err := stream.New(serviceConfig(ch.genesis))
	if err != nil {
		return err
	}
	cs := &chainSetup{genesis: ch.genesis, raws: ch.raws, svc: svc}
	for _, raw := range ch.raws {
		b, err := types.DecodeBlockRLP(raw)
		if err != nil {
			return err
		}
		cs.blocks = append(cs.blocks, b)
	}
	var lat []float64
	s := serveClosed(cs, &lat)
	checkServed(o, ch.scenario, s, len(ch.raws), rc)
	stages.add(s.rep)
	return nil
}
