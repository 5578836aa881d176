package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"mtpu/internal/core"
	"mtpu/internal/state"
	"mtpu/internal/stream"
	"mtpu/internal/telemetry"
	"mtpu/internal/types"
	"mtpu/internal/workload"
)

// config sizes one workload run.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // where the open loop's unix socket lives

	blocks int     // nft-mint-chain: chain length; sim-corpus: prefix per scenario
	rate   float64 // airdrop-open: offered blocks per second
	setups int     // set-up repetitions; setup_s is their median

	// corrupt is handed to nft-mint-chain's replica (see replica.corrupt).
	corrupt func(i int, p *core.Prepared)
}

type workloadDef struct {
	size config
	run  func(config) (*outcome, error)
}

// Every workload's blocks carry blockTxs transactions drawn with Zipf
// skew scenarioSkew; sim-corpus makes corpusWarmup untimed passes before
// its timed loop.
const (
	blockTxs     = 32
	scenarioSkew = 1.2
	corpusWarmup = 2
)

// workloads are the benchmark's workloads at their full size. README.md
// says why each was chosen.
var workloads = map[string]workloadDef{
	"nft-mint-chain": {size: config{blocks: 600, setups: 5}, run: runChain},
	"airdrop-open":   {size: config{rate: 25, setups: 5}, run: runOpen},
	"sim-corpus":     {size: config{blocks: 40, setups: 3}, run: runCorpus},
}

func workloadNames() []string { return []string{"nft-mint-chain", "airdrop-open", "sim-corpus"} }

// generate produces a scenario chain: its genesis, its blocks, and the
// blocks' wire encodings (taken before any service touches the blocks).
func generate(scenario string, blocks int, c config) (*state.StateDB, []*types.Block, [][]byte, error) {
	src, err := workload.ScenarioSpec{Scenario: scenario, Blocks: blocks, Txs: blockTxs, Skew: scenarioSkew, Seed: c.seed}.Open()
	if err != nil {
		return nil, nil, nil, err
	}
	var bs []*types.Block
	var raws [][]byte
	for b, ok := src.Next(); ok; b, ok = src.Next() {
		bs = append(bs, b)
		raws = append(raws, b.EncodeRLP())
	}
	return src.Genesis(), bs, raws, nil
}

// commitClock records when each height first shows in Service.Height:
// at[h-1] is when block h was seen folded.
type commitClock struct {
	at   []time.Time
	stop chan struct{}
	done chan struct{}
}

// pollInterval bounds the clock's error; commits are milliseconds apart.
const pollInterval = time.Millisecond

func watchCommits(svc *stream.Service, n int) *commitClock {
	c := &commitClock{at: make([]time.Time, 0, n), stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		h, now := int(svc.Height()), time.Now()
		for len(c.at) < h && len(c.at) < n {
			c.at = append(c.at, now)
		}
	}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(pollInterval)
		defer tick.Stop()
		for len(c.at) < n {
			select {
			case <-c.stop:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return c
}

// finish stops the clock and returns the commit times it saw.
func (c *commitClock) finish() []time.Time {
	close(c.stop)
	<-c.done
	return c.at
}

// served is one service lifetime's observable outcome.
type served struct {
	rep          *stream.Report
	err          error
	head         types.Hash
	replayCycles uint64
	replayTxs    uint64
	commits      []time.Time
}

// finishService drains svc and collects what the gate and the metrics
// read from its public surface.
func finishService(svc *stream.Service, clock *commitClock) *served {
	s := &served{}
	s.rep, s.err = svc.Drain()
	s.commits = clock.finish()
	s.head = svc.HeadDigest()
	snap := svc.Tel().Snapshot()
	s.replayCycles, s.replayTxs = snap.ReplayCycles, snap.ReplayTxs
	return s
}

// checkServed is the service part of the correctness gate for a run
// that should have committed want blocks.
func checkServed(o *outcome, label string, s *served, want int, rc *chainResult) {
	o.check(s.err == nil, "%s: service failed: %v", label, s.err)
	o.check(s.rep.Committed == uint64(want), "%s: committed %d of %d blocks", label, s.rep.Committed, want)
	o.check(s.rep.ShadowFails == 0, "%s: %d shadow failures", label, s.rep.ShadowFails)
	o.check(s.rep.Accepted == s.rep.Committed+s.rep.Invalid, "%s: accepted %d != committed %d + invalid %d",
		label, s.rep.Accepted, s.rep.Committed, s.rep.Invalid)
	o.check(s.head == rc.head, "%s: service head %s != replica head %s", label, s.head, rc.head)
	o.check(s.replayCycles == rc.cycles, "%s: service replayed %d cycles, replica %d", label, s.replayCycles, rc.cycles)
}

// stageMetrics accumulates the service's stage accounting over runs.
type stageMetrics struct {
	blocks                            float64
	wallMS, prefetch, execute, commit float64
	overlap                           float64
}

func (st *stageMetrics) add(r *stream.Report) {
	st.blocks += float64(r.Committed)
	st.wallMS += r.WallMS
	st.prefetch += r.StageBusyMS[telemetry.StagePrefetch.String()]
	st.execute += r.StageBusyMS[telemetry.StageExecute.String()]
	st.commit += r.StageBusyMS[telemetry.StageCommit.String()]
	st.overlap += float64(r.Overlap)
}

// record stores the stage metrics; the overhead is the untraced wall
// per block minus the traced replica's serial on-path sum per block.
func (st *stageMetrics) record(m map[string]float64) {
	m["stream.prefetch_busy_ms_per_block"] = ratio(st.prefetch, st.blocks)
	m["stream.execute_busy_ms_per_block"] = ratio(st.execute, st.blocks)
	m["stream.commit_busy_ms_per_block"] = ratio(st.commit, st.blocks)
	m["stream.overlap_per_block"] = ratio(st.overlap, st.blocks)
	m["stream.overhead_ms_per_block"] = ratio(st.wallMS, st.blocks) - m["replica.ms_per_block"]
}

// chainSetup is one closed-loop chain ready to run.
type chainSetup struct {
	genesis *state.StateDB
	blocks  []*types.Block
	raws    [][]byte
	svc     *stream.Service
}

// serveClosed feeds every block through blocking Submit and drains.
// lat receives each committed block's submit-return-to-fold time.
func serveClosed(cs *chainSetup, lat *[]float64) *served {
	clock := watchCommits(cs.svc, len(cs.blocks))
	submitted := make([]time.Time, 0, len(cs.blocks))
	for _, b := range cs.blocks {
		if cs.svc.Submit(b) != nil {
			break // halted; finishService reports why
		}
		submitted = append(submitted, time.Now())
	}
	s := finishService(cs.svc, clock)
	for i, at := range s.commits {
		if i < len(submitted) {
			*lat = append(*lat, max(0, ms(at.Sub(submitted[i]))))
		}
	}
	return s
}

// runChain is nft-mint-chain: a closed loop feeding fixed-length
// nft-mint chains through blocking Submit into an in-process service,
// chain after chain until the measured time is used (at least one).
func runChain(c config) (*outcome, error) {
	o := &outcome{correct: true, metrics: map[string]float64{}}
	var setupS []float64
	setup := func() (*chainSetup, error) {
		start := processCPU()
		genesis, blocks, raws, err := generate("nft-mint", c.blocks, c)
		if err != nil {
			return nil, err
		}
		svc, err := stream.New(serviceConfig(genesis))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (processCPU() - start).Seconds())
		settle()
		return &chainSetup{genesis: genesis, blocks: blocks, raws: raws, svc: svc}, nil
	}
	var ready []*chainSetup
	for len(ready) < c.setups {
		cs, err := setup()
		if err != nil {
			return nil, err
		}
		ready = append(ready, cs)
	}
	first := ready[0]

	var bps, lat []float64
	var runs []*served
	var stages stageMetrics
	var cpu time.Duration
	mem := startMem()
	start := time.Now()
	for len(runs) == 0 || time.Since(start).Seconds() < c.seconds {
		if len(ready) == 0 {
			cs, err := setup()
			if err != nil {
				return nil, err
			}
			ready = append(ready, cs)
		}
		cs := ready[0]
		ready = ready[1:]
		cpu0 := processCPU()
		s := serveClosed(cs, &lat)
		cpu += processCPU() - cpu0
		runs = append(runs, s)
		bps = append(bps, s.rep.BlocksPerSec)
		stages.add(s.rep)
		o.attempted += len(cs.blocks)
		o.failed += len(cs.blocks) - int(s.rep.Committed)
	}
	mem.record(o.metrics, int(stages.blocks))
	o.metrics["peak_rss_mb"] = peakRSSMB()
	for _, cs := range ready {
		cs.svc.Drain()
	}

	// From here on only the first chain's inputs are kept, so the served
	// states are garbage before the replica runs.
	genesis, raws := first.genesis, first.raws
	rep := newReplica()
	rep.corrupt = c.corrupt
	rc, oracle, err := replicate(rep, genesis, raws, false)
	if err != nil {
		return nil, err
	}
	checkChain(o, "nft-mint", rc, oracle)
	for i, s := range runs {
		checkServed(o, fmt.Sprintf("nft-mint chain %d", i), s, len(raws), rc)
	}

	m := o.metrics
	m["blocks_per_s"] = median(bps)
	m["cpu_ms_per_block"] = ratio(ms(cpu), stages.blocks)
	m["committed_share"] = ratio(float64(o.attempted-o.failed), float64(o.attempted))
	m["sim_cycles_per_tx"] = ratio(float64(runs[0].replayCycles), float64(runs[0].replayTxs))
	m["setup_s"] = median(setupS)
	m["stream.commit_p50_ms"] = median(lat)
	m["stream.commit_p90_ms"] = percentile(lat, tailQuantile)
	rep.serialMetrics(m)
	rep.layerMetrics(m)
	rep.simTotals.record(m)
	stages.record(m)
	o.spans = rep.spans
	return o, nil
}

// openSetup is one open-loop service listening on a unix socket.
type openSetup struct {
	genesis *state.StateDB
	raws    [][]byte
	svc     *stream.Service
	ingest  *stream.Ingest
	sock    string
}

func (s *openSetup) close() {
	s.ingest.Close()
	s.svc.Drain()
}

// runOpen is airdrop-open: one generator with one connection POSTs
// pre-encoded airdrop blocks to the service's unix-socket ingest at a
// fixed rate, without retrying. Each block is timed from when it was
// due until Height shows it folded.
func runOpen(c config) (*outcome, error) {
	o := &outcome{correct: true, metrics: map[string]float64{}}
	n := max(1, int(c.rate*c.seconds+0.5))
	var setupS []float64
	var sets []*openSetup
	for k := 0; k < c.setups; k++ {
		start := processCPU()
		genesis, _, raws, err := generate("airdrop", n, c)
		if err != nil {
			return nil, err
		}
		svc, err := stream.New(serviceConfig(genesis))
		if err != nil {
			return nil, err
		}
		sock := filepath.Join(c.workDir, fmt.Sprintf("perfbench-%d.sock", k))
		ingest, err := svc.ListenAndServe("", sock)
		if err != nil {
			svc.Drain()
			return nil, err
		}
		setupS = append(setupS, (processCPU() - start).Seconds())
		settle()
		sets = append(sets, &openSetup{genesis: genesis, raws: raws, svc: svc, ingest: ingest, sock: sock})
	}
	for _, s := range sets[1:] {
		s.close()
	}
	live := sets[0]
	sock := live.sock

	// A POST the service never answers counts as refused rather than
	// hanging the run.
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
	}}
	defer client.CloseIdleConnections()

	mem := startMem()
	cpu0 := processCPU()
	clock := watchCommits(live.svc, n)
	period := time.Duration(float64(time.Second) / c.rate)
	due := make([]time.Time, n)
	var late, post []float64
	firstRefused := n
	begin := time.Now()
	for i, raw := range live.raws {
		due[i] = begin.Add(time.Duration(i) * period)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		late = append(late, ms(sent.Sub(due[i])))
		ok := false
		resp, err := client.Post("http://perfbench/blocks", "application/octet-stream", bytes.NewReader(raw))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ok = resp.StatusCode == http.StatusAccepted
		}
		post = append(post, ms(time.Since(sent)))
		if !ok && firstRefused == n {
			firstRefused = i
		}
	}
	live.ingest.Close()
	s := finishService(live.svc, clock)
	end := time.Now()
	cpu := processCPU() - cpu0
	mem.record(o.metrics, n)
	o.metrics["peak_rss_mb"] = peakRSSMB()

	// A refused block leaves a gap: every later block fails to chain, so
	// the service commits exactly the blocks before the first refusal.
	committed := len(s.commits)
	o.attempted, o.failed = n, n-committed
	o.check(committed == firstRefused, "airdrop: committed %d blocks, first refusal at %d", committed, firstRefused)
	lat := make([]float64, n)
	for i := range lat {
		at := end // a block never folded misses every latency limit
		if i < committed {
			at = s.commits[i]
		}
		lat[i] = ms(at.Sub(due[i]))
	}

	// Past here nothing holds the served service (the dialer kept only
	// the socket path), so its state is garbage before the replica runs.
	genesis, raws := live.genesis, live.raws[:committed]
	rep := newReplica()
	rc, oracle, err := replicate(rep, genesis, raws, true)
	if err != nil {
		return nil, err
	}
	checkChain(o, "airdrop", rc, oracle)
	checkServed(o, "airdrop", s, committed, rc)
	o.check(s.rep.Rejected+s.rep.Invalid == uint64(n-committed), "airdrop: %d rejected + %d invalid != %d failed",
		s.rep.Rejected, s.rep.Invalid, n-committed)

	m := o.metrics
	last := begin
	if committed > 0 {
		last = s.commits[committed-1]
	}
	m["blocks_per_s"] = ratio(float64(committed), last.Sub(begin).Seconds())
	m["cpu_ms_per_block"] = ratio(ms(cpu), float64(committed))
	m["committed_share"] = ratio(float64(committed), float64(n))
	m["sim_cycles_per_tx"] = ratio(float64(s.replayCycles), float64(s.replayTxs))
	m["setup_s"] = median(setupS)
	m["stream.commit_p50_ms"] = median(lat)
	m["stream.commit_p90_ms"] = percentile(lat, tailQuantile)
	m["stream.post_ms_p50"] = median(post)
	m["stream.post_ms_p99"] = percentile(post, 0.99)
	m["bench.gen_late_ms_p99"] = percentile(late, 0.99)
	rep.serialMetrics(m)
	rep.layerMetrics(m)
	rep.simTotals.record(m)
	var stages stageMetrics
	stages.add(s.rep)
	stages.record(m)
	o.spans = rep.spans
	return o, nil
}
