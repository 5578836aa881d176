package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mtpu/internal/core"
	"mtpu/internal/types"
)

// tiny returns a workload's configuration shrunk to a quick pass.
func tiny(t *testing.T, name string) config {
	c := workloads[name].size
	c.seed, c.seconds, c.workDir, c.setups = 3, 0.01, t.TempDir(), 1
	switch name {
	case "nft-mint-chain":
		c.blocks = 24
	case "airdrop-open":
		c.rate, c.seconds = 20, 0.5 // 10 blocks: fewer than the queues hold, so none is refused
	case "sim-corpus":
		c.blocks = 4
	}
	return c
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (e2e, layers []declared) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// TestTinyWorkloadsPrintDeclaredMetrics runs every workload at a tiny
// size, untraced and traced, and checks the result line carries exactly
// the metrics BENCHMARK.json declares, with their units.
func TestTinyWorkloadsPrintDeclaredMetrics(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := tiny(t, name)
			c.trace = traced
			o, err := workloads[name].run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, traced, o.correct, o.attempted, o.failed, o.problems)
			}
			line, err := resultLine(o, traced)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var r resultJSON
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := r.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.Name, got, d.Unit)
				}
			}
			if traced {
				path := filepath.Join(t.TempDir(), "trace.json")
				if err := writeSpans(path, o.spans); err != nil {
					t.Fatal(err)
				}
				data, _ := os.ReadFile(path)
				var tf struct {
					TraceEvents []traceEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) <= int(numLayers) {
					t.Errorf("%s: trace has %d events (%v)", name, len(tf.TraceEvents), err)
				}
			}
		}
	}
}

// TestCorruptedFoldFailsGate corrupts one value the replica folds and
// shows the correctness gate catches it.
func TestCorruptedFoldFailsGate(t *testing.T) {
	c := tiny(t, "nft-mint-chain")
	c.corrupt = func(i int, p *core.Prepared) {
		if i == 3 && len(p.WriteVals) > 0 {
			p.WriteVals[0].Word[0] ^= 1
		}
	}
	o, err := runChain(c)
	if err == nil && o.correct {
		t.Fatal("gate passed with a corrupted fold")
	}
}

// TestDivergentDigestFailsGate changes one replica digest and shows the
// comparison with the oracle fails.
func TestDivergentDigestFailsGate(t *testing.T) {
	oracle := []types.Hash{{1}, {2}, {3}}
	rc := &chainResult{head: types.Hash{3}, digests: []types.Hash{{1}, {2}, {3}}}
	o := &outcome{correct: true}
	checkChain(o, "same", rc, oracle)
	if !o.correct {
		t.Fatalf("identical chains failed: %v", o.problems)
	}
	rc.digests[1] = types.Hash{9}
	checkChain(o, "diverged", rc, oracle)
	if o.correct {
		t.Fatal("a divergent block digest passed the gate")
	}
}

// TestRefusedBlockAndGapCountAsFailed floods the open loop far above
// the service's rate, so ingest refuses a block; the refused block and
// every block after the gap it leaves must count as failed, while the
// committed prefix still passes the gate.
func TestRefusedBlockAndGapCountAsFailed(t *testing.T) {
	c := tiny(t, "airdrop-open")
	c.rate, c.seconds = 5000, 0.012 // 60 blocks, sent back to back
	o, err := runOpen(c)
	if err != nil {
		t.Fatal(err)
	}
	if !o.correct {
		t.Fatalf("gate failed: %v", o.problems)
	}
	if o.failed == 0 || o.failed >= o.attempted {
		t.Fatalf("attempted %d, failed %d: want a refusal after a committed prefix", o.attempted, o.failed)
	}
	if got, want := o.metrics["committed_share"], float64(o.attempted-o.failed)/float64(o.attempted); got != want {
		t.Errorf("committed_share %v, want %v", got, want)
	}
}

func TestUnknownWorkloadIsAUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// TestCPUClocksAdvance checks the CPU clocks the CPU-time metrics read:
// a busy loop advances the locked thread's clock, and the process clock
// never reads less than the thread's.
func TestCPUClocksAdvance(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	thread, process := threadCPU(), processCPU()
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x ^= i
	}
	dt, dp := threadCPU()-thread, processCPU()-process
	if dt <= 0 || dp < dt {
		t.Fatalf("thread CPU advanced %v, process %v (x=%d)", dt, dp, x)
	}
}

func TestHalfRatio(t *testing.T) {
	if got := halfRatio([]float64{1, 3, 100, 4, 4}); got != 2 {
		t.Errorf("halfRatio = %v, want 2 (the middle block left out)", got)
	}
	if got := halfRatio([]float64{3}); got != 1 {
		t.Errorf("halfRatio of one block = %v, want 1", got)
	}
}
