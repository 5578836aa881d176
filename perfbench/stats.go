package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs, q in (0, 1]; 0 for
// an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tenthRatio is the median of the last tenth of xs over the median of
// its first tenth: how much a per-block cost grew along the chain.
func tenthRatio(xs []float64) float64 {
	k := max(1, len(xs)/10)
	if len(xs) < 2*k {
		return 1
	}
	return ratio(median(xs[len(xs)-k:]), median(xs[:k]))
}

// halfRatio is the sum of the second half of xs over the sum of its
// first half (the middle element of an odd count left out). Per-block
// cost also jumps with what a block touches and when the GC runs; over
// halves those jumps average out, where tenths or quarters moved by a
// fifth to a third between runs of one chain.
func halfRatio(xs []float64) float64 {
	h := len(xs) / 2
	if h == 0 {
		return 1
	}
	first, second := 0.0, 0.0
	for i := 0; i < h; i++ {
		first += xs[i]
		second += xs[len(xs)-h+i]
	}
	return ratio(second, first)
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// settle collects the garbage a set-up left, outside any timed phase,
// so a repeated set-up does not set the process's peak RSS.
func settle() { runtime.GC() }

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// record stores the phase's allocation per block and GC totals.
func (d *memDelta) record(m map[string]float64, blocks int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m["go.alloc_mb_per_block"] = ratio(float64(after.TotalAlloc-d.before.TotalAlloc)/(1<<20), float64(blocks))
	m["go.gc_pause_ms"] = float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
	m["go.num_gc"] = float64(after.NumGC - d.before.NumGC)
}

// threadCPU is the CPU time the calling OS thread has run; the caller
// holds runtime.LockOSThread between two reads. processCPU is the same
// for the whole process. Both come from the kernel's per-thread run
// time, which, on a guest kernel with paravirtual steal accounting,
// leaves out the time the hypervisor gave the vCPU to someone else: on a
// shared host a wall-clock time grows with the neighbours' load, and
// these do not.
func threadCPU() time.Duration  { return clockTime(3) } // CLOCK_THREAD_CPUTIME_ID
func processCPU() time.Duration { return clockTime(2) } // CLOCK_PROCESS_CPUTIME_ID

func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, e))
	}
	return time.Duration(ts.Nano())
}
