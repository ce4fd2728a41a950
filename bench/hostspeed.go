package main

import (
	"sync"

	"repro/internal/wallclock"
)

// The host-speed reference. The benchmark's hosts are shared virtual
// machines whose speed drifts by tens of percent over minutes as other
// tenants load the caches, memory and sibling hardware threads; the same
// repetition of a fixed job then reads 1.0 s in one minute and 1.6 s a few
// minutes later. Host-time metrics are therefore reported at a fixed
// reference speed: the parent runs a fixed kernel, owned by the benchmark
// and never by the program under test, between repetitions, and each
// repetition's host time is scaled by refNominal ÷ the mean of the kernel
// times just before and just after it. A change to the program cannot
// move the kernel, so a real gain or loss shows in full, while a host
// that is 30 % slower for a while slows both and cancels out.
//
// The kernel is random read-modify-write traffic on one 4 MiB table per
// CPU, one goroutine each, as many as the children's GOMAXPROCS. Of the
// kernels tried (dependent multiply chains, throughput-bound ALU loops,
// pointer chases over 1 and 16 MiB, allocation-heavy map building), it
// tracked the simulator's drift best: it roughly halved the spread of
// 30-second medians of sweep-accel and sweep-cpu-wb.
const (
	refTableWords = 1 << 19 // 4 MiB of uint64 per goroutine
	refSteps      = 10_000_000
	// refNominal is the kernel's median time on the host the baseline
	// in README.md comes from (2-vCPU Xeon, nproc 2): a normalized time
	// reads as host seconds on that host at its usual speed.
	refNominal = 0.090
)

// hostRef holds the kernel's tables and its step count: refSteps, or a
// hundredth of it at the tiny size, where only the code path matters.
type hostRef struct {
	tables [][]uint64
	steps  int
}

// newHostRef allocates the tables and runs the kernel once untimed: the
// first run pays page faults and thread start-up the later ones do not.
func newHostRef(procs int, tiny bool) *hostRef {
	r := &hostRef{tables: make([][]uint64, procs), steps: refSteps}
	if tiny {
		r.steps /= 100
	}
	for i := range r.tables {
		r.tables[i] = make([]uint64, refTableWords)
	}
	r.measure()
	return r
}

// measure runs the kernel once and returns its host seconds. Every call
// does the same work: the tables are refilled from fixed seeds first,
// outside the timed part.
func (r *hostRef) measure() float64 {
	for i, t := range r.tables {
		x := uint64(i)*0x9e3779b97f4a7c15 | 1
		for j := range t {
			x = xorshift(x)
			t[j] = x
		}
	}
	hits := make([]uint64, len(r.tables))
	var wg sync.WaitGroup
	start := wallclock.Now()
	for i := range r.tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hits[i] = refKernel(r.tables[i], r.steps, uint64(i)+7)
		}(i)
	}
	wg.Wait()
	return wallclock.Since(start).Seconds()
}

// refKernel is a cache-model-like loop: a random index, a tag compare, and
// one of three updates chosen by the data.
func refKernel(table []uint64, steps int, seed uint64) uint64 {
	x, hits := seed|1, uint64(0)
	mask := uint64(len(table) - 1)
	for i := 0; i < steps; i++ {
		x = xorshift(x)
		idx := (x >> 3) & mask
		v := table[idx]
		switch {
		case v>>40 == x>>40:
			hits++
			table[idx] = v + 1
		case v&3 == 0:
			table[idx] = x
		default:
			table[idx^1] = v ^ x
		}
	}
	return hits
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// scale returns the factor that brings a host time measured between two
// kernel runs of before and after seconds to the reference speed.
func (r *hostRef) scale(before, after float64) float64 {
	return refNominal * float64(r.steps) / refSteps / ((before + after) / 2)
}
