package apps

import (
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// HashJoin is the main-memory hash join of Balkesen et al.: build a
// bucket table over relation R, then probe with every tuple of S.
// Variables: rTuples/sTuples (streaming scans), buckets (random probes),
// entries (short chains).
type HashJoin struct {
	kernelBase
	rSize, sSize int

	rTuples, sTuples, buckets, entries *array
}

// NewHashJoin creates the kernel; R is the build side (smaller).
func NewHashJoin(opts Options) *HashJoin {
	o := opts.withDefaults()
	return &HashJoin{kernelBase: newKernelBase("hashjoin", o), rSize: 1 << 16 * o.Scale, sSize: 1 << 18 * o.Scale}
}

// Setup implements workload.Workload.
func (h *HashJoin) Setup(env *workload.Env) error {
	var err error
	if h.rTuples, err = h.alloc(env, "r_tuples", uint64(h.rSize), 16); err != nil {
		return err
	}
	if h.sTuples, err = h.alloc(env, "s_tuples", uint64(h.sSize), 16); err != nil {
		return err
	}
	if h.buckets, err = h.alloc(env, "buckets", uint64(h.rSize), 8); err != nil {
		return err
	}
	if h.entries, err = h.alloc(env, "entries", uint64(h.rSize), 16); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload: the join actually executes, so
// the probe pattern reflects real key skew.
func (h *HashJoin) Streams(seed int64) []cpu.Stream {
	r := rand.New(rand.NewSource(seed))
	rec := newRecorder(h.opts.Threads, h.opts.MaxRefs)

	nBuckets := uint64(h.rSize)
	hashOf := func(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) % nBuckets }

	// Build phase: stream R, scatter into buckets. The build is capped
	// at a quarter of the reference budget so the probe phase — the
	// interesting one — always executes (a truncated build is still a
	// correct hash join over fewer tuples).
	nBuild := h.rSize
	if max := h.opts.MaxRefs / 4 / 3; nBuild > max {
		nBuild = max
	}
	bucketHead := make([]int32, nBuckets)
	entryNext := make([]int32, h.rSize)
	keysR := make([]uint64, h.rSize)
	for i := range bucketHead {
		bucketHead[i] = -1
	}
	for i := 0; i < nBuild && !rec.full(); i++ {
		t := i % h.opts.Threads
		key := uint64(r.Intn(h.rSize * 2))
		keysR[i] = key
		b := hashOf(key)
		rec.touch(t, h.rTuples, uint64(i)) // streaming read
		rec.write(t, h.buckets, b)         // random bucket update
		rec.write(t, h.entries, uint64(i)) // entry store
		entryNext[i] = bucketHead[b]
		bucketHead[b] = int32(i)
	}

	// Probe phase: stream S, chase bucket chains.
	matches := 0
	for i := 0; i < h.sSize && !rec.full(); i++ {
		t := i % h.opts.Threads
		key := uint64(r.Intn(h.rSize * 2))
		b := hashOf(key)
		rec.touch(t, h.sTuples, uint64(i)) // streaming read
		rec.touch(t, h.buckets, b)         // random probe
		for e := bucketHead[b]; e >= 0; e = entryNext[e] {
			rec.touch(t, h.entries, uint64(e)) // chain chase
			if keysR[e] == key {
				matches++
			}
		}
	}
	_ = matches
	return rec.streams()
}

// MergeJoin is the sort-merge join: both relations are sorted by a
// 16-way multiway merge over power-of-two-aligned runs, then joined with
// two streaming cursors. The multiway merge is the interesting phase for
// address mapping: sixteen run cursors advance nearly in lockstep, each
// run a large power-of-two offset from the next, so concurrent reads
// collapse onto one channel under a fixed interleaved mapping.
// Variables: runs (multiway-merge reads), rSorted/sSorted (streams),
// output (stream).
type MergeJoin struct {
	kernelBase
	rSize, sSize int

	rSorted, sSorted, output, runs *array
}

// NewMergeJoin creates the kernel.
func NewMergeJoin(opts Options) *MergeJoin {
	o := opts.withDefaults()
	return &MergeJoin{kernelBase: newKernelBase("mergejoin", o), rSize: 1 << 17 * o.Scale, sSize: 1 << 17 * o.Scale}
}

// Setup implements workload.Workload.
func (m *MergeJoin) Setup(env *workload.Env) error {
	var err error
	if m.rSorted, err = m.alloc(env, "r_sorted", uint64(m.rSize), 16); err != nil {
		return err
	}
	if m.sSorted, err = m.alloc(env, "s_sorted", uint64(m.sSize), 16); err != nil {
		return err
	}
	if m.output, err = m.alloc(env, "output", uint64(m.rSize), 16); err != nil {
		return err
	}
	if m.runs, err = m.alloc(env, "runs", uint64(m.rSize), 16); err != nil {
		return err
	}
	return nil
}

// Streams implements workload.Workload.
func (m *MergeJoin) Streams(seed int64) []cpu.Stream {
	r := rand.New(rand.NewSource(seed))
	rec := newRecorder(m.opts.Threads, m.opts.MaxRefs)

	keysR := make([]uint64, m.rSize)
	keysS := make([]uint64, m.sSize)
	for i := range keysR {
		keysR[i] = uint64(r.Intn(m.rSize * 4))
	}
	for i := range keysS {
		keysS[i] = uint64(r.Intn(m.rSize * 4))
	}

	// Multiway merge-sort phase for R: 16 sorted runs at power-of-two-
	// aligned bases, merged with a cursor per run. Cursors drain at
	// nearly equal rates (keys are uniform), so concurrent reads sit a
	// run-length stride apart — the channel-collapsing pattern.
	const nRuns = 16
	runLen := m.rSize / nRuns
	scratch := make([]uint64, max(m.rSize, m.sSize))
	for run := 0; run < nRuns; run++ {
		sortKeys(keysR[run*runLen:(run+1)*runLen], scratch)
	}
	cursor := make([]int, nRuns)
	merged := 0
	mergeBudget := m.opts.MaxRefs / 3
	lineTuples := int(lineElems(16))
	// Prime one line per run (the loser-tree fill).
	for run := 0; run < nRuns && !rec.full(); run++ {
		rec.touch(run%m.opts.Threads, m.runs, uint64(run*runLen))
	}
	for merged < m.rSize && rec.total < mergeBudget && !rec.full() {
		// The loser tree holds the run heads in registers; memory is
		// touched only when a cursor crosses into a new line of its run.
		best, bestRun := uint64(1)<<63, -1
		for run := 0; run < nRuns; run++ {
			if cursor[run] >= runLen {
				continue
			}
			if k := keysR[run*runLen+cursor[run]]; k < best {
				best, bestRun = k, run
			}
		}
		if bestRun < 0 {
			break
		}
		cursor[bestRun]++
		merged++
		if cursor[bestRun] < runLen && cursor[bestRun]%lineTuples == 0 {
			rec.touch(merged%m.opts.Threads, m.runs, uint64(bestRun*runLen+cursor[bestRun]))
		}
	}
	// Complete the sort logically so the join below is correct even when
	// the recording budget truncated the merge.
	sortKeys(keysR, scratch)
	sortKeys(keysS, scratch)

	// Merge phase: two streaming cursors plus streaming output.
	i, j, out := 0, 0, uint64(0)
	for i < m.rSize && j < m.sSize && !rec.full() {
		t := (i + j) % m.opts.Threads
		rec.touch(t, m.rSorted, uint64(i))
		rec.touch(t, m.sSorted, uint64(j))
		switch {
		case keysR[i] < keysS[j]:
			i++
		case keysR[i] > keysS[j]:
			j++
		default:
			rec.write(t, m.output, out)
			out++
			i++
			j++
		}
	}
	return rec.streams()
}

// radixBits is the digit width of sortKeys: 2^11 counters fit in L1,
// and keys below 2^22 — every MergeJoin key up to Scale 8 — need only
// two passes.
const radixBits = 11

// sortKeys sorts keys ascending with an LSD radix sort, using scratch
// (at least len(keys) long, not overlapping keys) as the other half of
// the ping-pong buffer. Integers have exactly one ascending order, so
// the result equals any other correct sort's. Digits above the highest
// set bit, and digits every key shares, cost one counting scan and no
// scatter.
func sortKeys(keys, scratch []uint64) {
	n := len(keys)
	if n < 2 {
		return
	}
	var bits uint64
	for _, k := range keys {
		bits |= k
	}
	const mask = 1<<radixBits - 1
	src, dst := keys, scratch[:n]
	var count [1 << radixBits]int
	for shift := uint(0); shift < 64 && bits>>shift != 0; shift += radixBits {
		clear(count[:])
		for _, k := range src {
			count[k>>shift&mask]++
		}
		if count[src[0]>>shift&mask] == n {
			continue
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
