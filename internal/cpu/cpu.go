// Package cpu models the processing elements that drive memory traffic:
// out-of-order cores with a bounded miss window (MSHRs) and near-memory
// accelerators with deep request pipelines. Both are "memory request
// engines": they pull virtual-address streams from workloads, translate
// through the process address space, filter through each core's private
// L1, and issue external accesses to the memory controller, advancing a
// simulated clock.
//
// The performance story the paper tells — SDAM speedups grow with
// memory-level parallelism and shrink with cache effectiveness — falls
// out of exactly these knobs: window depth, compute gap, and cache size
// (§7.4: accelerators generate more concurrent accesses and have smaller
// caches, hence benefit more).
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/memctrl"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Stream produces one thread's virtual-address reference stream. The
// set of producers is closed (SliceStream, the proxies' mix streams and
// tape replay views), and every one of them fills batches and knows its
// length, so both are part of the contract rather than optional
// extensions the engine would have to probe for.
type Stream interface {
	// NextBatch fills buf from the front and returns how many
	// references were produced. It may return fewer than len(buf) at
	// any time; 0 means the stream is exhausted.
	NextBatch(buf []Ref) int
	// Remaining reports exactly how many references the stream has
	// left to emit, so a consumer that drains it can size its buffers
	// once up front.
	Remaining() int
	// Next returns the next reference; ok=false ends the stream. Every
	// producer implements it as NextOf, so it is the same emission as
	// NextBatch one reference at a time.
	Next() (ref Ref, ok bool)
}

// BatchStream is Stream under its former name. It is kept only because
// the benchmark module (bench/) still names it, and goes with the next
// change to that module.
type BatchStream = Stream

// NextOf reads one reference through a one-element NextBatch: the one
// definition of a stream's single-reference read.
func NextOf(s Stream) (Ref, bool) {
	var buf [1]Ref
	if s.NextBatch(buf[:]) == 0 {
		return Ref{}, false
	}
	return buf[0], true
}

// LineBatchStream is an optional Stream extension for replay streams
// that already know each reference's physical line address — sealed
// reference tapes (internal/tape), whose VAs were pre-translated
// against an already-populated address space. NextBatchLines fills refs
// and lines in lockstep and returns the count; the engine then skips
// vm.TranslateLine for those references entirely. The ref sequence
// must match NextBatch's, and lines[i] must equal the owner address
// space's translation of refs[i].VA at issue time (which is why sealing
// requires a populated space: a pending demand fault would make that
// translation time-dependent).
type LineBatchStream interface {
	Stream
	NextBatchLines(refs []Ref, lines []geom.LineAddr) int
}

// batchSize is the engine's per-core refill granularity: one interface
// call per this many references on the hot path.
const batchSize = 64

// SliceStream adapts a materialized reference list.
type SliceStream struct {
	Refs []Ref
	pos  int
}

// Ref is one recorded reference.
type Ref struct {
	VA vm.VA
	// Write marks a store. The engine treats stores as posted: they
	// occupy memory bandwidth but never block the core — the write
	// buffer a real core drains in the background.
	Write bool
}

// Next implements Stream.
func (s *SliceStream) Next() (Ref, bool) { return NextOf(s) }

// NextBatch implements Stream.
func (s *SliceStream) NextBatch(buf []Ref) int {
	n := copy(buf, s.Refs[s.pos:])
	s.pos += n
	return n
}

// Remaining implements Stream.
func (s *SliceStream) Remaining() int { return len(s.Refs) - s.pos }

// Config sizes one engine.
type Config struct {
	Name string
	// Cores is the number of concurrent streams executed (extra streams
	// beyond Cores are round-robined onto cores).
	Cores int
	// MSHRs bounds outstanding misses per core.
	MSHRs int
	// ComputeNs is the non-memory time between consecutive references of
	// one stream (the compute gap that lets memory latency hide).
	ComputeNs float64
	// HitNs is the latency of an L1 hit.
	HitNs float64
	// L1Bytes and L1Ways size each core's private L1 filter; L1Bytes=0
	// runs without private caches.
	L1Bytes int
	L1Ways  int
	// WriteBack enables dirty-victim write-backs from the L1s: stores
	// mark lines dirty, and evicting a dirty line issues a posted write
	// to the memory system. Off by default (the recorded evaluation
	// numbers use write-through-style accounting).
	WriteBack bool
}

// CPUConfig returns the prototype's CPU-side parameters: 4 BOOM cores
// with 64 KB L1 caches each (the prototype has no shared LLC, §7.1),
// modeled as one 64 KB-per-core filter, a modest miss window, and a
// per-reference compute gap.
func CPUConfig(cores int) Config {
	if cores <= 0 {
		cores = 4
	}
	return Config{
		Name:      fmt.Sprintf("boom-%dcore", cores),
		Cores:     cores,
		MSHRs:     8,
		ComputeNs: 4,
		HitNs:     3,
		L1Bytes:   64 << 10,
		L1Ways:    8,
	}
}

// AcceleratorConfig returns the near-memory accelerator parameters: deep
// pipelines (many outstanding requests), no cache, negligible compute
// gap — the configuration that makes CLP utilization decisive.
func AcceleratorConfig(units int) Config {
	if units <= 0 {
		units = 4
	}
	return Config{
		Name:      fmt.Sprintf("nma-%dunit", units),
		Cores:     units,
		MSHRs:     64,
		ComputeNs: 0.5,
		HitNs:     0,
	}
}

// Result reports one engine run.
type Result struct {
	TimeNs     float64
	References uint64
	External   uint64 // cache misses and write-backs issued to memory
	Writes     uint64 // posted stores among the external accesses
	Prefetches uint64 // always 0: the engine has no prefetcher
	CacheHits  uint64
	Faults     uint64
}

// SpeedupOver returns other.TimeNs / r.TimeNs.
func (r Result) SpeedupOver(other Result) float64 {
	if r.TimeNs == 0 {
		return 0
	}
	return other.TimeNs / r.TimeNs
}

// Engine executes streams against a memory system.
type Engine struct {
	cfg  Config
	ctrl *memctrl.Controller
	as   *vm.AddressSpace
	l1   []*cache.Cache // private, one per core
	// l1Err is cache.New's verdict on the config's L1 geometry, kept
	// for RunProcs to report.
	l1Err error
	// Collector, when set, receives every external access — the
	// profiling hook of §6.2.
	Collector *trace.Collector
}

// New creates an engine. The caches are instantiated from the config;
// an invalid config — no cores, no MSHRs, or an L1 geometry cache.New
// rejects — is reported by the first run, not here.
func New(cfg Config, ctrl *memctrl.Controller, as *vm.AddressSpace) *Engine {
	e := &Engine{cfg: cfg, ctrl: ctrl, as: as}
	if cfg.L1Bytes > 0 && cfg.Cores > 0 {
		e.l1 = make([]*cache.Cache, cfg.Cores)
		for i := range e.l1 {
			if e.l1[i], e.l1Err = cache.New(cfg.L1Bytes, cfg.L1Ways); e.l1Err != nil {
				e.l1 = nil
				break
			}
		}
	}
	return e
}

// lookupCaches runs core c's L1 lookup and reports whether the line hit
// (filling it on a miss). With WriteBack enabled the L1 tracks
// dirtiness and returns any dirty victim for the caller to write back.
// Without an L1 every reference misses.
//
//sdam:noalloc
func (e *Engine) lookupCaches(c int, line geom.LineAddr, write bool) (hit bool, victim geom.LineAddr, wb bool) {
	if e.l1 == nil {
		return false, 0, false
	}
	return e.l1[c].AccessDirty(line, write && e.cfg.WriteBack)
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// mshrRing tracks the completion times of in-flight misses in a ring
// kept sorted, earliest at the head, whose capacity is the MSHR count
// rounded up to a power of two. evictMin pops the head; add inserts from
// the tail, shifting later completions up a slot — completions arrive
// nearly in issue order, so the scan is short. Only the minimum *value*
// is observable (it is the stall time, and equal values are
// indistinguishable), so any layout holding the same multiset gives
// bit-identical results.
type mshrRing struct {
	times []float64
	head  int // index of the earliest completion
	n     int // in-flight misses
	slots int // the MSHR count
}

func (m *mshrRing) init(slots int) {
	*m = mshrRing{times: make([]float64, 1<<bits.Len(uint(slots-1))), slots: slots}
}

// full reports whether a new miss must first evict the earliest one.
func (m *mshrRing) full() bool { return m.n == m.slots }

// add records a miss completing at t.
//
//sdam:noalloc
func (m *mshrRing) add(t float64) {
	mask := len(m.times) - 1
	i := m.n
	for ; i > 0; i-- {
		prev := m.times[(m.head+i-1)&mask]
		if prev <= t {
			break
		}
		m.times[(m.head+i)&mask] = prev
	}
	m.times[(m.head+i)&mask] = t
	m.n++
}

// evictMin removes and returns the earliest completion time.
//
//sdam:noalloc
func (m *mshrRing) evictMin() float64 {
	t := m.times[m.head]
	m.head = (m.head + 1) & (len(m.times) - 1)
	m.n--
	return t
}

// boundStream is a stream with its owner address space resolved once at
// setup, so the per-reference path never consults an ownership map.
type boundStream struct {
	src       Stream
	lineBatch LineBatchStream // src, when it carries pre-translated lines
	as        *vm.AddressSpace
}

// coreState tracks one core's simulated progress.
type coreState struct {
	id         int
	streams    []boundStream
	streamIdx  int
	bufPos     int     // next unread index in buf
	bufLen     int     // filled prefix of buf
	bufLines   bool    // lineBuf holds translations for the current buf
	nextReady  float64 // earliest next issue
	lastFinish float64
	mshr       mshrRing
	buf        [batchSize]Ref           // refill buffer for the current stream
	lineBuf    [batchSize]geom.LineAddr // pre-translated lines (tape fast path)
}

// heapSlot is one core's place in the coreHeap: its next ready time,
// copied from the core's state when it is pushed, and its index.
type heapSlot struct {
	nextReady float64
	core      int
}

// coreHeap orders cores by next ready time for lockstep interleaving.
// The sift routines are the standard binary-heap algorithm specialized
// to heapSlot — comparison-for-comparison and swap-for-swap the same as
// container/heap with the old Less, so pop order (including tie-break
// history) is unchanged while the per-operation interface dispatch and
// interface{} boxing are gone. The slots are values sized once for
// every core, and a push or pop moves only n: the engine's innermost
// loop stores no pointer (no *coreState, no slice header), so it pays
// no GC write barrier while the collector is marking.
type coreHeap struct {
	slots []heapSlot // one per core; slots[:n] is the heap
	n     int
}

func newCoreHeap(cores int) coreHeap { return coreHeap{slots: make([]heapSlot, cores)} }

//sdam:noalloc
func (h *coreHeap) up(j int) {
	s := h.slots
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].nextReady < s[i].nextReady) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

//sdam:noalloc
func (h *coreHeap) down(i0, n int) {
	s := h.slots
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s[j2].nextReady < s[j1].nextReady {
			j = j2 // = 2*i + 2  // right child
		}
		if !(s[j].nextReady < s[i].nextReady) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
}

//sdam:noalloc
func (h *coreHeap) push(x heapSlot) {
	h.slots[h.n] = x
	h.n++
	h.up(h.n - 1)
}

//sdam:noalloc
func (h *coreHeap) pop() heapSlot {
	s := h.slots
	n := h.n - 1
	s[0], s[n] = s[n], s[0]
	h.down(0, n)
	h.n = n
	return s[n]
}

// canSkip reports whether pushing a core with the given key and
// immediately popping would provably return that same core and leave
// the heap array bit-identical — the cases where the round-trip can be
// elided without rewriting tie-break history. Proof sketch: the push's
// sift-up of a strict minimum and the pop's sift-down retrace exactly
// inverse swap sequences for heaps of ≤ 4 elements when the guards
// below hold (the sift-down's child comparisons then resolve the same
// way they did before the push); at 5+ elements the sift-down consults
// pairs whose relative order the round-trip can legitimately reshuffle,
// so those sizes always take the real round-trip.
//
//sdam:noalloc
func (h *coreHeap) canSkip(key float64) bool {
	s := h.slots
	switch {
	case h.n == 0:
		return true
	case h.n <= 2:
		return key < s[0].nextReady
	case h.n <= 4:
		return key < s[0].nextReady && s[0].nextReady < s[1].nextReady
	default:
		return false
	}
}

// Proc binds one process's reference streams to its address space, so
// several programs can co-run on one engine and memory system (the
// paper's co-run scenario, §3 experiment 2 and §6.2's CMT budget
// sharing).
type Proc struct {
	AS      *vm.AddressSpace
	Streams []Stream
}

// Run executes the streams to completion against the engine's own
// address space and returns the result.
func (e *Engine) Run(streams []Stream) (Result, error) {
	return e.RunProcs([]Proc{{AS: e.as, Streams: streams}})
}

// reserveDeltas sizes the collector's delta sequence for this run: at
// most one delta per reference.
func (e *Engine) reserveDeltas(bound []boundStream) {
	n := 0
	for _, b := range bound {
		n += b.src.Remaining()
	}
	e.Collector.Reserve(n)
}

// RunProcs co-runs several processes: their streams are distributed
// round-robin over the configured cores, each stream translating through
// its owner's address space. Cores interleave in global time order so
// the shared memory system sees a causally ordered request stream. A
// config with no cores, no MSHRs or an invalid L1 geometry is an error.
func (e *Engine) RunProcs(procs []Proc) (Result, error) {
	var res Result
	switch {
	case e.cfg.Cores < 1:
		return res, fmt.Errorf("cpu: config %q: Cores = %d, want at least 1", e.cfg.Name, e.cfg.Cores)
	case e.cfg.MSHRs < 1:
		return res, fmt.Errorf("cpu: config %q: MSHRs = %d, want at least 1", e.cfg.Name, e.cfg.MSHRs)
	case e.l1Err != nil:
		return res, fmt.Errorf("cpu: config %q: L1Bytes %d / L1Ways %d: %w", e.cfg.Name, e.cfg.L1Bytes, e.cfg.L1Ways, e.l1Err)
	}
	var bound []boundStream
	var spaces []*vm.AddressSpace // unique owner spaces, procs order
	var faultsBefore []uint64
	for _, p := range procs {
		as := p.AS
		if as == nil {
			as = e.as
		}
		for _, s := range p.Streams {
			bs := boundStream{src: s, as: as}
			if lb, ok := s.(LineBatchStream); ok {
				bs.lineBatch = lb
			}
			bound = append(bound, bs)
			known := false
			for _, seen := range spaces {
				if seen == as {
					known = true
					break
				}
			}
			if !known {
				spaces = append(spaces, as)
				faultsBefore = append(faultsBefore, as.Faults())
			}
		}
	}
	if len(bound) == 0 {
		return res, nil
	}
	if e.Collector != nil {
		e.reserveDeltas(bound)
		defer e.Collector.Trim()
	}
	cores := make([]coreState, e.cfg.Cores)
	for i := range cores {
		cores[i].id = i
		cores[i].mshr.init(e.cfg.MSHRs)
	}
	for i, s := range bound {
		c := &cores[i%len(cores)]
		c.streams = append(c.streams, s)
	}
	h := newCoreHeap(len(cores))
	for i := range cores {
		if len(cores[i].streams) > 0 {
			h.push(heapSlot{core: i})
		}
	}

	for h.n > 0 {
		c := &cores[h.pop().core]
	core:
		// The inner loop keeps driving c while it provably remains the
		// global minimum (canSkip); otherwise it re-enters the heap and
		// the outer loop picks the true minimum — the exact round-trip
		// the original per-reference loop always paid.
		for {
			var ref Ref
			if c.bufPos < c.bufLen {
				ref = c.buf[c.bufPos]
				c.bufPos++
			} else {
				b := &c.streams[c.streamIdx]
				var n int
				if b.lineBatch != nil {
					n = b.lineBatch.NextBatchLines(c.buf[:], c.lineBuf[:])
				} else {
					n = b.src.NextBatch(c.buf[:])
				}
				if n > 0 {
					ref = c.buf[0]
					c.bufPos, c.bufLen, c.bufLines = 1, n, b.lineBatch != nil
				} else {
					c.streamIdx++
					if c.streamIdx >= len(c.streams) {
						// Core retired: it leaves the heap for good.
						if c.lastFinish > res.TimeNs {
							res.TimeNs = c.lastFinish
						}
						break core
					}
					// Stream boundary: the original loop paid a heap
					// round-trip here with nextReady unchanged.
					if h.canSkip(c.nextReady) {
						continue
					}
					h.push(heapSlot{c.nextReady, c.id})
					break core
				}
			}
			res.References++
			var line geom.LineAddr
			if c.bufLines {
				// Tape fast path: the stream supplied the translation.
				line = c.lineBuf[c.bufPos-1]
			} else {
				var err error
				line, err = c.streams[c.streamIdx].as.TranslateLine(ref.VA)
				if err != nil {
					return res, fmt.Errorf("cpu: core %d: %w", c.id, err)
				}
			}
			issue := c.nextReady
			hit, wbVictim, wb := e.lookupCaches(c.id, line, ref.Write)
			if wb {
				// Dirty eviction: a posted write-back to memory.
				if _, err := e.ctrl.Access(issue, wbVictim); err != nil {
					return res, fmt.Errorf("cpu: core %d write-back: %w", c.id, err)
				}
				res.External++
				res.Writes++
			}
			if hit {
				res.CacheHits++
				c.nextReady = issue + e.cfg.HitNs + e.cfg.ComputeNs
				if c.nextReady > c.lastFinish {
					c.lastFinish = c.nextReady
				}
				if h.canSkip(c.nextReady) {
					continue
				}
				h.push(heapSlot{c.nextReady, c.id})
				break core
			}
			// External access. Loads block on a free MSHR slot; stores
			// are posted through the write buffer and never stall the
			// core, though their bandwidth still contends at the device.
			if !ref.Write && c.mshr.full() {
				if t := c.mshr.evictMin(); t > issue {
					issue = t
				}
			}
			done, err := e.ctrl.Access(issue, line)
			if err != nil {
				return res, fmt.Errorf("cpu: core %d: %w", c.id, err)
			}
			res.External++
			if ref.Write {
				res.Writes++
			}
			if e.Collector != nil {
				e.Collector.Record(trace.Access{VA: ref.VA, PA: line})
			}
			if !ref.Write {
				c.mshr.add(done)
			}
			if done > c.lastFinish {
				c.lastFinish = done
			}
			c.nextReady = issue + e.cfg.ComputeNs
			if h.canSkip(c.nextReady) {
				continue
			}
			h.push(heapSlot{c.nextReady, c.id})
			break core
		}
	}
	for i, as := range spaces {
		res.Faults += as.Faults() - faultsBefore[i]
	}
	return res, nil
}
