// Package memo is the process-wide singleflight memo behind every cache
// the simulator keeps across sweep cells. There are five: reference
// tapes (budget 256 MiB, about 44 M references at ~6 bytes each),
// profiling passes and mapping selections (both unbudgeted), the graph
// kernels' input graphs (64 MiB) and the random proxy pattern's seeded
// draw blocks (8 MiB). Each value is a pure
// function of a content key, so a memoized value is indistinguishable
// from a fresh computation, and all of them need the same rules:
//
//   - singleflight: concurrent callers of one key share one computation;
//   - errors are not cached: a failed computation is handed to the
//     callers waiting on it and then forgotten, so the next caller
//     computes again;
//   - panics become errors: a computation that panics fails its flight
//     like any error instead of unwinding through a worker goroutine;
//   - an optional byte budget: once the retained values reach it, the
//     memo takes no new keys — Do returns ErrFull without computing and
//     the caller computes uncached;
//   - holds: a caller that knows which keys it will read may Hold them
//     first. A value computed while its key is held is dropped when the
//     key's last holder releases it, and its bytes leave the budget; a
//     value computed with no holder is retained for the life of the
//     process. system.Compare holds the tapes and the profiling pass its
//     cells read, so a sweep of Compares keeps one workload's entries at
//     a time. Selections, graphs and seeded blocks are never held: a
//     selection is small and lets a repeated Compare skip retraining,
//     and the other two are budgeted and keyed below the system layer.
//
// Hits and misses are counted by the memo itself: a caller served a
// value it did not compute is a hit, every other caller it serves (the
// one that computed, and waiters handed a failed flight's error) is a
// miss, and a call declined by the budget is neither. A later caller of
// a failed or released key recomputes and is a miss too, so the totals
// do not depend on scheduling.
package memo

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrFull is Do's error, returned without computing, for a key the memo
// holds neither a value nor a flight for once the retained bytes have
// reached the budget.
var ErrFull = errors.New("memo: byte budget reached")

// Config names a memo and sets its budget and obs mirrors.
type Config[V any] struct {
	// Name prefixes the errors a panicking computation becomes.
	Name string
	// Budget caps the retained bytes as Size prices them: once they reach
	// it, new keys are declined with ErrFull (values already in flight
	// are still retained). Zero means unbounded.
	Budget int64
	// Size reports a value's retained bytes; nil counts every value as 0.
	Size func(V) int64
	// Hits and Misses mirror the memo's own counters into obs. Computed
	// counts the bytes of every value computed, retained or not, so it
	// never falls, unlike Stats.Bytes. Any may be nil.
	Hits, Misses, Computed *obs.Counter
}

// Memo maps keys to values computed at most once at a time per key.
// The zero value is not usable; call New.
type Memo[K comparable, V any] struct {
	cfg Config[V]

	mu      sync.Mutex
	entries map[K]*entry[V]
	holds   map[K]int // holders per held key

	hits, misses, bytes atomic.Int64
}

// entry is one flight: done closes once val/err are final. held, size
// and landed are guarded by the memo's mutex.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
	// held marks a flight started while its key was held: the value is
	// dropped at the key's last release.
	held bool
	// landed is set once the value is retained, with size its bytes.
	landed bool
	size   int64
}

// Stats is a snapshot of a memo's counters.
type Stats struct {
	Hits, Misses int64
	// Bytes is the currently retained footprint: it falls when a held
	// value is released, unlike the Config.Computed counter.
	Bytes int64
}

// New returns an empty memo.
func New[K comparable, V any](cfg Config[V]) *Memo[K, V] {
	return &Memo[K, V]{cfg: cfg, entries: make(map[K]*entry[V]), holds: make(map[K]int)}
}

// Do returns the value for key, calling fn to compute it unless a
// retained value or an in-flight computation of the same key exists.
// Values are shared between callers and must be treated as immutable.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.done
		if e.err != nil {
			m.count(&m.misses, m.cfg.Misses)
		} else {
			m.count(&m.hits, m.cfg.Hits)
		}
		return e.val, e.err
	}
	if m.cfg.Budget > 0 && m.bytes.Load() >= m.cfg.Budget {
		m.mu.Unlock()
		var zero V
		return zero, ErrFull
	}
	e := &entry[V]{done: make(chan struct{}), held: m.holds[key] > 0}
	m.entries[key] = e
	m.mu.Unlock()
	m.count(&m.misses, m.cfg.Misses)

	e.val, e.err = m.call(fn)
	var size int64
	if e.err == nil && m.cfg.Size != nil {
		size = m.cfg.Size(e.val)
	}
	m.mu.Lock()
	if e.err != nil || e.held && m.holds[key] == 0 {
		// Failed, or every holder released the key during the flight.
		delete(m.entries, key)
	} else {
		e.landed, e.size = true, size
		m.bytes.Add(size)
	}
	m.mu.Unlock()
	m.cfg.Computed.Add(size)
	close(e.done)
	return e.val, e.err
}

// Hold registers one more holder of key and returns its release. A
// value computed while key has a holder is dropped when the last holder
// releases it; one that was already there, or whose flight started with
// no holder, stays. Each release must be called exactly once.
func (m *Memo[K, V]) Hold(key K) (release func()) {
	m.mu.Lock()
	m.holds[key]++
	m.mu.Unlock()
	return func() { m.release(key) }
}

func (m *Memo[K, V]) release(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.holds[key]--; m.holds[key] > 0 {
		return
	}
	delete(m.holds, key)
	// A flight still running drops its own value when it lands.
	if e, ok := m.entries[key]; ok && e.held && e.landed {
		delete(m.entries, key)
		m.bytes.Add(-e.size)
	}
}

// call runs fn, turning a panic into an error.
func (m *Memo[K, V]) call(fn func() (V, error)) (v V, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: computation panicked: %v\n%s", m.cfg.Name, r, debug.Stack())
		}
	}()
	return fn()
}

func (m *Memo[K, V]) count(own *atomic.Int64, mirror *obs.Counter) {
	own.Add(1)
	mirror.Add(1)
}

// Stats returns the memo's hit, miss and retained-byte counters.
func (m *Memo[K, V]) Stats() Stats {
	return Stats{Hits: m.hits.Load(), Misses: m.misses.Load(), Bytes: m.bytes.Load()}
}

// Reset forgets every retained value and zeroes the counters; holds
// stay with their holders. It must not run while a Do is in flight;
// tests call it between runs.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	clear(m.entries)
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
	m.bytes.Store(0)
}
