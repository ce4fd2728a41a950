package cache

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// stampLRU is the cache as it was first written: per-set tag, valid,
// dirty and stamp slices with a global access clock, filling the first
// invalid way and otherwise evicting the lowest stamp. It is the
// behavioural reference the recency-ordered Cache must match access for
// access.
type stampLRU struct {
	sets       int
	tags       [][]geom.LineAddr
	valid      [][]bool
	dirty      [][]bool
	stamps     [][]uint64
	clock      uint64
	hits       uint64
	misses     uint64
	writebacks uint64
}

func newStampLRU(sizeBytes, ways int) *stampLRU {
	sets := sizeBytes / geom.LineBytes / ways
	r := &stampLRU{sets: sets}
	for s := 0; s < sets; s++ {
		r.tags = append(r.tags, make([]geom.LineAddr, ways))
		r.valid = append(r.valid, make([]bool, ways))
		r.dirty = append(r.dirty, make([]bool, ways))
		r.stamps = append(r.stamps, make([]uint64, ways))
	}
	return r
}

func (r *stampLRU) access(line geom.LineAddr, dirty bool) (hit bool, victim geom.LineAddr, evicted bool) {
	r.clock++
	set := int(uint64(line) % uint64(r.sets))
	ways := len(r.tags[set])
	for w := 0; w < ways; w++ {
		if r.valid[set][w] && r.tags[set][w] == line {
			r.stamps[set][w] = r.clock
			if dirty {
				r.dirty[set][w] = true
			}
			r.hits++
			return true, 0, false
		}
	}
	r.misses++
	v := 0
	best := r.stamps[set][0]
	for w := 0; w < ways; w++ {
		if !r.valid[set][w] {
			v = w
			break
		}
		if r.stamps[set][w] < best {
			v, best = w, r.stamps[set][w]
		}
	}
	if r.valid[set][v] && r.dirty[set][v] {
		victim, evicted = r.tags[set][v], true
		r.writebacks++
	}
	r.tags[set][v] = line
	r.valid[set][v] = true
	r.dirty[set][v] = dirty
	r.stamps[set][v] = r.clock
	return false, victim, evicted
}

func (r *stampLRU) reset() {
	for s := range r.valid {
		for w := range r.valid[s] {
			r.valid[s][w] = false
			r.dirty[s][w] = false
		}
	}
	r.clock, r.hits, r.misses, r.writebacks = 0, 0, 0, 0
}

// refAccess is one step of a comparison stream.
type refAccess struct {
	line  geom.LineAddr
	dirty bool
	reset bool
}

// compareWithReference drives a Cache and the stamp-LRU reference of the
// same geometry through ops and fails at the first differing
// (hit, victim, evicted) triple or counter.
func compareWithReference(t *testing.T, sizeBytes, ways int, ops []refAccess) {
	t.Helper()
	c := MustNew(sizeBytes, ways)
	r := newStampLRU(sizeBytes, ways)
	for i, op := range ops {
		if op.reset {
			c.Reset()
			r.reset()
			continue
		}
		h, v, e := c.AccessDirty(op.line, op.dirty)
		rh, rv, re := r.access(op.line, op.dirty)
		if h != rh || v != rv || e != re {
			t.Fatalf("%dB/%d-way op %d AccessDirty(%d, %v) = (%v, %d, %v), reference (%v, %d, %v)",
				sizeBytes, ways, i, op.line, op.dirty, h, v, e, rh, rv, re)
		}
		if c.Hits() != r.hits || c.Misses() != r.misses || c.Writebacks() != r.writebacks {
			t.Fatalf("%dB/%d-way op %d: hits/misses/writebacks %d/%d/%d, reference %d/%d/%d",
				sizeBytes, ways, i, c.Hits(), c.Misses(), c.Writebacks(), r.hits, r.misses, r.writebacks)
		}
	}
}

// referenceGeometries spans the shapes the engine builds (64 KiB 8-way
// L1) and the edges: a 2-set 2-way toy, a large 16-way cache and a
// direct-mapped one.
var referenceGeometries = []struct{ sizeBytes, ways int }{
	{64 << 10, 8},
	{4 * geom.LineBytes, 2},
	{1 << 20, 16},
	{64 << 10, 1},
}

// TestMatchesStampLRUReference compares seeded random streams — a hot
// set mixed with a wide cold range so sets both hit and thrash, with
// about a third of accesses dirty and a Reset midway — against the
// stamp-LRU reference.
func TestMatchesStampLRUReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, g := range referenceGeometries {
		lines := g.sizeBytes / geom.LineBytes
		for trial := 0; trial < 4; trial++ {
			ops := make([]refAccess, 20_000)
			for i := range ops {
				span := 2 * lines
				if rng.Intn(4) == 0 {
					span = 64 * lines
				}
				ops[i] = refAccess{line: geom.LineAddr(rng.Intn(span)), dirty: rng.Intn(3) == 0}
			}
			ops[len(ops)/2].reset = true
			compareWithReference(t, g.sizeBytes, g.ways, ops)
		}
	}
}

// FuzzCacheMatchesReference decodes the input as (line, dirty) pairs —
// one byte each, the dirty byte's top bit requesting a Reset before the
// access — and replays them on a 4-line 2-way cache and a 16-line
// 4-way cache against the stamp-LRU reference.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 0, 4, 1, 2, 0, 6, 1, 0, 0})
	f.Add([]byte{1, 1, 3, 1, 5, 1, 7, 0, 1, 0x80, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]refAccess, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			if data[i+1]&0x80 != 0 {
				ops = append(ops, refAccess{reset: true})
			}
			ops = append(ops, refAccess{line: geom.LineAddr(data[i]), dirty: data[i+1]&1 != 0})
		}
		compareWithReference(t, 4*geom.LineBytes, 2, ops)
		compareWithReference(t, 16*geom.LineBytes, 4, ops)
	})
}
