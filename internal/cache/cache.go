// Package cache models the last-level cache that filters CPU accesses
// before they reach the memory controller. Only external accesses (LLC
// misses) matter to SDAM, but modeling the filter matters for realistic
// miss streams: it is why CPU workloads show smaller gains than
// accelerators, which have little or no cache in front of memory
// (paper §7.4, near-data acceleration discussion).
package cache

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Cache is a set-associative, physically-tagged cache with LRU
// replacement at cache-line granularity. Not safe for concurrent use.
//
// Each set is a row of the flat tags/dirty arrays kept in recency order,
// most recent first, with its valid ways forming the prefix counted by
// fill. That is exactly stamp-based LRU: fills go to the first invalid
// way and only Reset invalidates, so valid ways are always a prefix, and
// the least recently used line is always the last way.
type Cache struct {
	sets       int
	ways       int
	tags       []geom.LineAddr // sets×ways, set-major
	dirty      []bool          // parallel to tags
	fill       []uint8         // valid ways per set
	hits       uint64
	misses     uint64
	writebacks uint64
}

// New creates a cache of the given total size and associativity.
func New(sizeBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 || ways > math.MaxUint8 {
		return nil, fmt.Errorf("cache: size %d / ways %d invalid", sizeBytes, ways)
	}
	lines := sizeBytes / geom.LineBytes
	if lines%ways != 0 || lines/ways == 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible into %d ways", lines, ways)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return &Cache{
		sets:  sets,
		ways:  ways,
		tags:  make([]geom.LineAddr, lines),
		dirty: make([]bool, lines),
		fill:  make([]uint8, sets),
	}, nil
}

// MustNew is New for static configurations.
func MustNew(sizeBytes, ways int) *Cache {
	c, err := New(sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Access looks up a line, filling it on miss, and reports whether it
// hit.
//
//sdam:noalloc
func (c *Cache) Access(line geom.LineAddr) bool {
	hit, _, _ := c.AccessDirty(line, false)
	return hit
}

// AccessDirty is Access with write-back modeling: dirty marks the line
// modified on this access, and when a miss evicts a dirty line the
// victim's address is returned with evicted=true so the caller can issue
// the write-back to memory.
//
//sdam:noalloc
func (c *Cache) AccessDirty(line geom.LineAddr, dirty bool) (hit bool, victim geom.LineAddr, evicted bool) {
	set := int(uint64(line) & uint64(c.sets-1))
	lo := set * c.ways
	tags, dirt := c.tags[lo:lo+c.ways], c.dirty[lo:lo+c.ways]
	n := int(c.fill[set])
	for w, t := range tags[:n] {
		if t == line {
			// Move to the front, keeping the line's dirty bit.
			d := dirt[w] || dirty
			copy(tags[1:w+1], tags[:w])
			copy(dirt[1:w+1], dirt[:w])
			tags[0], dirt[0] = line, d
			c.hits++
			return true, 0, false
		}
	}
	c.misses++
	if n < c.ways {
		c.fill[set]++
		n++
	} else if dirt[n-1] {
		victim, evicted = tags[n-1], true
		c.writebacks++
	}
	// Insert at the front; the last way (the LRU line, if full) drops off.
	copy(tags[1:n], tags[:n-1])
	copy(dirt[1:n], dirt[:n-1])
	tags[0], dirt[0] = line, dirty
	return false, victim, evicted
}

// Reset invalidates all lines and clears counters.
func (c *Cache) Reset() {
	clear(c.fill)
	c.hits, c.misses, c.writebacks = 0, 0, 0
}

// Writebacks returns how many dirty victims were evicted.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses).
func (c *Cache) HitRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.hits) / float64(t)
}

// SizeBytes returns the cache capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * geom.LineBytes }
