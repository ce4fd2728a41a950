// Package memctrl models the memory-controller front end: for every
// external access it resolves the PA→HA mapping and issues the access to
// the HBM device.
//
// Two resolution modes mirror the paper's system configurations (§7.3):
//
//   - Global mode: a single boot-time mapping (default, bit-shuffle, or
//     XOR hash) applies to every physical address — the BS+DM / BS+BSM /
//     BS+HM baselines.
//   - SDAM mode: the controller consults the CMT with the chunk number,
//     feeds the returned crossbar configuration to the AMU, and uses the
//     remapped offset — the SDM+* configurations.
//
// Both modes translate through one compiled *mapping.Linear per access.
package memctrl

import (
	"fmt"

	"repro/internal/amu"
	"repro/internal/cmt"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/mapping"
)

// Controller issues line accesses to an HBM device under a mapping
// policy. Not safe for concurrent use; callers serialize issue order, as
// the CPU/accelerator models do.
type Controller struct {
	dev *hbm.Device

	// global is the boot mapping in global mode; table is set instead
	// in SDAM mode.
	global *mapping.Linear
	table  *cmt.Table
	amu    *amu.AMU

	// chunkMap memoizes each chunk's compiled mapping so the
	// steady-state translation is two table loads instead of a CMT lock
	// round-trip. It grows on a miss to the highest chunk filled: the
	// chunk allocator hands chunks out as a prefix 0, 1, 2, …, so a boot
	// pays for no per-chunk state. cachedGen is the CMT generation the
	// cache was filled against; any OS-side table write advances the
	// generation and flushes the cache on the next access (the
	// invalidation a real MMIO write would broadcast). The CMT's 6 ns
	// SRAM read overlaps the controller front end, so SDAM mode adds no
	// latency.
	chunkMap  []*mapping.Linear
	cachedGen uint64

	// compiles counts per-chunk cache fills — the cold path of resolve.
	// A plain field (the controller is single-owner); system's metrics
	// flush reads it through Compiles after the run.
	compiles uint64
}

// NewGlobal creates a controller applying one fixed mapping to all
// addresses (the hardware-only baselines). A nil m means Identity.
func NewGlobal(dev *hbm.Device, m mapping.Mapping) *Controller {
	if m == nil {
		m = mapping.Identity{}
	}
	return &Controller{dev: dev, global: m.Linear()}
}

// NewSDAM creates a controller that resolves mappings through the CMT
// and AMU (the software-defined configurations).
func NewSDAM(dev *hbm.Device, table *cmt.Table, unit *amu.AMU) *Controller {
	if table == nil || unit == nil {
		panic("memctrl: SDAM controller requires a CMT and an AMU")
	}
	return &Controller{
		dev: dev, table: table, amu: unit,
		cachedGen: table.Generation(),
	}
}

// Device exposes the underlying HBM device for statistics.
func (c *Controller) Device() *hbm.Device { return c.dev }

// SDAM reports whether the controller resolves mappings through the CMT.
func (c *Controller) SDAM() bool { return c.table != nil }

// Table returns the controller's CMT, or nil in global mode.
func (c *Controller) Table() *cmt.Table { return c.table }

// Access issues the cache line at physical line address l arriving at
// time `at` (ns) and returns the completion time.
//
//sdam:noalloc
func (c *Controller) Access(at float64, l geom.LineAddr) (float64, error) {
	m := c.global
	if c.table != nil {
		var err error
		if m, err = c.resolve(l.Chunk()); err != nil {
			return 0, fmt.Errorf("memctrl: %w", err)
		}
	}
	return c.dev.AccessLine(at, m.Map(l)), nil
}

// resolve returns the chunk's compiled mapping, filling the per-chunk
// cache on a miss (growing it to the chunk) and flushing it when the CMT
// has been written since the last fill.
func (c *Controller) resolve(chunk int) (*mapping.Linear, error) {
	if gen := c.table.Generation(); gen != c.cachedGen {
		clear(c.chunkMap)
		c.cachedGen = gen
	}
	if chunk >= 0 && chunk < len(c.chunkMap) {
		if m := c.chunkMap[chunk]; m != nil {
			return m, nil
		}
	}
	cfg, err := c.table.Lookup(chunk)
	if err != nil {
		return nil, err
	}
	m, err := c.amu.Linear(cfg)
	if err != nil {
		return nil, err
	}
	c.compiles++
	if chunk >= len(c.chunkMap) { // Lookup has rejected chunks out of range
		c.chunkMap = append(c.chunkMap, make([]*mapping.Linear, chunk+1-len(c.chunkMap))...)
	}
	c.chunkMap[chunk] = m
	return m, nil
}

// Compiles returns the number of per-chunk cache fills on CMT-cache
// misses (zero in global mode).
func (c *Controller) Compiles() uint64 { return c.compiles }

// Describe names the active policy for reports.
func (c *Controller) Describe() string {
	if c.table != nil {
		return fmt.Sprintf("SDAM (%d live mappings)", c.table.LiveMappings())
	}
	return "global " + c.global.Name()
}
