package sdam

import (
	"fmt"

	"repro/internal/amu"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/rowguard"
	"repro/internal/vm"
)

// Machine is a hands-on simulated SDAM system: an 8 GB, 32-channel HBM2
// device behind an SDAM memory controller, a kernel with the chunk-group
// physical allocator, one process address space, and a mapping-aware
// malloc. It is the low-level entry point for experimenting with address
// mappings directly; RunBenchmark drives the same machinery end to end.
//
// A Machine is not safe for concurrent use.
type Machine struct {
	kernel *vm.Kernel
	as     *vm.AddressSpace
	heap   *heap.Allocator
	dev    *hbm.Device
	ctrl   *memctrl.Controller
	engine *cpu.Engine
	now    float64
}

// MachineConfig customizes a Machine. The zero value gives the
// prototype's geometry and timing with the 4-core CPU engine.
type MachineConfig struct {
	Geometry Geometry
	Timing   Timing
	Engine   EngineConfig
}

// NewMachine boots a Machine.
func NewMachine(cfg MachineConfig) *Machine {
	if cfg.Geometry.Channels == 0 {
		cfg.Geometry = geom.Default()
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = hbm.DefaultTiming()
	}
	if cfg.Engine.Cores == 0 {
		cfg.Engine = cpu.CPUConfig(4)
	}
	dev := hbm.New(cfg.Geometry, cfg.Timing)
	k := vm.NewKernel(cfg.Geometry.Chunks())
	as := k.NewAddressSpace()
	ctrl := memctrl.NewSDAM(dev, k.Table, amu.New(8))
	m := &Machine{kernel: k, as: as, heap: heap.New(as), dev: dev, ctrl: ctrl}
	m.engine = cpu.New(cfg.Engine, ctrl, as)
	return m
}

// AddAddrMap installs a bit-shuffle address mapping given as a
// permutation of the 15 chunk-offset bits (perm[i] = PA bit feeding HA
// bit i) and returns its mapping ID — the API of the paper's
// add_addr_map() (§6.1).
func (m *Machine) AddAddrMap(perm []int) (int, error) {
	cfg, err := shuffleConfig(perm)
	if err != nil {
		return 0, err
	}
	return m.kernel.AddAddrMap(cfg)
}

// shuffleConfig checks that perm is a permutation of the offset bits and
// serializes it to crossbar switch selects.
func shuffleConfig(perm []int) (amu.Config, error) {
	s, err := mapping.NewShuffle(perm, "")
	if err != nil {
		return amu.Config{}, err
	}
	return amu.ConfigOf(s)
}

// AddStrideMapping installs the mapping that is optimal for a fixed
// byte stride (the closed form used for the synthetic benchmarks, §7.4)
// and returns its mapping ID.
func (m *Machine) AddStrideMapping(strideBytes int) (int, error) {
	lines := strideBytes / geom.LineBytes
	if lines < 1 {
		lines = 1
	}
	cfg, err := amu.ConfigOf(mapping.ForStride(lines, m.dev.Geometry()))
	if err != nil {
		return 0, err
	}
	return m.kernel.AddAddrMap(cfg)
}

// AddSecureAddrMap installs a bit-shuffle mapping whose chunk group is
// row-hammer isolated with guard rows (the paper's §4 mitigation):
// allocations under the returned mapping ID never occupy rows physically
// adjacent to another chunk's rows. GuardOverhead reports the capacity
// cost.
func (m *Machine) AddSecureAddrMap(perm []int) (int, error) {
	cfg, err := shuffleConfig(perm)
	if err != nil {
		return 0, err
	}
	return m.kernel.AddSecureAddrMap(cfg, m.dev.Geometry())
}

// GuardOverhead returns the fraction of chunk capacity a secure group
// sacrifices to guard rows under the given permutation.
func (m *Machine) GuardOverhead(perm []int) (float64, error) {
	s, err := mapping.NewShuffle(perm, "probe")
	if err != nil {
		return 0, err
	}
	return rowguard.Overhead(s, m.dev.Geometry()), nil
}

// IdentityPerm returns the identity permutation of the offset bits —
// the boot-time default mapping in permutation form, handy as a starting
// point for AddAddrMap/AddSecureAddrMap.
func IdentityPerm() []int {
	perm := make([]int, geom.OffsetBits)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// Malloc allocates size bytes bound to the given mapping ID (0 is the
// boot-time default mapping). The site labels the allocation for
// profiling.
func (m *Machine) Malloc(size uint64, mapID int, site string) (VA, error) {
	return m.heap.Malloc(size, mapID, site)
}

// Free releases a Malloc'd block.
func (m *Machine) Free(va VA) error { return m.heap.Free(va) }

// Remap migrates the memory region starting at the given mmap base to a
// different address mapping (§6.1's move-between-mappings operation):
// populated pages move into the new mapping's chunk group, and future
// faults follow. The base must be a region start (as returned by the
// kernel for large allocations), not an interior block address.
func (m *Machine) Remap(regionStart VA, mapID int) (int, error) {
	return m.as.Remap(regionStart, mapID)
}

// Touch simulates one cache-line access to va at the machine's current
// time and returns its completion time in nanoseconds.
func (m *Machine) Touch(va VA) (float64, error) {
	line, err := m.as.TranslateLine(va)
	if err != nil {
		return 0, err
	}
	done, err := m.ctrl.Access(m.now, line)
	if err != nil {
		return 0, err
	}
	m.now += 1 // nominal issue cadence
	return done, nil
}

// RunRefs executes a reference stream through the machine's engine
// (honoring its cache and miss-window model) and returns the elapsed
// simulated time in nanoseconds.
func (m *Machine) RunRefs(refs []VA) (float64, error) {
	s := &cpu.SliceStream{}
	for _, va := range refs {
		s.Refs = append(s.Refs, cpu.Ref{VA: va})
	}
	res, err := m.engine.Run([]cpu.Stream{s})
	if err != nil {
		return 0, err
	}
	return res.TimeNs, nil
}

// MemStats reports the device-side statistics accumulated so far.
type MemStats struct {
	Requests       uint64
	Bytes          uint64
	ThroughputGBs  float64
	ChannelsUsed   int
	CLPUtilization float64
	RowHitRate     float64
}

// Stats returns the accumulated memory statistics.
func (m *Machine) Stats() MemStats {
	s := m.dev.Stats()
	return MemStats{
		Requests:       s.Requests,
		Bytes:          s.Bytes,
		ThroughputGBs:  s.ThroughputGBs(),
		ChannelsUsed:   s.ChannelsUsed(),
		CLPUtilization: s.CLPUtilization(),
		RowHitRate:     s.RowHitRate(),
	}
}

// ResetStats clears the device statistics (bank state included) without
// touching allocations.
func (m *Machine) ResetStats() { m.dev.Reset(); m.now = 0 }

// Describe summarizes the machine configuration.
func (m *Machine) Describe() string {
	g := m.dev.Geometry()
	return fmt.Sprintf("%dGB HBM2, %d channels × %d banks, %s, %s",
		g.CapacityGiB, g.Channels, g.Banks, m.ctrl.Describe(), m.engine.Config().Name)
}

// CheckInvariants validates every layer of the machine, for tests and
// long-running examples.
func (m *Machine) CheckInvariants() error {
	if err := m.dev.CheckConservation(); err != nil {
		return err
	}
	if err := m.as.CheckInvariants(); err != nil {
		return err
	}
	if err := m.kernel.Phys.CheckInvariants(); err != nil {
		return err
	}
	return m.heap.CheckInvariants()
}
