// Package amu models the paper's Address Mapping Unit (§5.2): a crossbar
// of single-bit switches that rearranges the 15 chunk-offset bits of a
// physical address into the hardware-address bit order.
//
// The model is functional (it computes the same transform the RTL would)
// and structural (it accounts for switches, configuration bits, and a
// relative area estimate so Table 3's hardware-cost story can be
// reproduced from the simulator).
package amu

import (
	"fmt"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/mapping"
)

// Width is the crossbar width in bits: the chunk offset at cache-line
// granularity.
const Width = geom.OffsetBits

// ConfigBitsPerSelect is the number of bits needed to name the closed
// switch in one crossbar column: ceil(log2(Width)).
const ConfigBitsPerSelect = 4 // ceil(log2(15))

// ConfigBits is the total configuration width of one crossbar setting.
// The paper (§5.3) approximates 15×log2(15) ≈ 60 bits; with whole-bit
// selects this is exactly 15×4 = 60.
const ConfigBits = Width * ConfigBitsPerSelect

// Config is one crossbar configuration: Config[i] names the input (PA
// offset) bit wired to output (HA offset) bit i. It is the serialized
// form of a bit-shuffle mapping and what the CMT's second-level table
// stores.
type Config [Width]uint8

// ConfigOf serializes a mapping into crossbar switch selects. Only a
// bit permutation has one: the crossbar closes one switch per column,
// so every row of the matrix must select a single PA bit. An XOR map
// such as HM is rejected.
func ConfigOf(m *mapping.Linear) (Config, error) {
	var c Config
	for i, r := range m.Rows() {
		if bits.OnesCount32(r) != 1 {
			return Config{}, fmt.Errorf("amu: mapping %s is not a bit shuffle (HA bit %d XORs PA bits %#x)", m.Name(), i, r)
		}
		c[i] = uint8(bits.TrailingZeros32(r))
	}
	return c, nil
}

// Linear reconstructs the mapping a configuration realizes, compiled
// for translation.
func (c Config) Linear(name string) (*mapping.Linear, error) {
	perm := make([]int, Width)
	for i, p := range c {
		perm[i] = int(p)
	}
	return mapping.NewShuffle(perm, name)
}

// Valid reports whether the configuration is a legal crossbar setting:
// every select in range and exactly one closed switch per column (i.e.
// the selects form a permutation, which the paper's constraint "only one
// closed switch in each column" enforces in hardware).
func (c Config) Valid() bool {
	var seen [Width]bool
	for _, p := range c {
		if int(p) >= Width || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// Identity returns the pass-through configuration.
func Identity() Config {
	var c Config
	for i := range c {
		c[i] = uint8(i)
	}
	return c
}

// AMU is one address-mapping unit instance. The prototype replicates the
// unit eight times to sustain peak HBM bandwidth on the FPGA (§7.1); the
// replication factor only matters for the area report, not for function.
type AMU struct {
	replicas int
	// lowered memoizes the compiled mapping of each configuration seen
	// by this bank.
	lowered map[Config]*mapping.Linear
}

// New creates an AMU bank with the given replication factor. A factor
// below one is treated as one.
func New(replicas int) *AMU {
	if replicas < 1 {
		replicas = 1
	}
	return &AMU{replicas: replicas}
}

// Linear returns the memoized compiled mapping of cfg: the software
// analog of the closed crossbar, which moves the whole offset in one
// step. Each distinct configuration compiles once per AMU bank — the
// controller's per-chunk cache shares these across all chunks bound to
// the same mapping. The tables cost 1.5 KB per distinct mapping, bounded
// by the CMT's 256 live mappings. Not safe for concurrent use.
func (a *AMU) Linear(cfg Config) (*mapping.Linear, error) {
	if m, ok := a.lowered[cfg]; ok {
		return m, nil
	}
	m, err := cfg.Linear("AMU")
	if err != nil {
		return nil, err
	}
	if a.lowered == nil {
		a.lowered = make(map[Config]*mapping.Linear)
	}
	a.lowered[cfg] = m
	return m, nil
}

// Cost describes the structural footprint of the AMU bank.
type Cost struct {
	Replicas        int
	SwitchesPerUnit int // n² single-bit switches
	TotalSwitches   int
	ConfigBits      int     // per-mapping configuration width
	RelativeArea    float64 // fraction of the prototype CPU area (paper: ~2 %)
}

// Cost returns the structural cost model. The paper reports the AMU adds
// about 2 % logic to the RISC-V prototype (Table 3 lists 0.5 % of the
// FPGA's total LOGIC for 8 replicas against the core's 91.8 %); we carry
// that calibration constant so reports stay comparable.
func (a *AMU) Cost() Cost {
	perUnit := Width * Width
	return Cost{
		Replicas:        a.replicas,
		SwitchesPerUnit: perUnit,
		TotalSwitches:   perUnit * a.replicas,
		ConfigBits:      ConfigBits,
		RelativeArea:    0.005 / 0.918 * float64(a.replicas) / 8,
	}
}

// String summarizes the cost model.
func (c Cost) String() string {
	return fmt.Sprintf("AMU: %d replicas × %d switches (%d total), %d config bits, ≈%.2f%% of core area",
		c.Replicas, c.SwitchesPerUnit, c.TotalSwitches, c.ConfigBits, c.RelativeArea*100)
}
