package memctrl

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/amu"
	"repro/internal/cmt"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/mapping"
)

func newDev() *hbm.Device { return hbm.New(geom.Default(), hbm.DefaultTiming()) }

// mustAccess issues one access and fails the test on a lookup error.
func mustAccess(t *testing.T, c *Controller, at float64, l geom.LineAddr) float64 {
	t.Helper()
	done, err := c.Access(at, l)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// strideConfig is the crossbar setting of the stride-s bit shuffle.
func strideConfig(t *testing.T, s int) amu.Config {
	t.Helper()
	cfg, err := amu.ConfigOf(mapping.ForStride(s, geom.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// bindAll installs m and binds every chunk of table to it, so an SDAM
// controller over table applies m everywhere, as a global one does.
func bindAll(t *testing.T, table *cmt.Table, m *mapping.Linear) {
	t.Helper()
	cfg, err := amu.ConfigOf(m)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := table.AllocMappingIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < table.Chunks(); c++ {
		if err := table.BindChunk(c, idx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGlobalDefaultsToIdentity(t *testing.T) {
	c := NewGlobal(newDev(), nil)
	if !strings.Contains(c.Describe(), "DM") {
		t.Fatalf("Describe = %q", c.Describe())
	}
	if c.SDAM() {
		t.Fatal("global controller claims SDAM")
	}
}

func TestStrideContentionUnderGlobalDM(t *testing.T) {
	// The motivating experiment: stride-32 copy under the default
	// mapping funnels into one channel; a stride-matched shuffle spreads
	// it across all 32.
	run := func(m mapping.Mapping) hbm.Stats {
		c := NewGlobal(newDev(), m)
		for i := 0; i < 2048; i++ {
			mustAccess(t, c, 0, geom.LineAddr(i*32))
		}
		return c.Device().Stats()
	}
	dm := run(mapping.Identity{})
	if dm.ChannelsUsed() != 1 {
		t.Fatalf("DM stride 32: %d channels used, want 1", dm.ChannelsUsed())
	}
	bsm := run(mapping.ForStride(32, geom.Default()))
	if bsm.ChannelsUsed() != 32 {
		t.Fatalf("tailored BSM stride 32: %d channels used, want 32", bsm.ChannelsUsed())
	}
	speedup := dm.LastFinish / bsm.LastFinish
	if speedup < 10 {
		t.Fatalf("tailored mapping speedup %.1fx, want >10x (paper Fig 3: ~20x)", speedup)
	}
}

func TestSDAMRoutesPerChunkMappings(t *testing.T) {
	dev := newDev()
	table := cmt.New(dev.Geometry().Chunks())
	ctrl := NewSDAM(dev, table, amu.New(8))
	if !ctrl.SDAM() || ctrl.Table() != table {
		t.Fatal("SDAM accessors wrong")
	}

	// Chunk 0 keeps the default mapping; chunk 1 gets a stride-16 shuffle.
	idx, err := table.AllocMappingIndex(strideConfig(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.BindChunk(1, idx); err != nil {
		t.Fatal(err)
	}

	// Stride-16 accesses within chunk 1 must fan out across channels...
	for i := 0; i < 1024; i++ {
		mustAccess(t, ctrl, 0, geom.Join(1, uint32(i*16)%geom.LinesPerChunk))
	}
	if n := dev.Stats().ChannelsUsed(); n != 32 {
		t.Fatalf("chunk with tailored mapping used %d channels, want 32", n)
	}

	// ...while the same pattern in chunk 0 (default mapping) stays narrow.
	dev.Reset()
	for i := 0; i < 1024; i++ {
		mustAccess(t, ctrl, 0, geom.Join(0, uint32(i*16)%geom.LinesPerChunk))
	}
	if n := dev.Stats().ChannelsUsed(); n > 2 {
		t.Fatalf("default-mapped chunk used %d channels, want ≤2", n)
	}
}

func TestAccessRejectsOutOfRangeChunk(t *testing.T) {
	dev := newDev()
	ctrl := NewSDAM(dev, cmt.New(4), amu.New(1))
	if _, err := ctrl.Access(0, geom.Join(10, 0)); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}

func TestNewSDAMRequiresParts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil CMT accepted")
		}
	}()
	NewSDAM(newDev(), nil, amu.New(1))
}

func TestCMTLookupIsHiddenByFrontEnd(t *testing.T) {
	// The 6 ns CMT SRAM read overlaps the controller front end (80 ns),
	// so an SDAM access with the default mapping completes exactly when
	// the equivalent global-mapping access does.
	devA, devB := newDev(), newDev()
	g := NewGlobal(devA, mapping.Identity{})
	s := NewSDAM(devB, cmt.New(devB.Geometry().Chunks()), amu.New(8))
	ta := mustAccess(t, g, 0, 0)
	tb := mustAccess(t, s, 0, 0)
	if tb != ta {
		t.Fatalf("SDAM path added %v ns over the global path", tb-ta)
	}
	if lat := cmt.StorageBits(devB.Geometry().Chunks()).LatencyNanos; lat >= devB.Timing().TFront {
		t.Fatalf("CMT latency %v not actually hidden by %v front end", lat, devB.Timing().TFront)
	}
}

func TestGlobalXORHashSpreadsManyStrides(t *testing.T) {
	// HM's defining property: decent (not perfect) channel spread across
	// a wide range of power-of-two strides.
	c := NewGlobal(newDev(), mapping.DefaultXORHash())
	for _, stride := range []int{1, 2, 4, 8, 16, 32, 64} {
		c.Device().Reset()
		for i := 0; i < 1024; i++ {
			mustAccess(t, c, 0, geom.LineAddr(i*stride)%geom.LineAddr(geom.Default().TotalLines()))
		}
		if n := c.Device().Stats().ChannelsUsed(); n < 8 {
			t.Errorf("HM stride %d: only %d channels used", stride, n)
		}
	}
}

// TestSDAMWithDefaultsMatchesGlobalIdentity checks that the two
// translate paths agree: an SDAM controller with every chunk bound to a
// mapping behaves exactly like a global controller booted with it —
// same completion time for every access of any trace, same device
// statistics. With Identity the CMT keeps only its boot default. XOR
// maps such as HM are global-only: the paper's CMT stores crossbar
// settings, which only express bit shuffles.
func TestSDAMWithDefaultsMatchesGlobalIdentity(t *testing.T) {
	var flips mapping.BFRV
	r := rand.New(rand.NewSource(5))
	for i := range flips {
		flips[i] = r.Float64()
	}
	for _, m := range []mapping.Mapping{
		mapping.Identity{},
		mapping.ForStride(16, geom.Default()),
		mapping.FromBFRV(flips, geom.Default(), "BSM-random"),
	} {
		lin := m.Linear()
		t.Run(lin.Name(), func(t *testing.T) {
			devA, devB := newDev(), newDev()
			g := NewGlobal(devA, m)
			table := cmt.New(devB.Geometry().Chunks())
			if _, ok := m.(mapping.Identity); !ok {
				bindAll(t, table, lin)
			}
			s := NewSDAM(devB, table, amu.New(8))
			f := func(raw uint64, gap uint8) bool {
				l := geom.LineAddr(raw % devA.Geometry().TotalLines())
				at := float64(gap)
				return mustAccess(t, g, at, l) == mustAccess(t, s, at, l)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Fatal(err)
			}
			if sa, sb := devA.Stats(), devB.Stats(); !reflect.DeepEqual(sa, sb) {
				t.Fatalf("diverged: %+v vs %+v", sa, sb)
			}
		})
	}
}

// TestIssuePathZeroAllocs pins the steady-state issue path — SDAM and
// global — at zero allocations per access: the chunk's compiled mapping
// is cached, the translation is table loads, and the device's fused
// AccessLine touches only preallocated SoA planes.
func TestIssuePathZeroAllocs(t *testing.T) {
	dev := newDev()
	table := cmt.New(dev.Geometry().Chunks())
	idx, err := table.AllocMappingIndex(strideConfig(t, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := table.BindChunk(1, idx); err != nil {
		t.Fatal(err)
	}
	sdam := NewSDAM(dev, table, amu.New(8))
	for i := 0; i < 1024; i++ { // warm the compiled-config cache
		mustAccess(t, sdam, 0, geom.Join(i%2, uint32(i)%geom.LinesPerChunk))
	}
	var i int
	if n := testing.AllocsPerRun(500, func() {
		i++
		if _, err := sdam.Access(float64(i), geom.Join(i%2, uint32(i*7)%geom.LinesPerChunk)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SDAM issue path allocates %.1f per access, want 0", n)
	}

	for _, m := range []mapping.Mapping{mapping.ForStride(16, dev.Geometry()), mapping.DefaultXORHash()} {
		global := NewGlobal(newDev(), m)
		mustAccess(t, global, 0, 0)
		if n := testing.AllocsPerRun(500, func() {
			i++
			if _, err := global.Access(float64(i), geom.LineAddr(i*16)); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("global %s issue path allocates %.1f per access, want 0", m.Linear().Name(), n)
		}
	}
}
