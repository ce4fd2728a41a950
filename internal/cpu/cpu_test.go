package cpu

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/trace"
	"repro/internal/vm"
)

// rig builds a kernel, an address space with one big buffer, and a
// global-mapping controller.
func rig(t *testing.T, m mapping.Mapping) (*memctrl.Controller, *vm.AddressSpace, vm.VA) {
	t.Helper()
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	va, err := as.Mmap(64<<20, 0, "buf")
	if err != nil {
		t.Fatal(err)
	}
	dev := hbm.New(geom.Default(), hbm.DefaultTiming())
	return memctrl.NewGlobal(dev, m), as, va
}

// strideRefs materializes n references at the given line stride.
func strideRefs(base vm.VA, n, strideLines int) *SliceStream {
	s := &SliceStream{}
	for i := 0; i < n; i++ {
		s.Refs = append(s.Refs, Ref{VA: base + vm.VA(i*strideLines*geom.LineBytes)})
	}
	return s
}

func TestRunEmpty(t *testing.T) {
	ctrl, as, _ := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	res, err := e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 0 || res.TimeNs != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCacheFiltersRepeats(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	// Touch 64 lines twice: second pass hits in L1, so external
	// accesses ≈ 64.
	s := &SliceStream{}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 128 {
		t.Fatalf("references = %d", res.References)
	}
	if res.External != 64 || res.CacheHits != 64 {
		t.Fatalf("external = %d hits = %d", res.External, res.CacheHits)
	}
}

func TestAcceleratorHasNoCache(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(AcceleratorConfig(1), ctrl, as)
	s := &SliceStream{}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.External != 128 || res.CacheHits != 0 {
		t.Fatalf("accelerator filtered accesses: %+v", res)
	}
}

func TestMappingMattersForStridedStreams(t *testing.T) {
	// End-to-end: the same stride-32 workload runs much faster with a
	// stride-matched mapping than with the default.
	run := func(m mapping.Mapping) Result {
		ctrl, as, va := rig(t, m)
		e := New(CPUConfig(4), ctrl, as)
		streams := make([]Stream, 4)
		for i := range streams {
			streams[i] = strideRefs(va+vm.VA(i*16<<20), 4096, 32)
		}
		res, err := e.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dm := run(mapping.Identity{})
	bsm := run(mapping.ForStride(32, geom.Default()))
	speedup := bsm.SpeedupOver(dm)
	// With the realistic >130 ns memory latency the 4-core CPU is partly
	// latency-bound, so the channel-contention win is ~2-3x here (the
	// raw device-level gap is >10x, see the memctrl tests).
	if speedup < 2 {
		t.Fatalf("stride-matched mapping speedup %.2fx, want >2x", speedup)
	}
}

func TestMSHRDepthIncreasesOverlap(t *testing.T) {
	// More outstanding misses → more overlap → faster, for a
	// random-ish pattern that misses the cache.
	run := func(mshrs int) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(1)
		cfg.MSHRs = mshrs
		e := New(cfg, ctrl, as)
		res, err := e.Run([]Stream{strideRefs(va, 8192, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shallow := run(1)
	deep := run(16)
	if deep.TimeNs >= shallow.TimeNs {
		t.Fatalf("deep window (%.0f ns) not faster than blocking (%.0f ns)", deep.TimeNs, shallow.TimeNs)
	}
}

func TestMultipleCoresShareBandwidth(t *testing.T) {
	run := func(cores int) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(cores)
		e := New(cfg, ctrl, as)
		streams := make([]Stream, cores)
		for i := range streams {
			streams[i] = strideRefs(va+vm.VA(i*8<<20), 4096, 1)
		}
		res, err := e.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	// 4 cores do 4x the work; with abundant CLP it should take well
	// under 4x the time of one core's workload.
	if four.TimeNs > 3*one.TimeNs {
		t.Fatalf("4 cores: %.0f ns vs 1 core %.0f ns — no parallelism", four.TimeNs, one.TimeNs)
	}
}

func TestCollectorReceivesExternalAccessesOnly(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	col := trace.NewCollector(0)
	col.NoteAlloc("buf", va, 64<<20)
	e.Collector = col
	s := &SliceStream{}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 32; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
		}
	}
	if _, err := e.Run([]Stream{s}); err != nil {
		t.Fatal(err)
	}
	if got := col.TotalRefs(); got != 32 {
		t.Fatalf("collector saw %d refs, want 32 external only", got)
	}
}

func TestSegfaultPropagates(t *testing.T) {
	ctrl, as, _ := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	s := &SliceStream{Refs: []Ref{{VA: 0x10}}}
	if _, err := e.Run([]Stream{s}); err == nil {
		t.Fatal("unmapped reference did not error")
	}
}

func TestFaultAccounting(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	e := New(CPUConfig(1), ctrl, as)
	// Touch 4 distinct pages.
	s := &SliceStream{}
	for i := 0; i < 4; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.PageBytes)})
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 4 {
		t.Fatalf("faults = %d", res.Faults)
	}
}

func TestConfigNames(t *testing.T) {
	if CPUConfig(0).Cores != 4 {
		t.Fatal("default cores wrong")
	}
	if AcceleratorConfig(0).Cores != 4 {
		t.Fatal("default units wrong")
	}
	if CPUConfig(2).Name == "" || AcceleratorConfig(2).Name == "" {
		t.Fatal("empty config names")
	}
}

func TestPostedWritesDoNotStall(t *testing.T) {
	// A store-only stream never blocks on MSHRs: with MSHRs=1, a load
	// stream serializes on memory latency while a store stream issues at
	// the compute cadence.
	run := func(write bool) Result {
		ctrl, as, va := rig(t, nil)
		cfg := CPUConfig(1)
		cfg.MSHRs = 1
		e := New(cfg, ctrl, as)
		s := &SliceStream{}
		for i := 0; i < 2048; i++ {
			s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes), Write: write})
		}
		res, err := e.Run([]Stream{s})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	loads := run(false)
	stores := run(true)
	if stores.Writes != 2048 || loads.Writes != 0 {
		t.Fatalf("write accounting: %d / %d", stores.Writes, loads.Writes)
	}
	if stores.TimeNs >= loads.TimeNs {
		t.Fatalf("posted stores (%.0f ns) not faster than blocking loads (%.0f ns)",
			stores.TimeNs, loads.TimeNs)
	}
}

func TestWritesStillUseBandwidth(t *testing.T) {
	// Stores are posted but not free: they occupy the channel bus, so a
	// store stream to one channel is bus-limited.
	ctrl, as, va := rig(t, nil)
	cfg := AcceleratorConfig(1)
	e := New(cfg, ctrl, as)
	s := &SliceStream{}
	for i := 0; i < 2048; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*32*geom.LineBytes), Write: true})
	}
	if _, err := e.Run([]Stream{s}); err != nil {
		t.Fatal(err)
	}
	st := ctrl.Device().Stats()
	if st.Requests != 2048 {
		t.Fatalf("device saw %d requests", st.Requests)
	}
	if st.ChannelsUsed() != 1 {
		t.Fatalf("stride-32 stores used %d channels", st.ChannelsUsed())
	}
}

func TestRunProcsCoRunsTwoAddressSpaces(t *testing.T) {
	k := vm.NewKernel(geom.Default().Chunks())
	as1 := k.NewAddressSpace()
	as2 := k.NewAddressSpace()
	va1, _ := as1.Mmap(1<<20, 0, "p1")
	va2, _ := as2.Mmap(1<<20, 0, "p2")
	dev := hbm.New(geom.Default(), hbm.DefaultTiming())
	e := New(CPUConfig(2), memctrl.NewGlobal(dev, nil), nil)
	mk := func(base vm.VA) *SliceStream {
		s := &SliceStream{}
		for i := 0; i < 256; i++ {
			s.Refs = append(s.Refs, Ref{VA: base + vm.VA(i*geom.LineBytes)})
		}
		return s
	}
	res, err := e.RunProcs([]Proc{
		{AS: as1, Streams: []Stream{mk(va1)}},
		{AS: as2, Streams: []Stream{mk(va2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.References != 512 {
		t.Fatalf("references = %d", res.References)
	}
	if res.Faults == 0 {
		t.Fatal("no faults recorded across processes")
	}
	if err := as1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := as2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateL1sDoNotShareLines(t *testing.T) {
	// Two cores touching the same lines each miss independently in their
	// private L1s (no shared cache configured), so the external count is
	// the sum, not the union.
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(2)
	e := New(cfg, ctrl, as)
	mk := func() *SliceStream {
		s := &SliceStream{}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 32; i++ {
				s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*geom.LineBytes)})
			}
		}
		return s
	}
	res, err := e.Run([]Stream{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	// Each core: 32 misses (first pass) + 32 hits (second) → 64 external.
	if res.External != 64 || res.CacheHits != 64 {
		t.Fatalf("external=%d hits=%d, want 64/64", res.External, res.CacheHits)
	}
}

func TestWriteBackEvictionsReachMemory(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(1)
	cfg.L1Bytes = 4 * geom.LineBytes // 2 sets × 2 ways
	cfg.L1Ways = 2
	cfg.WriteBack = true
	e := New(cfg, ctrl, as)
	// Write lines 0,2,4,...: all map to set 0; evictions of dirty lines
	// must add write-back traffic beyond the demand misses.
	s := &SliceStream{}
	for i := 0; i < 32; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*2*geom.LineBytes), Write: true})
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.External <= 32 {
		t.Fatalf("external = %d, want demand misses plus write-backs", res.External)
	}
	if res.Writes <= 32 {
		t.Fatalf("writes = %d, want stores plus write-backs", res.Writes)
	}
}

func TestWriteBackOffByDefault(t *testing.T) {
	ctrl, as, va := rig(t, nil)
	cfg := CPUConfig(1)
	cfg.L1Bytes = 4 * geom.LineBytes
	cfg.L1Ways = 2
	e := New(cfg, ctrl, as)
	s := &SliceStream{}
	for i := 0; i < 32; i++ {
		s.Refs = append(s.Refs, Ref{VA: va + vm.VA(i*2*geom.LineBytes), Write: true})
	}
	res, err := e.Run([]Stream{s})
	if err != nil {
		t.Fatal(err)
	}
	if res.External != 32 {
		t.Fatalf("external = %d with write-back disabled, want 32", res.External)
	}
}

// TestRunRejectsInvalidConfig pins that a config without cores or
// MSHRs, or with an L1 geometry the cache cannot build, is an error
// naming the field, not a panic inside the MSHR ring, the core table or
// New.
func TestRunRejectsInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"MSHRs", Config{Name: "no-mshrs", Cores: 2}},
		{"MSHRs", Config{Name: "negative-mshrs", Cores: 1, MSHRs: -1}},
		{"Cores", Config{Name: "no-cores", MSHRs: 8}},
		{"Cores", Config{Name: "negative-cores", Cores: -3, MSHRs: 8}},
		{"Cores", Config{Name: "negative-cores-l1", Cores: -1, MSHRs: 8, L1Bytes: 64 << 10, L1Ways: 8}},
		{"L1Ways", Config{Name: "three-way-l1", Cores: 2, MSHRs: 8, L1Bytes: 64 << 10, L1Ways: 3}},
		{"L1Bytes", Config{Name: "non-pow2-l1", Cores: 1, MSHRs: 8, L1Bytes: 48 << 10, L1Ways: 8}},
	} {
		ctrl, as, va := rig(t, nil)
		_, err := New(tc.cfg, ctrl, as).Run([]Stream{strideRefs(va, 16, 1)})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: err = %v, want an error naming %s", tc.cfg.Name, err, tc.field)
		}
	}
}
