package sdam

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestMachineQuickstartFlow(t *testing.T) {
	m := NewMachine(MachineConfig{})
	if !strings.Contains(m.Describe(), "32 channels") {
		t.Fatalf("Describe = %q", m.Describe())
	}

	// A stride-2KB variable under the default mapping funnels into one
	// channel; with a stride-tuned mapping it spreads over all 32.
	const stride = 32 * geom.LineBytes
	buf, err := m.Malloc(16<<20, 0, "default-buf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		if _, err := m.Touch(buf + VA(i*stride)%VA(16<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if ch := m.Stats().ChannelsUsed; ch != 1 {
		t.Fatalf("default mapping used %d channels, want 1", ch)
	}

	m.ResetStats()
	id, err := m.AddStrideMapping(stride)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := m.Malloc(16<<20, id, "tuned-buf")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i++ {
		if _, err := m.Touch(buf2 + VA(i*stride)%VA(16<<20)); err != nil {
			t.Fatal(err)
		}
	}
	if ch := m.Stats().ChannelsUsed; ch != 32 {
		t.Fatalf("tuned mapping used %d channels, want 32", ch)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMachineAddAddrMapValidation(t *testing.T) {
	m := NewMachine(MachineConfig{})
	if _, err := m.AddAddrMap([]int{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
	perm := make([]int, 15)
	for i := range perm {
		perm[i] = (i + 5) % 15
	}
	for _, bad := range [][]int{
		append([]int{perm[1]}, perm[1:]...), // PA bit repeated
		append([]int{15}, perm[1:]...),      // PA bit out of range
		append([]int{-1}, perm[1:]...),
	} {
		if _, err := m.AddAddrMap(bad); err == nil {
			t.Fatalf("bad permutation %v accepted", bad)
		}
		if _, err := m.AddSecureAddrMap(bad); err == nil {
			t.Fatalf("bad permutation %v accepted by AddSecureAddrMap", bad)
		}
		if _, err := m.GuardOverhead(bad); err == nil {
			t.Fatalf("bad permutation %v accepted by GuardOverhead", bad)
		}
	}
	id, err := m.AddAddrMap(perm)
	if err != nil {
		t.Fatal(err)
	}
	if id <= 0 {
		t.Fatalf("id = %d", id)
	}
}

func TestMachineRunRefs(t *testing.T) {
	m := NewMachine(MachineConfig{Engine: AcceleratorEngine(2)})
	buf, err := m.Malloc(1<<20, 0, "b")
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]VA, 512)
	for i := range refs {
		refs[i] = buf + VA(i*geom.LineBytes)
	}
	elapsed, err := m.RunRefs(refs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
	if m.Stats().Requests != 512 {
		t.Fatalf("requests = %d", m.Stats().Requests)
	}
}

// TestMachineRejectsBadL1Geometry pins that an engine whose L1 the
// cache cannot build boots anyway and reports the geometry from its
// first run, instead of panicking in NewMachine.
func TestMachineRejectsBadL1Geometry(t *testing.T) {
	cfg := CPUEngine(2)
	cfg.L1Bytes, cfg.L1Ways = 64<<10, 3
	m := NewMachine(MachineConfig{Engine: cfg})
	buf, err := m.Malloc(1<<20, 0, "b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunRefs([]VA{buf}); err == nil || !strings.Contains(err.Error(), "L1Ways") {
		t.Fatalf("RunRefs err = %v, want an error naming L1Ways", err)
	}
}

func TestMachineFree(t *testing.T) {
	m := NewMachine(MachineConfig{})
	va, err := m.Malloc(4096, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(va); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(va); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestRunBenchmarkFacade(t *testing.T) {
	w := NewStrideCopy([]int{8, 8, 8, 8}, 2000, 4<<20)
	res, err := RunBenchmark(w, Options{Kind: BSDM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.External == 0 {
		t.Fatal("no external accesses")
	}
}

func TestCompareFacade(t *testing.T) {
	w := NewStrideCopy([]int{32, 32, 32, 32}, 2000, 4<<20)
	rs, err := Compare(w, Options{}, []Kind{BSDM, SDMBSM})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d", len(rs))
	}
	if rs[1].SpeedupOver(rs[0]) <= 1 {
		t.Fatalf("SDAM speedup %.2f on funneled strides", rs[1].SpeedupOver(rs[0]))
	}
}

func TestProxyFacade(t *testing.T) {
	names := ProxyNames()
	if len(names) != 19 {
		t.Fatalf("proxies = %d", len(names))
	}
	w, err := NewProxy("mcf", ProxyOptions{Refs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "mcf" {
		t.Fatalf("name = %q", w.Name())
	}
	if _, err := NewProxy("bogus", ProxyOptions{}); err == nil {
		t.Fatal("bogus proxy accepted")
	}
}

func TestKernelConstructors(t *testing.T) {
	opts := KernelOptions{MaxRefs: 100}
	for _, w := range []Workload{
		NewBFS(opts), NewPageRank(opts), NewSSSP(opts), NewHashJoin(opts),
		NewMergeJoin(opts), NewKMeans(opts), NewHNSW(opts), NewIVFPQ(opts),
	} {
		if w.Name() == "" {
			t.Fatal("unnamed kernel")
		}
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) != 14 {
		t.Fatalf("experiments = %d", len(Experiments()))
	}
	rep, err := RunExperiment("table3", true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table3" {
		t.Fatalf("id = %q", rep.ID)
	}
	if _, err := RunExperiment("bogus", true); err == nil {
		t.Fatal("bogus experiment accepted")
	} else if !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("error = %v", err)
	}
}

func TestDefaultsExposed(t *testing.T) {
	if DefaultGeometry().Channels != 32 {
		t.Fatal("geometry")
	}
	if DefaultTiming().TBurst <= 0 {
		t.Fatal("timing")
	}
	if CPUEngine(2).Cores != 2 || AcceleratorEngine(2).Cores != 2 {
		t.Fatal("engines")
	}
}

func TestCoRunFacade(t *testing.T) {
	ws := []Workload{
		NewStrideCopy([]int{32, 32}, 2000, 4<<20),
		NewStrideCopy([]int{64, 64}, 2000, 4<<20),
	}
	res, err := CoRun(ws, Options{Kind: SDMBSMML, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.References != 8000 {
		t.Fatalf("references = %d", res.Run.References)
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, n := range append(KernelNames(), "mcf") {
		w, err := NewWorkloadByName(n, 1000)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if w.Name() != n {
			t.Fatalf("name %q != %q", w.Name(), n)
		}
	}
	if _, err := NewWorkloadByName("nonesuch", 1000); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestMachineSecureMapping(t *testing.T) {
	m := NewMachine(MachineConfig{})
	over, err := m.GuardOverhead(IdentityPerm())
	if err != nil {
		t.Fatal(err)
	}
	if over != 0.125 {
		t.Fatalf("identity guard overhead = %v", over)
	}
	id, err := m.AddSecureAddrMap(IdentityPerm())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Malloc(1<<20, id, "secret"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSecureAddrMap([]int{1}); err == nil {
		t.Fatal("bad perm accepted")
	}
	if _, err := m.GuardOverhead([]int{1}); err == nil {
		t.Fatal("bad perm accepted by GuardOverhead")
	}
}

func TestMachineRemap(t *testing.T) {
	m := NewMachine(MachineConfig{})
	// A large allocation gets its own heap region, so the block base is
	// the region base and Remap applies to it.
	va, err := m.Malloc(8<<20, 0, "big")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := m.Touch(va + VA(i*4096)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := m.AddStrideMapping(2048)
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Remap(va, id)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no pages migrated")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilePersistenceFacade(t *testing.T) {
	w := NewStrideCopy([]int{16, 16}, 3000, 4<<20)
	prof, _, err := ProfileWorkload(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prof.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != prof.App || len(got.Vars) != len(prof.Vars) {
		t.Fatal("round trip lost data")
	}
	// The loaded profile must drive selection identically.
	a, err := SelectKMeans(prof, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectKMeans(got, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.MappingsUsed() != b.MappingsUsed() {
		t.Fatal("selection differs after reload")
	}
}
