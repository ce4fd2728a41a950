package tracefile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/system"
	"repro/internal/tape"
	"repro/internal/workload"
)

func record(t *testing.T) *File {
	t.Helper()
	w := workload.NewStrideCopy([]int{1, 32}, 2_000, 4<<20)
	f, err := Record(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRecordShape(t *testing.T) {
	f := record(t)
	if len(f.Vars) != 2 || len(f.Threads) != 2 {
		t.Fatalf("vars=%d threads=%d", len(f.Vars), len(f.Threads))
	}
	if f.Refs() != 4_000 {
		t.Fatalf("refs = %d", f.Refs())
	}
	for _, v := range f.Vars {
		if !strings.HasPrefix(v.Site, "stridecopy/") || v.Bytes != 4<<20 {
			t.Fatalf("var = %+v", v)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := record(t)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != f.Name || got.Refs() != f.Refs() || len(got.Vars) != len(f.Vars) {
		t.Fatal("round trip lost data")
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"vars":[{"site":"a","bytes":64}],"threads":[[{"v":1,"o":0}]]}`)); err == nil {
		t.Fatal("dangling variable index accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"vars":[{"site":"a","bytes":64}],"threads":[[{"v":0,"o":64}]]}`)); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
}

// TestReplayRejectsOverflowingVariable: a trace is outside input, and a
// variable whose size overflows the allocator's round-up must fail the
// run with an error, not wrap into aliased zero-byte blocks.
func TestReplayRejectsOverflowingVariable(t *testing.T) {
	f, err := Load(strings.NewReader(`{"version":1,"name":"huge","vars":[` +
		`{"site":"a","bytes":18446744073709551615},{"site":"b","bytes":18446744073709551615}],` +
		`"threads":[[{"v":0,"o":0},{"v":1,"o":64}]]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = system.Run(f.Workload(), system.Options{Kind: system.BSDM})
	if err == nil || !strings.Contains(err.Error(), "overflows") || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want the allocator's overflow error", err)
	}
}

func TestReplayRunsUnderSDAM(t *testing.T) {
	// A recorded trace replays under any configuration; the funneled
	// stride in the recording still funnels on replay under BS+DM and is
	// fixed by SDAM.
	w := workload.NewStrideCopy([]int{32, 32, 32, 32}, 4_000, 8<<20)
	f, err := Record(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	rw := f.Workload()
	if rw.Name() != w.Name()+"-trace" {
		t.Fatalf("name = %q", rw.Name())
	}
	base, err := system.Run(rw, system.Options{Kind: system.BSDM})
	if err != nil {
		t.Fatal(err)
	}
	sdam, err := system.Run(rw, system.Options{Kind: system.SDMBSMML, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := sdam.SpeedupOver(base); s < 2 {
		t.Fatalf("replayed-trace SDAM speedup %.2fx, want >2x", s)
	}
}

func TestReplayPreservesReferenceCount(t *testing.T) {
	w := apps.NewHashJoin(apps.Options{MaxRefs: 10_000})
	f, err := Record(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.Run(f.Workload(), system.Options{Kind: system.BSDM})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Run.References) != f.Refs() {
		t.Fatalf("replayed %d refs, recorded %d", res.Run.References, f.Refs())
	}
	if res.Run.Writes == 0 {
		t.Fatal("write flags lost in the trace")
	}
}

// TestReplaySharesOneTape: cells replaying the same trace share one
// reference tape through its content-hash TapeKey, and a trace with
// different contents gets a different key.
func TestReplaySharesOneTape(t *testing.T) {
	tape.ResetCache()
	defer tape.ResetCache()
	f := record(t)
	if _, err := system.Compare(f.Workload(), system.Options{}, []system.Kind{system.BSDM, system.BSHM}); err != nil {
		t.Fatal(err)
	}
	if s := tape.CacheStats(); s.Builds != 1 || s.Hits != 1 || s.Live != 0 {
		t.Fatalf("tape stats = %+v, want 1 build shared by both cells", s)
	}
	key := func(f *File) string { return f.Workload().TapeKey() }
	g := record(t)
	if key(f) != key(g) {
		t.Fatal("equal traces have different keys")
	}
	g.Threads[0][0].Off += 64
	if key(f) == key(g) {
		t.Fatal("a changed reference kept the key")
	}
}

// FuzzLoad ensures arbitrary bytes never panic the loader.
func FuzzLoad(f *testing.F) {
	good, err := Record(workload.NewStrideCopy([]int{1}, 100, 1<<20), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := good.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Load(bytes.NewReader(data)) // must not panic
	})
}
