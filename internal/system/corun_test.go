package system

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workload"
)

func corunPair(t *testing.T) []workload.Workload {
	t.Helper()
	a, err := workload.NewProxyByName("mcf", workload.ProxyOptions{Refs: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.NewProxyByName("libquantum", workload.ProxyOptions{Refs: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	return []workload.Workload{a, b}
}

func TestCoRunBaseline(t *testing.T) {
	res, err := CoRun(corunPair(t), Options{Kind: BSDM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.References != 20_000 {
		t.Fatalf("references = %d", res.Run.References)
	}
	if !strings.Contains(res.Workload, "mcf+libquantum") {
		t.Fatalf("workload label = %q", res.Workload)
	}
}

func TestCoRunSharesCMTBudget(t *testing.T) {
	res, err := CoRun(corunPair(t), Options{Kind: SDMBSMML, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Both applications' mappings live in the one CMT.
	if res.MappingsInstalled < 1 || res.MappingsInstalled > 9 {
		t.Fatalf("mappings installed = %d", res.MappingsInstalled)
	}
	if res.ProfilingTime <= 0 {
		t.Fatal("profiling time missing")
	}
}

func TestCoRunSDAMDoesNotLose(t *testing.T) {
	ws := []workload.Workload{
		workload.NewStrideCopy([]int{32, 32}, 4_000, 8<<20),
		workload.NewStrideCopy([]int{128, 128}, 4_000, 8<<20),
	}
	base, err := CoRun(ws, Options{Kind: BSDM, Engine: cpu.AcceleratorConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	sdam, err := CoRun(ws, Options{Kind: SDMBSMML, Clusters: 4, Engine: cpu.AcceleratorConfig(4)})
	if err != nil {
		t.Fatal(err)
	}
	if s := sdam.SpeedupOver(base); s < 2 {
		t.Fatalf("co-run SDAM speedup %.2fx on funneled strides, want >2x", s)
	}
}

func TestCoRunEmpty(t *testing.T) {
	if _, err := CoRun(nil, Options{}); err == nil {
		t.Fatal("empty co-run accepted")
	}
}

func TestCoRunGlobalConfigs(t *testing.T) {
	for _, k := range []Kind{BSBSM, BSHM} {
		res, err := CoRun(corunPair(t), Options{Kind: k})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.Run.External == 0 {
			t.Fatalf("%s: no traffic", k)
		}
	}
}

func TestCoRunCMTExhaustion(t *testing.T) {
	// Co-running apps divide the one 256-slot CMT among themselves and
	// nothing dedupes across apps: each copy of this eight-stride app
	// installs its own ML selection of about six mappings. 42 copies fit
	// (253 live mappings); the 43rd must be refused with an error that
	// names the app whose install failed, not a corrupted table.
	mix := func(n int) []workload.Workload {
		ws := make([]workload.Workload, n)
		for i := range ws {
			ws[i] = workload.NewStrideCopy([]int{2, 4, 8, 16, 32, 64, 128, 256}, 500, 1<<20)
		}
		return ws
	}
	o := Options{Kind: SDMBSMML, Clusters: 8}
	res, err := CoRun(mix(42), o)
	if err != nil {
		t.Fatalf("42 apps: %v", err)
	}
	if res.MappingsInstalled != 253 {
		t.Fatalf("42 apps: mappings installed = %d, want 253", res.MappingsInstalled)
	}
	_, err = CoRun(mix(43), o)
	if err == nil {
		t.Fatal("43 apps fit in the 256-slot CMT")
	}
	for _, want := range []string{"cmt: all 256 mapping slots in use", "stridecopy-[2 4 8 16 32 64 128 256]"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
}
