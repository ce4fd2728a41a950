package system

import (
	"bytes"
	"testing"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tape"
	"repro/internal/workload"
)

// These tests are the package-API leg of the observability layer: the
// same counters the -metrics flag serializes are asserted as run
// invariants ("a selection cache hit performs zero optimizer steps",
// "every pooled device acquired is released"), and the Deterministic
// snapshot of a fixed sweep is pinned byte-stable — the golden contract
// behind committing -metrics output as a CI artifact.

// resetObsState puts the process-wide caches and the default registry
// into fresh-process state so counter values are a function of the work
// the calling test runs, then enables metrics for the test's duration.
func resetObsState(t *testing.T) {
	t.Helper()
	obsFreshProcess()
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.DisableMetrics()
		obsFreshProcess()
	})
}

// obsFreshProcess clears every cross-run cache a counter value could
// leak through. The HBM device pool intentionally survives (sync.Pool
// cannot be drained deterministically), which is why hbm.pool_news is
// registered Host() and excluded from deterministic snapshots.
func obsFreshProcess() {
	selections.Reset()
	profiles.Reset()
	tape.ResetCache()
	obs.Reset()
}

func counterValue(t *testing.T, s obs.Snapshot, name string) int64 {
	t.Helper()
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in snapshot", name)
	return 0
}

func obsTestWorkload() workload.Workload {
	return apps.NewKMeansApp(apps.Options{MaxRefs: 6_000})
}

var obsTestOptions = Options{
	Clusters: 3,
	DL:       cluster.DLOptions{SeqLen: 8, Steps: 24, MaxWindows: 16},
}

// TestObsSelectionCacheHitZeroTrainSteps pins the cache contract as a
// counter equality: the first DL run trains (train_steps > 0, one
// selection miss), the identical second run must be served from the
// selection cache with zero additional optimizer steps.
func TestObsSelectionCacheHitZeroTrainSteps(t *testing.T) {
	resetObsState(t)
	opts := obsTestOptions
	opts.Kind = SDMBSMDL

	if _, err := Run(obsTestWorkload(), opts); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	first := obs.Default.Snapshot()
	trained := counterValue(t, first, "nn.train_steps")
	if trained == 0 {
		t.Fatal("first pass recorded no nn.train_steps; the DL selector did not train")
	}
	if misses := counterValue(t, first, "select.cache_misses"); misses != 1 {
		t.Fatalf("select.cache_misses = %d after one fresh run, want 1", misses)
	}

	if _, err := Run(obsTestWorkload(), opts); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	second := obs.Default.Snapshot()
	if got := counterValue(t, second, "nn.train_steps"); got != trained {
		t.Fatalf("selection cache hit retrained: nn.train_steps %d -> %d, want unchanged", trained, got)
	}
	if hits := counterValue(t, second, "select.cache_hits"); hits != 1 {
		t.Fatalf("select.cache_hits = %d after identical rerun, want 1", hits)
	}
	// The obs mirror must agree with the trainer's own step counter.
	if total := int64(nn.TrainSteps()); trained > total {
		t.Fatalf("obs nn.train_steps = %d exceeds nn.TrainSteps() = %d", trained, total)
	}
}

// TestObsPoolAcquireReleaseBalanced pins the pooled-device lifecycle:
// after a Compare sweep quiesces, every hbm.Acquire has a matching
// hbm.Release (the PR 6 pooled-device leak class).
func TestObsPoolAcquireReleaseBalanced(t *testing.T) {
	resetObsState(t)
	_, err := Compare(obsTestWorkload(), obsTestOptions, []Kind{BSDM, SDMBSM, SDMBSMML})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	s := obs.Default.Snapshot()
	acq := counterValue(t, s, "hbm.pool_acquires")
	rel := counterValue(t, s, "hbm.pool_releases")
	if acq == 0 {
		t.Fatal("sweep acquired no pooled devices; instrumentation is dead")
	}
	if acq != rel {
		t.Fatalf("device pool unbalanced: %d acquires vs %d releases", acq, rel)
	}
}

// TestObsDeterministicSnapshotByteStable is the golden test behind the
// -metrics artifact: the Deterministic() snapshot of a fixed sweep,
// rerun from fresh-process state, must serialize to identical bytes —
// counters, histogram buckets, and span counts included.
func TestObsDeterministicSnapshotByteStable(t *testing.T) {
	obs.EnableMetrics()
	t.Cleanup(func() {
		obs.DisableMetrics()
		obsFreshProcess()
	})
	kinds := []Kind{SDMBSM, SDMBSMDL}
	sweep := func() []byte {
		obsFreshProcess()
		if _, err := Compare(obsTestWorkload(), obsTestOptions, kinds); err != nil {
			t.Fatalf("Compare: %v", err)
		}
		var buf bytes.Buffer
		if err := obs.Default.Snapshot().Deterministic().WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	one := sweep()
	two := sweep()
	if !bytes.Equal(one, two) {
		t.Fatalf("deterministic snapshot not byte-stable across identical sweeps:\n--- first\n%s\n--- second\n%s", one, two)
	}
	for _, name := range []string{`"system.runs"`, `"hbm.requests"`, `"nn.train_steps"`, `"schema": 5`} {
		if !bytes.Contains(one, []byte(name)) {
			t.Fatalf("snapshot missing %s:\n%s", name, one)
		}
	}
	for _, dropped := range []string{`"parallel.busy_ns"`, `"hbm.pool_news"`, `"parallel.width"`} {
		if bytes.Contains(one, []byte(dropped)) {
			t.Fatalf("host-dependent metric %s survived Deterministic():\n%s", dropped, one)
		}
	}
}
