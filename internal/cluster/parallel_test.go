package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/trace"
)

func genSamples(n, per int, seed int64) [][]uint32 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]uint32, n)
	for i := range out {
		for j := 0; j < per; j++ {
			out[i] = append(out[i], uint32(r.Intn(1<<geom.OffsetBits)))
		}
	}
	return out
}

// TestChooseMappingBitIdenticalAcrossJobs pins the concurrent candidate
// evaluation: the identity and candidate replays run on independent
// devices and the margin comparison is a pure function of their
// results, so the chosen mapping cannot depend on the worker count.
func TestChooseMappingBitIdenticalAcrossJobs(t *testing.T) {
	g := geom.Default()
	samples := genSamples(4, 256, 5)
	var mean mapping.BFRV
	r := rand.New(rand.NewSource(9))
	for i := range mean {
		mean[i] = r.Float64()
	}
	run := func(jobs int) [geom.OffsetBits]uint32 {
		prev := parallel.SetJobs(jobs)
		defer parallel.SetJobs(prev)
		return chooseMapping(mean, samples, g, Guarded, "test").Rows()
	}
	serial := run(1)
	for _, jobs := range []int{2, 8} {
		if par := run(jobs); serial != par {
			t.Fatalf("jobs=%d: chooseMapping picked a different permutation", jobs)
		}
	}
}

// synthetic profile + delta trace exercising the full DL pipeline.
func genProfileAndDeltas(t *testing.T) (profile.Profile, []trace.DeltaSample) {
	t.Helper()
	r := rand.New(rand.NewSource(21))
	var p profile.Profile
	p.App = "synthetic"
	var deltas []trace.DeltaSample
	for vid := 0; vid < 4; vid++ {
		v := profile.VarProfile{VID: vid, Site: "site", Refs: 1000, Major: true}
		for i := range v.BFRV {
			v.BFRV[i] = r.Float64()
		}
		for j := 0; j < 128; j++ {
			v.Sample = append(v.Sample, uint32(r.Intn(1<<geom.OffsetBits)))
		}
		p.Vars = append(p.Vars, v)
		p.TotalRefs += v.Refs
	}
	for i := 0; i < 800; i++ {
		deltas = append(deltas, trace.DeltaSample{Delta: uint32(r.Intn(1 << geom.OffsetBits)), VID: int32(r.Intn(4))})
	}
	return p, deltas
}

// TestSelectDLBitIdenticalAcrossJobs runs the whole DL selection —
// windowing, batched joint training, clustering, candidate replays —
// end to end at several worker counts and requires identical selections
// (ProfilingTime, a host-clock measurement, excepted).
func TestSelectDLBitIdenticalAcrossJobs(t *testing.T) {
	p, deltas := genProfileAndDeltas(t)
	run := func(jobs int) Selection {
		prev := parallel.SetJobs(jobs)
		defer parallel.SetJobs(prev)
		sel, err := SelectDL(p, deltas, 3, geom.Default(), DLOptions{Steps: 40, MaxWindows: 32}, Guarded)
		if err != nil {
			t.Fatal(err)
		}
		sel.ProfilingTime = time.Duration(0)
		return sel
	}
	serial := run(1)
	for _, jobs := range []int{2, 8} {
		if par := run(jobs); !reflect.DeepEqual(serial, par) {
			t.Fatalf("jobs=%d: DL selection diverged from serial run", jobs)
		}
	}
}
