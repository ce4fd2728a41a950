package memctrl_test

import (
	"reflect"
	"testing"

	"repro/internal/amu"
	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/hbm"
	"repro/internal/heap"
	"repro/internal/mapping"
	"repro/internal/memctrl"
	"repro/internal/tape"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestEngineSDAMMatchesGlobal is the cross-path check at engine level:
// one recorded tape replays through cpu.Engine over a global controller
// booted with a bit shuffle, and over an SDAM controller whose process
// allocates every variable under that shuffle's mapping ID. The vm,
// CMT, AMU memo and per-chunk cache sit on the second path only; the
// results must still be equal. XOR maps stay global-only (the CMT
// stores crossbar settings), so the case uses a shuffle.
func TestEngineSDAMMatchesGlobal(t *testing.T) {
	g := geom.Default()
	m := mapping.ForStride(32, g)
	cfg, err := amu.ConfigOf(m)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewStrideCopy([]int{1, 7, 32}, 2000, 4<<20)
	var tp *tape.Tape
	run := func(sdam bool, global mapping.Mapping) (cpu.Result, hbm.Stats) {
		k := vm.NewKernel(g.Chunks())
		as := k.NewAddressSpace()
		mapID := 0
		if sdam {
			if mapID, err = k.AddAddrMap(cfg); err != nil {
				t.Fatal(err)
			}
		}
		var lay tape.Layout
		env := &workload.Env{AS: as, Heap: heap.New(as), MapIDFor: func(string) int { return mapID }, OnAlloc: lay.Note}
		if err := w.Setup(env); err != nil {
			t.Fatal(err)
		}
		if tp == nil {
			tp = tape.Record(w.Streams(1), lay)
		}
		streams, err := tp.Streams(&lay)
		if err != nil {
			t.Fatal(err)
		}
		dev := hbm.New(g, hbm.DefaultTiming())
		ctrl := memctrl.NewGlobal(dev, global)
		if sdam {
			ctrl = memctrl.NewSDAM(dev, k.Table, amu.New(8))
		}
		res, err := cpu.New(cpu.CPUConfig(4), ctrl, as).Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return res, dev.Stats()
	}
	gres, gstats := run(false, m)
	sres, sstats := run(true, nil)
	if gres != sres {
		t.Fatalf("engine results diverge: global %+v, SDAM %+v", gres, sres)
	}
	if !reflect.DeepEqual(gstats, sstats) {
		t.Fatalf("device stats diverge: global %+v, SDAM %+v", gstats, sstats)
	}
	if dm, _ := run(false, mapping.Identity{}); dm == gres {
		t.Fatal("the shuffle does not change this tape's timing; the comparison is vacuous")
	}
}
