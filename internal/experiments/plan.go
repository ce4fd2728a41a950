package experiments

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
	"repro/internal/system"
	"repro/internal/workload"
)

// cell is one run an experiment makes under o: system.CoRun of ws when
// corun is set, else system.Run of ws[0]. An experiment that reads the
// memos builds its cells in one function, which is both what it runs
// and what it declares to the catalog's plan (Runner.cells).
type cell struct {
	ws    []workload.Workload
	corun bool
	o     system.Options
}

// run runs c on clones of its workloads, so cells may share instances.
func (c cell) run() (system.Result, error) {
	var res system.Result
	var err error
	if !c.corun {
		res, err = system.Run(c.ws[0].Clone(), c.o)
	} else {
		ws := make([]workload.Workload, len(c.ws))
		for i, w := range c.ws {
			ws[i] = w.Clone()
		}
		res, err = system.CoRun(ws, c.o)
	}
	if err != nil {
		err = fmt.Errorf("%s on %s: %w", res.Config, res.Workload, err)
	}
	return res, err
}

// runCells fans the cells out over the worker pool; results come back
// in cell order.
func runCells(cells []cell) ([]system.Result, error) {
	return parallel.Map(cells, func(_ int, c cell) (system.Result, error) { return c.run() })
}

// The catalog's hold plan. Experiments share memo entries: fig14 reads
// fig12a's tapes, fig15 reads fig12b's, and abl-guard reads a kmeans
// tape pair and profiling pass of abl-mshr's. Run holds every tape and
// profiling pass an experiment's cells read while it runs. When it
// returns, it releases each key no later experiment in catalog order
// (All, then Ablations) reads; the hold on each key a later one reads
// is carried until the key's last reader returns. So a run of the whole
// catalog in order computes each entry once and releases it after its
// last reader, and a run out of order at worst recomputes an entry or
// keeps one: the memos never change a result. Selections, graphs and
// seeded blocks are not held.

// step is one experiment's part of the plan: the keys its cells read,
// and for each whether a later experiment reads it too.
type step struct {
	keys  []system.Key
	carry []bool
}

// plans builds each scale's plan once: every cell of the catalog's
// experiments at that scale.
var plans = [...]func() map[string]step{
	Quick: sync.OnceValue(func() map[string]step { return planFor(Quick) }),
	Full:  sync.OnceValue(func() map[string]step { return planFor(Full) }),
}

// carried holds the releases of the keys whose holds outlive the
// experiment that took them.
var carried = struct {
	sync.Mutex
	release map[system.Key]func()
}{release: make(map[system.Key]func())}

func planFor(s Scale) map[string]step {
	steps := make(map[string]step)
	lastReader := make(map[system.Key]string)
	for _, r := range append(All(), Ablations()...) {
		if r.cells == nil {
			continue
		}
		var st step
		seen := make(map[system.Key]bool)
		for _, c := range r.cells(s) {
			for _, k := range system.Keys(c.ws, c.o) {
				if !seen[k] {
					seen[k] = true
					st.keys = append(st.keys, k)
				}
				lastReader[k] = r.ID
			}
		}
		steps[r.ID] = st
	}
	for id, st := range steps {
		st.carry = make([]bool, len(st.keys))
		for i, k := range st.keys {
			st.carry[i] = lastReader[k] != id
		}
		steps[id] = st
	}
	return steps
}

// Run runs r at scale s under the catalog's hold plan.
func Run(r Runner, s Scale) (*Report, error) {
	st := plans[s]()[r.ID]
	releases := make([]func(), len(st.keys))
	for i, k := range st.keys {
		releases[i] = k.Hold()
	}
	defer func() {
		carried.Lock()
		defer carried.Unlock()
		for i, k := range st.keys {
			if st.carry[i] {
				if _, ok := carried.release[k]; !ok {
					carried.release[k] = releases[i]
					continue
				}
			} else if release, ok := carried.release[k]; ok {
				delete(carried.release, k)
				release()
			}
			releases[i]()
		}
	}()
	return r.Run(s)
}
