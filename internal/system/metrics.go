package system

import (
	"repro/internal/obs"
)

// The system package's obs registrations: whole-run counters flushed
// from the per-run result structs after each evaluation pass (the
// cache-effectiveness counters live with their memos in selcache.go and
// profcache.go). The
// flush-at-end shape is deliberate — the simulation hot loops already
// aggregate everything into hbm.Stats / cpu.Result / cmt counters, so
// obs costs nothing per simulated access and the //sdam:noalloc pins
// stay untouched. Names and units are cataloged in
// docs/OBSERVABILITY.md.
var (
	statRuns      = obs.NewCounter("system.runs", "runs", "evaluation passes completed")
	statCoRuns    = obs.NewCounter("system.coruns", "runs", "co-run evaluation passes completed")
	statProfPass  = obs.NewCounter("system.profile_passes", "passes", "fresh (uncached) offline profiling passes")
	statEngRefs   = obs.NewCounter("engine.refs", "refs", "memory references executed by the engine")
	statEngExt    = obs.NewCounter("engine.external", "refs", "L1 misses and dirty write-backs issued to the memory system (every reference on an engine without an L1)")
	statEngHits   = obs.NewCounter("engine.cache_hits", "refs", "references satisfied by the modeled cache")
	statEngFaults = obs.NewCounter("engine.faults", "faults", "page faults taken during execution")
	statHBMReqs   = obs.NewCounter("hbm.requests", "reqs", "line requests reaching the HBM device")
	statHBMBytes  = obs.NewCounter("hbm.bytes", "bytes", "bytes moved through the HBM device")
	statHBMRowHit = obs.NewCounter("hbm.row_hits", "reqs", "requests hitting an open row")
	statHBMRowMis = obs.NewCounter("hbm.row_misses", "reqs", "requests that opened a closed row")
	statHBMRefr   = obs.NewCounter("hbm.refreshes", "ops", "refresh operations performed")
	statCMTReads  = obs.NewCounter("cmt.reads", "reads", "controller-side CMT lookups")
	statCMTWrites = obs.NewCounter("cmt.writes", "writes", "OS-side CMT updates")
	statCompiles  = obs.NewCounter("memctrl.compiles", "compiles", "crossbar configurations compiled on CMT-cache misses")
	statMappings  = obs.NewGauge("cmt.live_mappings", "mappings", "high-water mark of live CMT mappings after setup")
)

// flushRunMetrics folds one finished evaluation pass into the Default
// registry. Called only when metrics are enabled; everything it reads
// is an already-aggregated stat, so the per-access hot paths stay
// untouched.
func flushRunMetrics(res *Result, m *machine) {
	if !obs.Enabled() {
		return
	}
	statEngRefs.Add(int64(res.Run.References))
	statEngExt.Add(int64(res.Run.External))
	statEngHits.Add(int64(res.Run.CacheHits))
	statEngFaults.Add(int64(res.Run.Faults))
	statHBMReqs.Add(int64(res.HBM.Requests))
	statHBMBytes.Add(int64(res.HBM.Bytes))
	statHBMRowHit.Add(int64(res.HBM.RowHits))
	statHBMRowMis.Add(int64(res.HBM.RowMisses))
	statHBMRefr.Add(int64(res.HBM.Refreshes))
	statCompiles.Add(int64(m.ctrl.Compiles()))
	if t := m.ctrl.Table(); t != nil {
		statCMTReads.Add(int64(t.ReadCount()))
		statCMTWrites.Add(int64(t.WriteCount()))
	}
	statMappings.SetMax(int64(res.MappingsInstalled))
}
