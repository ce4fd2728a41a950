// Package tracefile records workload reference streams into a portable
// artifact and replays them later as a Workload. A trace captures the
// program's *variables* (allocation sites and sizes) plus every
// reference as (variable, offset) pairs — virtual addresses are not
// stored, so a replay allocates fresh variables under whatever mapping
// policy the replaying system uses and the SDAM machinery applies
// normally. This is how externally captured traces (e.g. from a binary
// instrumentation tool) can be brought to the simulator.
package tracefile

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/heap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// formatVersion guards artifact compatibility.
const formatVersion = 1

// Var is one recorded variable (one allocation).
type Var struct {
	Site  string `json:"site"`
	Bytes uint64 `json:"bytes"`
}

// Rec is one recorded reference: variable index, byte offset within the
// variable, and store flag. Traces written before references dropped
// their program counter carry a "pc" key per record; decoding ignores
// it, so those files still load under the same format version.
type Rec struct {
	Var   int    `json:"v"`
	Off   uint64 `json:"o"`
	Write bool   `json:"w,omitempty"`
}

// File is a recorded trace.
type File struct {
	Version int     `json:"version"`
	Name    string  `json:"name"`
	Vars    []Var   `json:"vars"`
	Threads [][]Rec `json:"threads"`
}

// Record runs the workload's setup and streams on a scratch address
// space and captures every reference relative to its variable.
func Record(w workload.Workload, seed int64) (*File, error) {
	k := vm.NewKernel(geom.Default().Chunks())
	as := k.NewAddressSpace()
	env := &workload.Env{AS: as, Heap: heap.New(as)}
	if err := w.Setup(env); err != nil {
		return nil, fmt.Errorf("tracefile: setup: %w", err)
	}
	allocs := env.Heap.Live() // sorted by VA
	f := &File{Version: formatVersion, Name: w.Name()}
	for _, a := range allocs {
		f.Vars = append(f.Vars, Var{Site: a.Site, Bytes: a.Size})
	}
	find := func(va vm.VA) (int, uint64, error) {
		i := sort.Search(len(allocs), func(i int) bool { return allocs[i].VA+vm.VA(allocs[i].Size) > va })
		if i >= len(allocs) || va < allocs[i].VA {
			return 0, 0, fmt.Errorf("tracefile: reference %#x outside any allocation", uint64(va))
		}
		return i, uint64(va - allocs[i].VA), nil
	}
	var buf [256]cpu.Ref
	for _, s := range w.Streams(seed) {
		var recs []Rec
		for n := s.NextBatch(buf[:]); n > 0; n = s.NextBatch(buf[:]) {
			for _, ref := range buf[:n] {
				vi, off, err := find(ref.VA)
				if err != nil {
					return nil, err
				}
				recs = append(recs, Rec{Var: vi, Off: off, Write: ref.Write})
			}
		}
		f.Threads = append(f.Threads, recs)
	}
	return f, nil
}

// Save writes the trace as JSON.
func (f *File) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(f)
}

// Load reads a trace written by Save.
func Load(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("tracefile: decoding: %w", err)
	}
	if f.Version != formatVersion {
		return nil, fmt.Errorf("tracefile: format version %d, want %d", f.Version, formatVersion)
	}
	for ti, recs := range f.Threads {
		for ri, rec := range recs {
			if rec.Var < 0 || rec.Var >= len(f.Vars) {
				return nil, fmt.Errorf("tracefile: thread %d rec %d references unknown variable %d", ti, ri, rec.Var)
			}
			if rec.Off >= f.Vars[rec.Var].Bytes {
				return nil, fmt.Errorf("tracefile: thread %d rec %d offset %d outside variable (%d bytes)",
					ti, ri, rec.Off, f.Vars[rec.Var].Bytes)
			}
		}
	}
	return &f, nil
}

// Refs counts the recorded references.
func (f *File) Refs() int {
	n := 0
	for _, t := range f.Threads {
		n += len(t)
	}
	return n
}

// Workload returns a replayable workload over the trace. The replay
// allocates every recorded variable through the active mapping policy,
// so the same trace can be evaluated under any system configuration;
// the stream seed is ignored (a trace is one fixed input). The replay's
// TapeKey is a content hash of the trace, so sweep cells share one
// reference tape and one profiling pass per trace like any built-in
// workload.
func (f *File) Workload() workload.Workload {
	return &replay{file: f, key: fmt.Sprintf("trace/%s/%016x", f.Name, f.fingerprint())}
}

// fingerprint is an FNV-1a hash of the trace's own serialization.
func (f *File) fingerprint() uint64 {
	h := fnv.New64a()
	_ = f.Save(h) // hash writes never fail and File always encodes
	return h.Sum64()
}

type replay struct {
	file  *File
	key   string
	bases []vm.VA
}

// Name implements workload.Workload.
func (r *replay) Name() string { return r.file.Name + "-trace" }

// TapeKey implements workload.Workload.
func (r *replay) TapeKey() string { return r.key }

// Clone implements workload.Workload: the trace itself is read-only after
// Load, so clones share it and only carry their own allocation bases.
func (r *replay) Clone() workload.Workload { return &replay{file: r.file, key: r.key} }

// Setup implements workload.Workload.
func (r *replay) Setup(env *workload.Env) error {
	r.bases = r.bases[:0]
	for _, v := range r.file.Vars {
		va, err := env.Alloc(v.Site, v.Bytes)
		if err != nil {
			return err
		}
		r.bases = append(r.bases, va)
	}
	return nil
}

// Streams implements workload.Workload. The seed is ignored (a trace is
// one fixed input).
func (r *replay) Streams(int64) []cpu.Stream {
	out := make([]cpu.Stream, len(r.file.Threads))
	for ti, recs := range r.file.Threads {
		s := &cpu.SliceStream{Refs: make([]cpu.Ref, len(recs))}
		for i, rec := range recs {
			s.Refs[i] = cpu.Ref{VA: r.bases[rec.Var] + vm.VA(rec.Off), Write: rec.Write}
		}
		out[ti] = s
	}
	return out
}
