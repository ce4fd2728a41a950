package apps

import "repro/internal/workload"

// Clone implementations for every kernel: Setup records the run's
// allocations into the receiver, so concurrent runs (the parallel sweep
// cells in system.Compare and the experiment harness) each rebuild a
// fresh instance from the stored options. withDefaults is idempotent,
// so re-running the constructor reproduces identical parameters.

// Clone implements workload.Workload.
func (b *BFS) Clone() workload.Workload { return NewBFS(b.opts) }

// Clone implements workload.Workload.
func (p *PageRank) Clone() workload.Workload { return NewPageRank(p.opts) }

// Clone implements workload.Workload.
func (s *SSSP) Clone() workload.Workload { return NewSSSP(s.opts) }

// Clone implements workload.Workload.
func (h *HashJoin) Clone() workload.Workload { return NewHashJoin(h.opts) }

// Clone implements workload.Workload.
func (m *MergeJoin) Clone() workload.Workload { return NewMergeJoin(m.opts) }

// Clone implements workload.Workload.
func (k *KMeansApp) Clone() workload.Workload { return NewKMeansApp(k.opts) }

// Clone implements workload.Workload.
func (h *HNSW) Clone() workload.Workload { return NewHNSW(h.opts) }

// Clone implements workload.Workload.
func (v *IVFPQ) Clone() workload.Workload { return NewIVFPQ(v.opts) }

// Clone implements workload.Workload.
func (tr *Transpose) Clone() workload.Workload { return NewTranspose(tr.opts) }

// Clone implements workload.Workload.
func (st *Stencil) Clone() workload.Workload { return NewStencil(st.opts) }
