package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/cpu"
)

// Table1Target holds one application's published variable statistics
// (paper Table 1), which parameterize its proxy.
type Table1Target struct {
	Name       string
	Suite      string // "SPEC2006" or "PARSEC"
	NumVars    int
	NumMajor   int
	AvgMajorMB float64
	MinMajorMB float64
}

// Table1Targets is the paper's Table 1, verbatim, with one correction:
// astar is printed as avg 1.8 MB / min 9 MB, which is impossible
// (min > avg); the columns are evidently swapped and we use avg 9 /
// min 1.8.
var Table1Targets = []Table1Target{
	{"perlbench", "SPEC2006", 7268, 1, 910, 910},
	{"bzip2", "SPEC2006", 10, 10, 32, 4},
	{"gcc", "SPEC2006", 49690, 34, 59, 4},
	{"mcf", "SPEC2006", 3, 3, 1215, 953},
	{"gobmk", "SPEC2006", 43, 5, 8, 7},
	{"hmmer", "SPEC2006", 84, 10, 6, 4},
	{"sjeng", "SPEC2006", 4, 4, 60, 54},
	{"libquantum", "SPEC2006", 10, 7, 212, 4},
	{"h264ref", "SPEC2006", 193, 8, 24, 7},
	{"omnetpp", "SPEC2006", 9400, 65, 3, 1},
	{"astar", "SPEC2006", 178, 38, 9, 1.8},
	{"xalancbmk", "SPEC2006", 4802, 4, 230, 78},
	{"bodytrack", "PARSEC", 220, 12, 212, 36},
	{"cenneal", "PARSEC", 17, 9, 365, 69},
	{"dedup", "PARSEC", 29, 15, 215, 12},
	{"ferret", "PARSEC", 109, 22, 65, 23},
	{"freqmine", "PARSEC", 60, 9, 215, 37},
	{"streamcluster", "PARSEC", 35, 9, 234, 68},
	{"vips", "PARSEC", 892, 25, 125, 36},
}

// FindTarget returns the Table 1 entry for an application name.
func FindTarget(name string) (Table1Target, bool) {
	for _, t := range Table1Targets {
		if t.Name == name {
			return t, true
		}
	}
	return Table1Target{}, false
}

// ProxyOptions scales a proxy run.
type ProxyOptions struct {
	Threads int // default 4 (the prototype's core count)
	Refs    int // total references; default 200k
	// SizeScale shrinks variable footprints (1 = the published sizes).
	// The default 1/8 keeps the 19-app sweep inside the 8 GB simulated
	// device and the simulation fast while preserving every pattern.
	SizeScale float64
	// MaxMinorVars caps how many non-major variables are actually
	// allocated (the published count is still reported); gcc's 49 690
	// variables would otherwise dominate setup time for no behavioral
	// difference — minor variables carry 20 % of references combined.
	MaxMinorVars int
}

func (o ProxyOptions) withDefaults() ProxyOptions {
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Refs <= 0 {
		o.Refs = 200_000
	}
	if o.SizeScale <= 0 {
		o.SizeScale = 0.125
	}
	if o.MaxMinorVars <= 0 {
		o.MaxMinorVars = 256
	}
	return o
}

// patternPalette is the set of access patterns proxies draw from;
// indices are chosen deterministically per (app, variable). The palette
// spans the stride spectrum from streaming through coarse 64 KB-class
// strides (which fall outside limited-window hash mappings) plus the
// irregular patterns (random, pointer chase) of heap-heavy codes.
var patternPalette = []Pattern{
	Stride{1}, Stride{2}, Stride{4}, Stride{16},
	Stride{64}, Stride{256}, Stride{1024}, Random{}, Chase{},
}

// Proxy is a synthetic application whose variable inventory matches one
// Table 1 row and whose major variables exercise a deterministic mix of
// access patterns.
type Proxy struct {
	target Table1Target
	opts   ProxyOptions
	vars   []varRef
	// allocatedMinors records how many minor variables were actually
	// allocated under the MaxMinorVars cap.
	allocatedMinors int
}

// NewProxy creates the proxy for a Table 1 application.
func NewProxy(target Table1Target, opts ProxyOptions) *Proxy {
	return &Proxy{target: target, opts: opts.withDefaults()}
}

// NewProxyByName looks up the Table 1 row and builds its proxy.
func NewProxyByName(name string, opts ProxyOptions) (*Proxy, error) {
	t, ok := FindTarget(name)
	if !ok {
		return nil, fmt.Errorf("workload: no Table 1 entry for %q", name)
	}
	return NewProxy(t, opts), nil
}

// Name implements Workload.
func (p *Proxy) Name() string { return p.target.Name }

// Clone implements Workload: a fresh proxy with the same Table 1 target
// and options, ready for an independent Setup.
func (p *Proxy) Clone() Workload { return NewProxy(p.target, p.opts) }

// Target returns the Table 1 row parameterizing this proxy.
func (p *Proxy) Target() Table1Target { return p.target }

// TapeKey implements Workload: a proxy's streams are fully determined
// by its Table 1 row and options (after defaulting) plus the seed.
func (p *Proxy) TapeKey() string {
	o := p.opts.withDefaults()
	return fmt.Sprintf("proxy/%s/t%d/r%d/s%g/m%d",
		p.target.Name, o.Threads, o.Refs, o.SizeScale, o.MaxMinorVars)
}

// majorSizes generates NumMajor sizes (bytes, scaled) whose mean and
// minimum match the published statistics: an arithmetic ramp from min to
// 2·avg−min has mean avg.
func (p *Proxy) majorSizes() []uint64 {
	n := p.target.NumMajor
	out := make([]uint64, n)
	min := p.target.MinMajorMB
	avg := p.target.AvgMajorMB
	for i := 0; i < n; i++ {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		mb := min + frac*2*(avg-min)
		bytes := uint64(mb * p.opts.SizeScale * (1 << 20))
		if bytes < 4096 {
			bytes = 4096
		}
		out[i] = bytes
	}
	return out
}

// patternFor deterministically picks a variable's pattern so that each
// app has a stable, distinctive pattern mix.
func (p *Proxy) patternFor(varIdx int) Pattern {
	h := 0
	for _, c := range p.target.Name {
		h = h*31 + int(c)
	}
	return patternPalette[(h+varIdx*5)%len(patternPalette)]
}

// Setup implements Workload: allocates major variables (each with its
// own site) and the capped minor population.
func (p *Proxy) Setup(env *Env) error {
	p.vars = p.vars[:0]
	sizes := p.majorSizes()
	majorShare := 0.8 / float64(len(sizes))
	for i, bytes := range sizes {
		site := fmt.Sprintf("%s/major%d", p.target.Name, i)
		va, err := env.Alloc(site, bytes)
		if err != nil {
			return err
		}
		p.vars = append(p.vars, varRef{
			site: site, base: va, bytes: bytes,
			pattern: p.patternFor(i),
			weight:  majorShare,
			pc:      uint64(0x400000 + i*0x40),
		})
	}
	minors := p.target.NumVars - p.target.NumMajor
	if minors > p.opts.MaxMinorVars {
		minors = p.opts.MaxMinorVars
	}
	p.allocatedMinors = minors
	if minors > 0 {
		minorShare := 0.2 / float64(minors)
		r := rand.New(rand.NewSource(int64(len(p.target.Name))))
		for i := 0; i < minors; i++ {
			site := fmt.Sprintf("%s/minor%d", p.target.Name, i)
			bytes := uint64(4096 + r.Intn(16)*4096)
			va, err := env.Alloc(site, bytes)
			if err != nil {
				return err
			}
			p.vars = append(p.vars, varRef{
				site: site, base: va, bytes: bytes,
				pattern: Random{},
				weight:  minorShare,
				pc:      uint64(0x800000 + i*0x40),
			})
		}
	}
	return nil
}

// Streams implements Workload: the references are split evenly across
// threads, every thread touching the shared variable mix (the OpenMP-
// style sharing that creates concurrent mixed-pattern traffic).
func (p *Proxy) Streams(seed int64) []cpu.Stream {
	if len(p.vars) == 0 {
		return nil
	}
	per := p.opts.Refs / p.opts.Threads
	out := make([]cpu.Stream, p.opts.Threads)
	for t := 0; t < p.opts.Threads; t++ {
		out[t] = newMixStream(p.vars, per, seed*131+int64(t))
	}
	return out
}

// MajorSites lists the allocation sites of the proxy's major variables.
func (p *Proxy) MajorSites() []string {
	var out []string
	for i := 0; i < p.target.NumMajor; i++ {
		out = append(out, fmt.Sprintf("%s/major%d", p.target.Name, i))
	}
	return out
}

// StrideCopy is the synthetic benchmark of §7.2: four threads copying
// data at (possibly different) strides. NumStrides distinct strides are
// spread over the threads — the Fig 4/11 "number of different strides"
// axis.
type StrideCopy struct {
	Strides []int // stride (in lines) per thread
	PerCopy int   // references per thread
	Bytes   uint64

	vars []varRef
}

// NewStrideCopy builds the synthetic workload. strides supplies one
// entry per thread.
func NewStrideCopy(strides []int, perCopy int, bytes uint64) *StrideCopy {
	if perCopy <= 0 {
		perCopy = 50_000
	}
	if bytes == 0 {
		bytes = 32 << 20
	}
	return &StrideCopy{Strides: strides, PerCopy: perCopy, Bytes: bytes}
}

// Name implements Workload.
func (s *StrideCopy) Name() string { return fmt.Sprintf("stridecopy-%v", s.Strides) }

// Clone implements Workload.
func (s *StrideCopy) Clone() Workload {
	return NewStrideCopy(append([]int(nil), s.Strides...), s.PerCopy, s.Bytes)
}

// TapeKey implements Workload: the stream emission is a pure function
// of the stride vector, per-thread budget, buffer size, and seed.
func (s *StrideCopy) TapeKey() string {
	return fmt.Sprintf("stridecopy/%v/p%d/b%d", s.Strides, s.PerCopy, s.Bytes)
}

// Setup implements Workload: one source buffer per thread, each its own
// variable (so SDAM can give each stride its own mapping).
func (s *StrideCopy) Setup(env *Env) error {
	s.vars = s.vars[:0]
	for i, st := range s.Strides {
		site := fmt.Sprintf("stridecopy/buf%d-stride%d", i, st)
		va, err := env.Alloc(site, s.Bytes)
		if err != nil {
			return err
		}
		s.vars = append(s.vars, varRef{
			site: site, base: va, bytes: s.Bytes,
			pattern: Stride{st},
			weight:  1,
			pc:      uint64(0x400000 + i*0x40),
		})
	}
	return nil
}

// Streams implements Workload: one stream per thread, each pure-stride
// over its own buffer.
func (s *StrideCopy) Streams(seed int64) []cpu.Stream {
	out := make([]cpu.Stream, len(s.vars))
	for i := range s.vars {
		out[i] = newMixStream(s.vars[i:i+1], s.PerCopy, seed*977+int64(i))
	}
	return out
}

// Sites returns the per-thread variable sites.
func (s *StrideCopy) Sites() []string {
	var out []string
	for i, st := range s.Strides {
		out = append(out, fmt.Sprintf("stridecopy/buf%d-stride%d", i, st))
	}
	return out
}
