package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SnapshotSchema versions the -metrics JSON snapshot, independently of
// the sdambench bench-report schema (which stays at 4; the snapshot is
// emitted alongside it, not inside it). Bump when a field changes
// meaning or shape; adding new metrics is not a schema change.
const SnapshotSchema = 5

// Snapshot is a point-in-time serialization of every registered metric
// plus the per-name span aggregates, sorted by name so the encoding is
// reproducible. See docs/OBSERVABILITY.md for the catalog.
type Snapshot struct {
	Schema     int            `json:"schema"`
	Counters   []MetricValue  `json:"counters"`
	Gauges     []MetricValue  `json:"gauges"`
	Histograms []HistogramVal `json:"histograms"`
	Spans      []SpanStat     `json:"spans"`
	// DroppedEvents counts span events discarded after the trace buffer
	// filled; aggregates above remain exact regardless.
	DroppedEvents int64 `json:"dropped_events,omitempty"`
}

// MetricValue is one counter or gauge reading. Host marks a metric
// whose value reflects process state (worker count, work splitting) rather
// than simulated work; Deterministic drops it.
type MetricValue struct {
	Name  string `json:"name"`
	Unit  string `json:"unit,omitempty"`
	Help  string `json:"help,omitempty"`
	Host  bool   `json:"host,omitempty"`
	Value int64  `json:"value"`
}

// HistogramVal is one histogram reading: bucket upper bounds and the
// per-bucket counts (the final count is the overflow bucket).
type HistogramVal struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit,omitempty"`
	Help   string    `json:"help,omitempty"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// SpanStat is the aggregate for one span name.
type SpanStat struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// Snapshot captures every registered metric. Metrics that were never
// updated still appear (value 0), so the set of names in a snapshot is
// a function of which code paths registered, not of runtime luck.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema}
	r.mu.Lock()
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		s.Counters = append(s.Counters, MetricValue{Name: c.name, Unit: c.unit, Help: c.help, Host: c.host, Value: c.Value()})
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		s.Gauges = append(s.Gauges, MetricValue{Name: g.name, Unit: g.unit, Help: g.help, Host: g.host, Value: g.Value()})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		hv := HistogramVal{
			Name: h.name, Unit: h.unit, Help: h.help,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
		}
		hv.Counts = make([]int64, len(h.counts))
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	r.mu.Unlock()
	s.Spans, s.DroppedEvents = r.tr.spanStats()
	return s
}

// Deterministic returns a copy of the snapshot with every
// host-dependent measurement removed: metrics whose unit is "ns" or
// that were registered with Host() are dropped, and span TotalNs is
// zeroed (span counts stay — they are deterministic given a
// deterministic run). The result is byte-stable across runs and -jobs
// counts for the same simulated work, which is what the golden
// snapshot test pins.
func (s Snapshot) Deterministic() Snapshot {
	out := Snapshot{Schema: s.Schema, DroppedEvents: s.DroppedEvents}
	for _, c := range s.Counters {
		if c.Unit == "ns" || c.Host {
			continue
		}
		out.Counters = append(out.Counters, c)
	}
	for _, g := range s.Gauges {
		if g.Unit == "ns" || g.Host {
			continue
		}
		out.Gauges = append(out.Gauges, g)
	}
	for _, h := range s.Histograms {
		if h.Unit == "ns" {
			continue
		}
		out.Histograms = append(out.Histograms, h)
	}
	for _, sp := range s.Spans {
		sp.TotalNs = 0
		out.Spans = append(out.Spans, sp)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with a trailing
// newline.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTrace writes the retained span events as Chrome trace_event
// JSON (the "JSON array format"): complete events (ph "X") with
// microsecond timestamps, one Perfetto track per lane. Load the file
// at https://ui.perfetto.dev or chrome://tracing.
func (r *Registry) WriteTrace(w io.Writer) error {
	events := r.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range events {
		sep := ","
		if i == len(events)-1 {
			sep = ""
		}
		name, err := json.Marshal(e.Name)
		if err != nil {
			return err
		}
		// ts/dur are µs floats; keep ns precision via three decimals.
		if _, err := fmt.Fprintf(w, "  {\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%d.%03d,\"dur\":%d.%03d}%s\n",
			name, e.Lane+1,
			e.StartNs/1e3, e.StartNs%1e3,
			e.DurNs/1e3, e.DurNs%1e3, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
