package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; Inc and Add are single atomic adds and never allocate.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is ready to
// use; all mutators are single atomic operations and never allocate.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count: one per power of two of a
// non-negative int64, so Observe never needs bounds checks beyond a
// clamp.
const histBuckets = 64

// Histogram is a fixed-layout histogram over non-negative int64 values
// with power-of-two bucket boundaries: bucket i counts observations in
// (2^(i-1), 2^i], bucket 0 counts values ≤ 1. Observe is three atomic
// adds and never allocates. Exposition divides values by the family's
// unit (1 for raw values, 1e9 for nanosecond durations shown as
// seconds).
type Histogram struct {
	unit    float64
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex returns the bucket for v: the smallest i with v ≤ 2^i.
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// BucketBound returns bucket i's inclusive upper bound (2^i).
func BucketBound(i int) uint64 { return 1 << uint(i) }

// Observe records v (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the observed total in the histogram's exposition unit.
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / h.unit }

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count uint64 `json:"count"`
	// Sum is in the exposition unit (seconds for duration histograms).
	Sum float64 `json:"sum"`
	// Buckets holds cumulative counts: Buckets[i].Count is how many
	// observations were ≤ Buckets[i].UpperBound.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// snapshot collects the cumulative non-empty bucket prefix.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	max := -1
	var raw [histBuckets]uint64
	for i := 0; i < histBuckets; i++ {
		raw[i] = h.buckets[i].Load()
		if raw[i] > 0 {
			max = i
		}
	}
	var cum uint64
	for i := 0; i <= max; i++ {
		cum += raw[i]
		s.Buckets = append(s.Buckets, Bucket{
			UpperBound: float64(BucketBound(i)) / h.unit,
			Count:      cum,
		})
	}
	return s
}

// metricKind discriminates family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled series within a family; exactly one of the
// metric pointers is set, matching the family kind.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with a fixed label schema and a child per
// distinct label-value tuple.
type family struct {
	name   string
	help   string
	kind   metricKind
	unit   float64 // histogram exposition divisor
	labels []string

	mu       sync.RWMutex
	children map[string]*child
}

// labelKey joins label values with a separator no valid value contains
// unescaped ambiguity for (label values are free-form, but \xff keeps
// distinct tuples distinct because the count is fixed).
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// with returns the child for the given label values, creating it on
// first use. It takes the family mutex; hoist calls out of hot loops.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q takes %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch = &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		ch.h = &Histogram{unit: f.unit}
	}
	f.children[key] = ch
	return ch
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. Resolve once and keep the result — With takes a lock.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.with(labelValues).c }

// Registry holds metric families by name. Registration is idempotent:
// asking again for the same name with the same kind and label schema
// returns the existing family, while a conflicting re-registration
// panics (it is always a programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every layer registers into.
var Default = NewRegistry()

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabel reports whether s is a legal Prometheus label name.
func validLabel(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register gets or creates a family, enforcing name/label validity and
// schema consistency.
func (r *Registry) register(name, help string, kind metricKind, unit float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("telemetry: metric %q: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		same := f.kind == kind && f.unit == unit && len(f.labels) == len(labels)
		if same {
			for i := range labels {
				if f.labels[i] != labels[i] {
					same = false
					break
				}
			}
		}
		if !same {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, unit: unit,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, 1, nil).with(nil).c
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, 1, labels)}
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, 1, nil).with(nil).g
}

// Histogram registers (or returns) an unlabeled histogram over raw
// values (batch sizes, byte counts); bucket bounds expose as integers.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, 1, nil).with(nil).h
}

// DurationHistogram registers (or returns) an unlabeled histogram of
// durations observed in nanoseconds and exposed in seconds, per
// Prometheus convention (name it *_seconds).
func (r *Registry) DurationHistogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, 1e9, nil).with(nil).h
}

// Series is one exposed time series in a Snapshot.
type Series struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the counter or gauge value; unset for histograms.
	Value float64 `json:"value"`
	// Histogram is set for histogram series.
	Histogram *HistogramSnapshot `json:"histogram,omitempty"`
}

// sortedFamilies returns the families ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns a family's children ordered by label key.
func (f *family) sortedChildren() []*child {
	f.mu.RLock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, len(keys))
	for i, k := range keys {
		kids[i] = f.children[k]
	}
	f.mu.RUnlock()
	return kids
}

// Snapshot returns every registered series, families sorted by name and
// series by label values. Counter and gauge values are point-in-time
// atomic loads; a histogram's count/sum/buckets are loaded individually
// and may straddle a concurrent Observe.
func (r *Registry) Snapshot() []Series {
	var out []Series
	for _, f := range r.sortedFamilies() {
		for _, ch := range f.sortedChildren() {
			s := Series{Name: f.name, Kind: f.kind.String()}
			if len(f.labels) > 0 {
				s.Labels = make(map[string]string, len(f.labels))
				for i, l := range f.labels {
					s.Labels[l] = ch.values[i]
				}
			}
			switch f.kind {
			case kindCounter:
				s.Value = float64(ch.c.Value())
			case kindGauge:
				s.Value = float64(ch.g.Value())
			case kindHistogram:
				h := ch.h.snapshot()
				s.Histogram = &h
			}
			out = append(out, s)
		}
	}
	return out
}

// escapeLabelValue escapes a label value per the text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP line per the text format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// labelString renders {a="x",b="y"} from names/values plus optional
// extra pairs (the histogram le label); empty when there are no labels.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteString(`"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if i > 0 || len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extra[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sum/value with shortest round-trip precision.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines per family, one sample
// line per series, histogram buckets cumulative with a trailing +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, ch := range f.sortedChildren() {
			ls := labelString(f.labels, ch.values)
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, ch.c.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, ch.g.Value())
			case kindHistogram:
				err = writeHistogram(w, f, ch)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram writes one histogram series' bucket/sum/count lines.
func writeHistogram(w io.Writer, f *family, ch *child) error {
	snap := ch.h.snapshot()
	for _, b := range snap.Buckets {
		ls := labelString(f.labels, ch.values, "le", formatFloat(b.UpperBound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, b.Count); err != nil {
			return err
		}
	}
	ls := labelString(f.labels, ch.values, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, ls, snap.Count); err != nil {
		return err
	}
	base := labelString(f.labels, ch.values)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(snap.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, snap.Count)
	return err
}
