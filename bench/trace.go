package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanKind names a call into one layer. Names are "<package>.<call>";
// the bench.* kinds are the harness's own root spans, whose self time is
// what no program layer accounts for.
type spanKind uint8

const (
	spAudit spanKind = iota
	spSchedAudit
	spSchedAttempt
	spSchedWindowWait
	spRunner
	spNewRequest
	spPoolGet
	spRunAudit
	spGetSegment
	spVerifyAudit
	spPorSetup
	spStoreCreate
	spEncodeStream
	spStoreCommit
	spRetrieveClean
	spRetrieveDamaged
	spStoreOpen
	spStoreVerify
	spExtractStream
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spAudit:           "bench.audit",
	spSchedAudit:      "core.sched_audit",
	spSchedAttempt:    "core.sched_attempt",
	spSchedWindowWait: "core.sched_window_wait",
	spRunner:          "bench.runner",
	spNewRequest:      "core.new_request",
	spPoolGet:         "core.pool_get",
	spRunAudit:        "core.run_audit",
	spGetSegment:      "core.get_segment",
	spVerifyAudit:     "core.verify_audit",
	spPorSetup:        "bench.por_setup",
	spStoreCreate:     "store.create",
	spEncodeStream:    "por.encode_stream",
	spStoreCommit:     "store.commit",
	spRetrieveClean:   "bench.por_retrieve_clean",
	spRetrieveDamaged: "bench.por_retrieve_damaged",
	spStoreOpen:       "store.open",
	spStoreVerify:     "store.verify",
	spExtractStream:   "por.extract_stream",
}

// span is one timed call. It holds no pointers, so a traced run's span
// log costs the garbage collector nothing to scan.
type span struct {
	kind       spanKind
	parent     int32 // index of the span that caused this one; -1 for an operation's root
	op         int32 // audit or iteration number shared by all spans of one operation
	start, end int64 // ns since the recorder was created
}

// recorder is the in-memory span log of a traced run. A nil *recorder is
// the untraced run: begin and end return at once without reading the
// clock.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) begin(kind spanKind, parent int32, op int32) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kind, parent: parent, op: op, start: now, end: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add appends a span whose times were measured elsewhere (the
// scheduler's own AuditTracer) and returns its index.
func (r *recorder) add(kind spanKind, parent, op int32, start, end time.Duration) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{kind: kind, parent: parent, op: op, start: int64(start), end: int64(end)})
	return int32(len(r.spans) - 1)
}

func (r *recorder) setParent(id, parent int32) {
	r.mu.Lock()
	r.spans[id].parent = parent
	r.mu.Unlock()
}

// layerTime is one span kind's aggregate over a traced phase.
type layerTime struct {
	count int64
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time covered by child spans
}

func (l layerTime) meanUs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.total) / float64(l.count) / 1e3
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	layers   [numSpanKinds]layerTime
	ops      int64         // root spans
	rootTime time.Duration // sum of root span durations
	rootSelf time.Duration // root time no child span covers
}

// attributedPct is the share of operation time that falls inside a span
// of a program layer rather than in the harness's root span.
func (s traceSummary) attributedPct() float64 {
	if s.rootTime == 0 {
		return 0
	}
	return 100 * (1 - float64(s.rootSelf)/float64(s.rootTime))
}

// summarize computes every kind's self time: a span's duration minus the
// durations of the spans it caused. Children of one span never overlap
// (an operation's calls into a layer are sequential), so the subtraction
// is exact.
func (r *recorder) summarize() traceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var sum traceSummary
	for i, s := range r.spans {
		l := &sum.layers[s.kind]
		l.count++
		l.total += time.Duration(s.end - s.start)
		l.self += time.Duration(self[i])
		if s.parent < 0 {
			sum.ops++
			sum.rootTime += time.Duration(s.end - s.start)
			sum.rootSelf += time.Duration(self[i])
		}
	}
	return sum
}

// printSelfTimes writes the per-layer self-time table of a traced phase.
func (s traceSummary) printSelfTimes(w io.Writer, workload string) {
	fmt.Fprintf(w, "# %s traced: %d operations, per-layer self time (span minus children)\n", workload, s.ops)
	kinds := make([]spanKind, 0, numSpanKinds)
	for k := spanKind(0); k < numSpanKinds; k++ {
		if s.layers[k].count > 0 {
			kinds = append(kinds, k)
		}
	}
	sort.Slice(kinds, func(i, j int) bool { return s.layers[kinds[i]].self > s.layers[kinds[j]].self })
	for _, k := range kinds {
		l := s.layers[k]
		fmt.Fprintf(w, "#   %-28s %9d spans  self %10.1f us/op  %5.1f %%\n",
			spanNames[k], l.count, float64(l.self)/float64(s.ops)/1e3, 100*float64(l.self)/float64(s.rootTime))
	}
	fmt.Fprintf(w, "#   attributed to program layers: %.1f %% of operation time\n", s.attributedPct())
}

// traceFileOps bounds how many operations' spans go into the trace file:
// every span feeds the self-time table, but a 20 s loopback run records
// ~400k of them and the file only needs enough to read a timeline.
const traceFileOps = 512

type spanJSON struct {
	Name    string `json:"name"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeFile dumps the spans of the first traceFileOps operations.
func (r *recorder) writeFile(path, workload string, seed int64) error {
	r.mu.Lock()
	keep := make(map[int32]bool)
	var out []spanJSON
	for i, s := range r.spans {
		if !keep[s.op] {
			if len(keep) >= traceFileOps {
				continue
			}
			keep[s.op] = true
		}
		out = append(out, spanJSON{Name: spanNames[s.kind], ID: int32(i), Parent: s.parent, Op: s.op, StartNs: s.start, EndNs: s.end})
	}
	total := len(r.spans)
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload   string     `json:"workload"`
		Seed       int64      `json:"seed"`
		SpansTotal int        `json:"spans_total"`
		Spans      []spanJSON `json:"spans"`
	}{workload, seed, total, out}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
