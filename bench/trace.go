package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Start and End are nanoseconds since the recording
// process's t0; spans of one child run share its trace ID, and Parent
// names the span that caused this one (0 for a top-level span), after
// Dapper's span model.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot ("engine.job" is
// in layer engine).
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// tracer records spans in memory. A nil tracer records nothing, so the
// untraced runs pay one nil check per would-be span.
type tracer struct {
	t0    time.Time
	trace string

	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time, trace string) *tracer {
	return &tracer{t0: t0, trace: trace}
}

// open starts a span under parent (0 for top level) and returns its ID.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: t.trace, Start: now, End: -1})
	return id
}

// close ends span id and returns its end offset (0 on a nil tracer).
func (t *tracer) close(id int) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
	return now
}

// add records an already-timed span (offsets from t0) and returns its ID.
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Trace: t.trace, Start: start, End: end})
	return id
}

// since is the tracer clock: nanoseconds from t0.
func (t *tracer) since() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Nanoseconds()
}

func (t *tracer) done() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap one
// another (jobs on parallel workers), so their coverage is an interval
// union, clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		var clipped [][2]int64
		for _, k := range kids[s.ID] {
			lo, hi := max(k[0], s.Start), min(k[1], s.End)
			if lo < hi {
				clipped = append(clipped, [2]int64{lo, hi})
			}
		}
		self[s.ID] = s.End - s.Start - unionLen(clipped)
	}
	return self
}

// topLevelCover is the time the top-level spans cover.
func topLevelCover(spans []span) int64 {
	var iv [][2]int64
	for _, s := range spans {
		if s.Parent == 0 {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return unionLen(iv)
}

// breakdownRow aggregates the spans of one name.
type breakdownRow struct {
	Span    string  `json:"span"`
	Layer   string  `json:"layer"`
	Count   float64 `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// breakdown averages, over runs, each span name's count, duration and
// self time, largest self time first. Self time is computed within each
// run, where span IDs are unique.
func breakdown(runs [][]span) []breakdownRow {
	rows := map[string]*breakdownRow{}
	for _, spans := range runs {
		self := selfTimes(spans)
		for _, s := range spans {
			r := rows[s.Name]
			if r == nil {
				r = &breakdownRow{Span: s.Name, Layer: s.layer()}
				rows[s.Name] = r
			}
			r.Count++
			r.TotalMs += float64(s.End-s.Start) / 1e6
			r.SelfMs += float64(self[s.ID]) / 1e6
		}
	}
	out := make([]breakdownRow, 0, len(rows))
	for _, r := range rows {
		n := float64(len(runs))
		r.Count /= n
		r.TotalMs /= n
		r.SelfMs /= n
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Span < out[j].Span
	})
	return out
}

// chromeEvent is one Chrome trace-event record ("X" complete events and
// "M" metadata), the format Perfetto and chrome://tracing open offline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracedProcess is one traced child run placed on the invocation's
// timeline: offset is its t0 in nanoseconds after the invocation's start.
type tracedProcess struct {
	label  string
	offset int64
	spans  []span
}

// writeChromeTrace writes every traced run as one process of a Chrome
// trace. Spans are packed into lanes (threads) so that spans sharing a
// lane nest, which is what the viewers require of one thread's events.
func writeChromeTrace(path string, procs []tracedProcess) error {
	events := []chromeEvent{}
	for pid, p := range procs {
		events = append(events, chromeEvent{Name: "process_name", Ph: "M", Pid: pid + 1, Args: map[string]any{"name": p.label}})
		spans := append([]span(nil), p.spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].Start != spans[j].Start {
				return spans[i].Start < spans[j].Start
			}
			return spans[i].End > spans[j].End
		})
		var lanes [][]int64 // per lane, the stack of open span ends
		for _, s := range spans {
			lane := -1
			for i := range lanes {
				st := lanes[i]
				for len(st) > 0 && st[len(st)-1] <= s.Start {
					st = st[:len(st)-1]
				}
				lanes[i] = st
				if lane < 0 && (len(st) == 0 || st[len(st)-1] >= s.End) {
					lane = i
				}
			}
			if lane < 0 {
				lanes = append(lanes, nil)
				lane = len(lanes) - 1
			}
			lanes[lane] = append(lanes[lane], s.End)
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.layer(), Ph: "X",
				Ts:  float64(p.offset+s.Start) / 1e3,
				Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid + 1, Tid: lane + 1,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
			})
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
