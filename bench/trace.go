package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records the benchmark's own spans: one around every call the
// harness makes into a layer of the program. Spans are kept in memory and
// written as Chrome trace-event JSON when the run ends. A nil *tracer is
// valid and records nothing, so the untraced runs execute the same code
// without the bookkeeping.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

// span is one timed call. Spans of one operation share its op id; parent is
// the index of the span that caused this one, -1 for the op's root.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
	// n is how many calls the span covers: calls too short to time singly
	// (a 1 µs evaluation) are timed as a batch and divided.
	n int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens the root span of a new operation and returns its index.
func (t *tracer) newOp(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.spans = append(t.spans, span{name: name, op: t.ops, parent: -1, start: time.Since(t.t0), n: 1})
	return len(t.spans) - 1
}

// begin opens a child span of parent covering n calls.
func (t *tracer) begin(parent int, name string, n int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: t.spans[parent].op, parent: parent, start: time.Since(t.t0), n: n})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// call times fn as a child span of parent.
func (t *tracer) call(parent int, name string, fn func()) {
	i := t.begin(parent, name, 1)
	fn()
	t.end(i)
}

// selfTimes returns, per span, its duration minus the part its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// perCall folds the spans named name into per-call self times, in the unit
// of one `per` (time.Microsecond gives µs).
func (t *tracer) perCall(name string, per time.Duration) []float64 {
	var out []float64
	self := t.selfTimes()
	for i, s := range t.spans {
		if s.name == name && s.n > 0 {
			out = append(out, float64(self[i])/float64(s.n)/float64(per))
		}
	}
	return out
}

// chromeEvent is one Chrome trace-event: "X" complete spans and "M"
// thread-name metadata, the two phases cmd/tracecheck accepts.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Each operation
// is one thread row, so its spans nest under its root.
func (t *tracer) writeChrome(path string) error {
	self := t.selfTimes()
	events := make([]chromeEvent, 0, len(t.spans)+t.ops)
	for i, s := range t.spans {
		if s.parent < 0 {
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: s.op,
				Args: map[string]any{"name": s.name}})
		}
		args := map[string]any{"op": s.op, "self_us": float64(self[i]) / 1e3, "calls": s.n}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.op,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
