package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark around
// the call (never inside the program). Times are nanoseconds since the
// pass's tracer started; IDs are unique within a pass. Parent is 0 for a
// root span; spans of one op share Op.
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Msgs is the metered protocol traffic of the call, where the
	// module meters any.
	Msgs uint64 `json:"msgs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced phase pays one nil check per call site. Safe for concurrent
// use, as a monitor pool wider than one worker records from several
// goroutines.
type tracer struct {
	pass   string
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(pass string) *tracer { return &tracer{pass: pass, origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op, Start: now})
	return len(t.spans)
}

// end closes span id and records its metered messages.
func (t *tracer) end(id int, msgs uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Msgs = msgs
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the spans called name, in start order.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs lists span durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.End-s.Start) / 1e6
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its children cover. Children that overlap each
// other (a worker pool's) cover their union once, so self time never
// goes negative.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
