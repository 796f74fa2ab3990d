package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded only by --trace 1 runs, around the calls the
// benchmark itself makes into each layer; nothing inside the rock
// packages is instrumented. They stay in memory and are written once,
// at exit.

// span is one timed call. Parent is the index of the span that caused
// it, or -1 for a root; ID is the repetition, episode or request it
// belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index. A nil tracer records
// nothing and returns -1, so untraced runs pay only the nil check.
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// link makes every span named child a child of the span named parent
// that carries the same id: how a handler span joins the client span of
// its request.
func (t *tracer) link(child, parent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := map[int64]int{}
	for i, s := range t.spans {
		if s.Name == parent {
			byID[s.ID] = i
		}
	}
	for i, s := range t.spans {
		if p, ok := byID[s.ID]; ok && s.Name == child {
			t.spans[i].Parent = p
		}
	}
}

// durations returns the duration in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// self returns the self time in seconds of every span named name: its
// duration minus the part of it its children cover.
func (t *tracer) self(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return t.spans[ch[a]].Start < t.spans[ch[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(t.spans[c].Start, reach), min(t.spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out = append(out, float64(s.End-s.Start-covered)/1e9)
	}
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}
