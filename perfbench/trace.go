package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one traced call: a Backup, Restore, Verify or RunDedup2 call, a
// replay call batch, or the generation, round or pass that groups them.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Client   int    `json:"client"` // -1 when no single client owns the span
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs execute the same code.
type Tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []Span // guarded by mu
}

func NewTracer(workload string) *Tracer {
	return &Tracer{workload: workload, t0: time.Now()}
}

// Start opens a span and returns its ID.
func (t *Tracer) Start(name string, parent, client int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload, Client: client, StartNS: now})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// Do runs fn inside a span.
func (t *Tracer) Do(name string, parent, client int, fn func(id int)) {
	id := t.Start(name, parent, client)
	fn(id)
	t.End(id)
}

// Write stores every span as one JSON document.
func (t *Tracer) Write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTime aggregates spans by name: count, total duration and self time
// (duration minus the part of the interval its children cover).
type SelfTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

func (t *Tracer) SelfTimes() []SelfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]Span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*SelfTime)
	var names []string
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &SelfTime{Name: s.Name}
			agg[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.Total += time.Duration(s.EndNS - s.StartNS)
		a.Self += time.Duration(s.EndNS - s.StartNS - covered(children[s.ID]))
	}
	out := make([]SelfTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []Span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total, end int64
	for _, s := range spans {
		start := max(s.StartNS, end)
		if s.EndNS > start {
			total += s.EndNS - start
			end = s.EndNS
		}
	}
	return total
}

func printSelfTimes(w io.Writer, rows []SelfTime) {
	fmt.Fprintf(w, "  %-28s %6s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %6d %10.3f %10.3f\n", r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds())
	}
}
