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

// span is one traced interval at a layer boundary. Spans of one job
// share Job; Parent is the ID of the span that caused it (0 for a
// root). Self is the duration minus the part its children cover,
// derived when the spans are written out.
type span struct {
	Job    string `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`

	parentName string // resolved to Parent at write time
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
	alias map[string]string // job ID as one layer knows it -> canonical job ID
}

// span records a finished interval with a known parent ID and returns
// its ID.
func (t *tracer) span(job, name string, parent int, start, end time.Time) int {
	return t.add(span{Job: job, Name: name, Parent: parent,
		Start: int64(start.Sub(processStart)), End: int64(end.Sub(processStart))})
}

// spanUnder records an interval whose parent is the span named
// parentName in the same job, for layers that cannot see each other's
// span IDs (the HTTP handler runs before the job has an ID).
func (t *tracer) spanUnder(job, name, parentName string, start, end time.Time) {
	t.add(span{Job: job, Name: name, parentName: parentName,
		Start: int64(start.Sub(processStart)), End: int64(end.Sub(processStart))})
}

func (t *tracer) add(s span) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// sameJob records that job IDs a and b name the same job.
func (t *tracer) sameJob(a, b string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.alias == nil {
		t.alias = map[string]string{}
	}
	t.alias[a] = b
}

// finish resolves aliases and parent names and derives self times.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	byName := map[[2]string]int{} // (job, name) -> index
	for i := range spans {
		if c, ok := t.alias[spans[i].Job]; ok {
			spans[i].Job = c
		}
		byName[[2]string{spans[i].Job, spans[i].Name}] = i
	}
	children := map[int][]int{}
	for i := range spans {
		s := &spans[i]
		if s.parentName != "" {
			if p, ok := byName[[2]string{s.Job, s.parentName}]; ok {
				s.Parent = spans[p].ID
			}
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		s.Self = s.End - s.Start - covered(iv)
	}
	return spans
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		switch {
		case !started || v[0] >= end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// write saves the spans as JSON and prints each span name's count and
// median self time.
func (t *tracer) write(path string, w io.Writer) error {
	spans := t.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	self := map[string][]float64{}
	for _, s := range spans {
		self[s.Name] = append(self[s.Name], float64(s.Self)/1e3)
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# trace: %d spans written to %s\n", len(spans), path)
	for _, n := range names {
		q1, med, q3 := quartiles(self[n])
		fmt.Fprintf(w, "# trace self_us %-16s n=%-6d p50=%.1f q1=%.1f q3=%.1f\n", n, len(self[n]), med, q1, q3)
	}
	return nil
}
