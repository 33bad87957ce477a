package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Spans of one request
// share Req; Parent is the causing span's ID (0 for a request's root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    string  `json:"request"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Derived marks a span whose duration comes from the engine's own
	// per-phase wall time (engine.Stats) rather than from a clock read
	// around a call: its interval lies inside the parent, start unknown.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory. A nil recorder records nothing, which
// is how the untraced paths run the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID and the function that closes it.
func (r *recorder) begin(req, name string, parent int) (int, func()) {
	if r == nil {
		return 0, func() {}
	}
	start := time.Since(r.t0).Seconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: start})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.t0).Seconds()
		r.mu.Lock()
		r.spans[id-1].End = end
		r.mu.Unlock()
	}
}

// derived records a child span of known duration inside parent.
func (r *recorder) derived(req, name string, parent int, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.mu.Lock()
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: p.Start, End: p.Start + d.Seconds(), Derived: true})
	r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) and the summed wall time of the root
// spans of the requests accepted by keep.
func selfTimes(spans []span, keep func(req string) bool) (map[string]float64, float64) {
	child := map[int]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]float64{}
	var wall float64
	for _, s := range spans {
		if keep != nil && !keep(s.Req) {
			continue
		}
		self[s.Name] += s.dur() - child[s.ID]
		if s.Parent == 0 {
			wall += s.dur()
		}
	}
	return self, wall
}

// selfTimeReport renders a self-time table, largest first, and returns
// the share of the requests' wall time the non-root spans account for.
func selfTimeReport(title string, spans []span, keep func(req string) bool, root string) ([]string, map[string]float64, float64) {
	self, wall := selfTimes(spans, keep)
	if wall <= 0 {
		return nil, nil, 0
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{fmt.Sprintf("self time per layer, %s (total request wall %.3f s):", title, wall)}
	shares := map[string]float64{}
	var covered float64
	for _, n := range names {
		share := self[n] / wall
		shares[n] = share
		if n != root {
			covered += self[n]
		}
		lines = append(lines, fmt.Sprintf("  %-28s %10.4f s %6.1f%%", n, self[n], 100*share))
	}
	return lines, shares, covered / wall
}

// spanCostLine measures what recording one span costs and states it as a
// share of the traced wall time: the part of the tracing overhead the
// A/B comparison of traced and untraced throughput cannot resolve below
// the machine's run-to-run noise.
func spanCostLine(spans int, tracedWall float64) string {
	r := newRecorder()
	const n = 10000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_, end := r.begin("probe", "probe", 0)
		end()
	}
	per := time.Since(t0).Seconds() / n
	return fmt.Sprintf("span recording costs %.0f ns per span: %d spans = %.4f%% of the traced wall time",
		per*1e9, spans, 100*per*float64(spans)/tracedWall)
}
