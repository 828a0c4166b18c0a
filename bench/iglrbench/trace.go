package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: an op, or a call into a layer made on behalf of
// an op. Spans outside any op (set-up, the stage replay on cold_corpus,
// the reference replay on daemon_mix) carry op -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: start})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAs closes span id and files it under layer, for calls whose layer is
// known only from their result (a tolerant parse that isolated an error).
func (t *tracer) endAs(id int, layer string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Layer = layer
	t.mu.Unlock()
}

// durations returns the durations of the spans with this layer and name.
func (t *tracer) durations(layer, name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes returns each layer's self time over the spans that belong to
// an op (a span's duration minus the part of it its children cover), the
// summed duration of the op spans themselves, and the number of ops. An op
// timed in parts has an op span per part.
func (t *tracer) selfTimes() (self map[string]time.Duration, opTotal time.Duration, ops int) {
	self = map[string]time.Duration{}
	if t == nil {
		return self, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	seen := map[int]bool{}
	for _, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		if s.Parent < 0 {
			opTotal += s.End - s.Start
			if !seen[s.Op] {
				seen[s.Op] = true
				ops++
			}
		}
		self[s.Layer] += s.End - s.Start - covered(t.spans, s, kids[s.ID])
	}
	return self, opTotal, ops
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(all []span, parent span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := all[k].Start, all[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
