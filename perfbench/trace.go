package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one solve or one
// request share a trace id; parent is the id of the span that caused it (0
// for a trace root). The layer is the name's prefix up to the first dot.
type span struct {
	id, parent, trace int64
	name              string
	start, end        time.Time
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil check
// per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

// newTrace returns a fresh trace id.
func (t *tracer) newTrace() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span and returns its id.
func (t *tracer) add(trace, parent int64, name string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{id: t.next, parent: parent, trace: trace, name: name, start: start, end: end})
	return t.next
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per layer, the median over traces of the layer's self
// time in that trace. A span's self time is its duration minus the part of
// its interval that its children's spans cover; layers absent from a trace
// do not contribute a sample for it.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	perTrace := map[int64]map[string]time.Duration{}
	for _, s := range spans {
		m := perTrace[s.trace]
		if m == nil {
			m = map[string]time.Duration{}
			perTrace[s.trace] = m
		}
		m[s.layer()] += s.end.Sub(s.start) - covered(s, children[s.id])
	}
	samples := map[string][]float64{}
	for _, m := range perTrace {
		for l, d := range m {
			samples[l] = append(samples[l], float64(d))
		}
	}
	out := map[string]time.Duration{}
	for l, xs := range samples {
		out[l] = time.Duration(median(xs))
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers. Children may overlap each other (parallel tasks,
// concurrent transport calls) and may stick out of the parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// innermost returns the id of the narrowest span in cands whose interval
// contains [a, b], or fallback when none does. It attaches spans whose
// cause is known only by time (engine stages, transport calls) to the
// iteration or stage that was running.
func innermost(cands []span, a, b time.Time, fallback int64) int64 {
	best, bestDur := fallback, time.Duration(-1)
	for _, c := range cands {
		if !a.Before(c.start) && !b.After(c.end) {
			if d := c.end.Sub(c.start); bestDur < 0 || d < bestDur {
				best, bestDur = c.id, d
			}
		}
	}
	return best
}
