package main

import (
	"sync"
	"sync/atomic"
	"time"

	"distenc"
	"distenc/internal/rdd"
)

// transportCall is one Put or Fetch as the engine saw it.
type transportCall struct {
	put   bool
	start time.Time
	dur   time.Duration
	bytes int
	err   bool
}

// countingTransport decorates the façade Transport interface: it times and
// counts every Put and Fetch, counts the image bytes each moves, and passes
// results and errors through unchanged, so the engine's recovery logic
// (errors.Is(err, ErrMachineUnreachable)) behaves exactly as undecorated.
type countingTransport struct {
	inner  distenc.Transport
	errors atomic.Int64

	mu    sync.Mutex
	calls []transportCall
}

var _ distenc.Transport = (*countingTransport)(nil)

func (t *countingTransport) record(c transportCall) {
	if c.err {
		t.errors.Add(1)
	}
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// callsSince returns the calls that started at or after from.
func (t *countingTransport) callsSince(from time.Time) []transportCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []transportCall
	for _, c := range t.calls {
		if !c.start.Before(from) {
			out = append(out, c)
		}
	}
	return out
}

func (t *countingTransport) Workers() int { return t.inner.Workers() }

func (t *countingTransport) Put(m int, id rdd.BlockID, data []byte) error {
	start := time.Now()
	err := t.inner.Put(m, id, data)
	t.record(transportCall{put: true, start: start, dur: time.Since(start), bytes: len(data), err: err != nil})
	return err
}

func (t *countingTransport) Fetch(m int, id rdd.BlockID) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.Fetch(m, id)
	t.record(transportCall{start: start, dur: time.Since(start), bytes: len(data), err: err != nil})
	return data, err
}

func (t *countingTransport) Drop(m int, owner int64) { t.inner.Drop(m, owner) }

func (t *countingTransport) Kill(m int) error { return t.inner.Kill(m) }

func (t *countingTransport) Close() error { return t.inner.Close() }
