// Package runcache is the content-addressed run cache behind
// cmd/tcsb-server: rendered run output (JSONL bytes) stored under the
// canonical request key (core.RunRequest.Key — config digest, seed,
// spec, selection). The engine's determinism guarantee — stdout is a
// pure function of flags and seed, byte-identical across worker counts
// — is what turns this from an approximation into an exact cache:
// a hit returns the *same bytes* a fresh run would produce, so
// repeated queries cost zero compute and the service can absorb heavy
// read traffic on a small fleet.
//
// Concurrent requests for the same key are coalesced single-flight:
// the first computes, later arrivals block on its completion and share
// the result, so a thundering herd of identical sweeps runs one
// campaign, not N. The computation itself runs detached from any
// single requester: cancelling a waiter's context abandons *that
// waiter's* wait, never the flight, so a disconnected client can't
// poison the result for coalesced followers that are still live.
package runcache

import (
	"context"
	"fmt"
	"sync"
)

// Cache is a bounded in-memory content-addressed store. The zero value
// is not ready; build one with New. All methods are safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	max      int // entry cap; <= 0 means unbounded
	entries  map[string][]byte
	order    []string // insertion order, for FIFO eviction
	inflight map[string]*flight

	hits      uint64
	misses    uint64
	coalesced uint64
	evictions uint64
	primed    uint64
	bytes     int64
}

// flight is one in-progress computation; waiters (the requester that
// started it included) block on done.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// New returns a cache bounded to maxEntries stored runs (<= 0 means
// unbounded). Eviction is FIFO over completed entries; in-flight
// computations are never evicted.
func New(maxEntries int) *Cache {
	return &Cache{
		max:      maxEntries,
		entries:  make(map[string][]byte),
		inflight: make(map[string]*flight),
	}
}

// Get returns the stored bytes for key. The returned slice is the
// cache's own copy and must not be mutated.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// GetOrCompute returns the bytes stored under key, computing and
// storing them on a miss. hit reports whether the bytes came from the
// cache (a coalesced follower of an in-flight computation counts as a
// hit: it paid no compute). Compute errors are returned to every
// waiter and never cached, so a transient failure does not poison the
// key.
//
// The computation runs in its own goroutine and always completes: ctx
// gates only this caller's blocking wait. A caller whose context is
// cancelled gets ctx.Err() back, but the flight keeps running and its
// result is stored and delivered to every other waiter — the flight
// belongs to the cache, not to the requester that happened to start it.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	if v, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return v, true, nil
	}
	f, inflight := c.inflight[key]
	if inflight {
		c.coalesced++
	} else {
		f = &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.misses++
	}
	c.mu.Unlock()

	if !inflight {
		go c.runFlight(key, f, compute)
	}
	select {
	case <-f.done:
		return f.val, inflight, f.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// runFlight executes one detached computation and publishes its result.
func (c *Cache) runFlight(key string, f *flight, compute func() ([]byte, error)) {
	f.val, f.err = compute()
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.store(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
}

// store inserts under c.mu, evicting FIFO past the cap. A key that is
// already stored is a no-op: the bytes are content-addressed, so a
// duplicate insert could only carry the identical value.
func (c *Cache) store(key string, val []byte) {
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = val
	c.order = append(c.order, key)
	c.bytes += int64(len(val))
	for c.max > 0 && len(c.entries) > c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		c.bytes -= int64(len(c.entries[oldest]))
		delete(c.entries, oldest)
		c.evictions++
	}
}

// Put stores bytes under key directly, without a computation.
// Duplicate keys are a no-op.
func (c *Cache) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store(key, val)
}

// Prime is Put for archive restoration: it stores bytes under key and
// counts the insert in the primed stat, so a service restarted over a
// persisted archive can report how much of its cache was rehydrated
// (and a smoke test can assert misses==0 after one). It reports
// whether the key was actually stored (false: already present).
func (c *Cache) Prime(key string, val []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.store(key, val)
	c.primed++
	return true
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Evictions uint64 `json:"evictions"`
	Primed    uint64 `json:"primed"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Primed:    c.primed,
	}
}

// String renders the counters for logs.
func (s Stats) String() string {
	return fmt.Sprintf("entries=%d bytes=%d hits=%d misses=%d coalesced=%d evictions=%d primed=%d",
		s.Entries, s.Bytes, s.Hits, s.Misses, s.Coalesced, s.Evictions, s.Primed)
}
