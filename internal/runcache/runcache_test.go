package runcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetOrComputeStoresAndHits(t *testing.T) {
	c := New(0)
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("payload"), nil }

	v, hit, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || hit || string(v) != "payload" {
		t.Fatalf("first call: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || !hit || string(v) != "payload" {
		t.Fatalf("second call: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Hits != 1 || s.Misses != 1 || s.Bytes != int64(len("payload")) {
		t.Fatalf("stats %+v", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(0)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(v) != "ok" {
		t.Fatalf("after error: v=%q hit=%v err=%v (error must not poison the key)", v, hit, err)
	}
}

// TestSingleFlightCoalesces proves a thundering herd of identical keys
// runs exactly one computation, with every follower receiving the same
// bytes. Run under -race in CI.
func TestSingleFlightCoalesces(t *testing.T) {
	c := New(0)
	var computes atomic.Int64
	release := make(chan struct{})
	const herd = 16

	var wg sync.WaitGroup
	vals := make([][]byte, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "hot", func() ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("hot-bytes"), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let the herd pile up, then release the one computation. Every
	// follower must reach the in-flight wait before release: the leader
	// is parked on the channel, so they can only coalesce.
	for c.Stats().Coalesced < herd-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computations for one key, want 1", got)
	}
	for i, v := range vals {
		if !bytes.Equal(v, []byte("hot-bytes")) {
			t.Fatalf("waiter %d got %q", i, v)
		}
	}
}

// TestCancelledWaiterDoesNotPoisonFlight is the unit-level regression
// for the coalescing bug: the requester that *starts* a computation
// cancelling its context must abandon only its own wait — the flight
// keeps running, stores its result, and serves every other waiter.
func TestCancelledWaiterDoesNotPoisonFlight(t *testing.T) {
	c := New(0)
	release := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(ctx, "k", func() ([]byte, error) {
			<-release
			return []byte("survives"), nil
		})
		ownerDone <- err
	}()
	// Wait for the flight to register, then attach a live follower.
	for c.Stats().Misses < 1 {
		time.Sleep(time.Millisecond)
	}
	followerDone := make(chan struct{})
	var fv []byte
	var fhit bool
	var ferr error
	go func() {
		defer close(followerDone)
		fv, fhit, ferr = c.GetOrCompute(context.Background(), "k",
			func() ([]byte, error) { t.Error("follower recomputed a coalesced key"); return nil, nil })
	}()
	for c.Stats().Coalesced < 1 {
		time.Sleep(time.Millisecond)
	}

	// The owner disconnects while the computation is still running.
	cancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner err = %v, want context.Canceled", err)
	}
	// The flight must be unaffected: release it, the follower gets the
	// real bytes and the entry is stored.
	close(release)
	<-followerDone
	if ferr != nil || !fhit || string(fv) != "survives" {
		t.Fatalf("follower after owner cancel: v=%q hit=%v err=%v", fv, fhit, ferr)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "survives" {
		t.Fatalf("flight result not stored after owner cancel: %q %v", v, ok)
	}
}

func TestFIFOEviction(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived past the cap")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("entry %s evicted early", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 2 {
		t.Fatalf("stats %+v", s)
	}
}

// TestPutDuplicateIsNoOp pins the duplicate-key contract for both
// direct inserts and archive priming: content-addressed keys can only
// ever carry one value, so a second insert must change nothing — not
// the bytes, not the byte counter, not the FIFO order.
func TestPutDuplicateIsNoOp(t *testing.T) {
	c := New(0)
	c.Put("k", []byte("one"))
	c.Put("k", []byte("two"))
	c.Prime("k", []byte("three"))
	if v, _ := c.Get("k"); string(v) != "one" {
		t.Fatalf("duplicate insert replaced the entry: %q", v)
	}
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != int64(len("one")) {
		t.Fatalf("duplicate insert disturbed accounting: %+v", s)
	}
	if s.Primed != 0 {
		t.Fatalf("no-op Prime counted as primed: %+v", s)
	}
	c.Prime("fresh", []byte("x"))
	if s := c.Stats(); s.Primed != 1 || s.Entries != 2 {
		t.Fatalf("Prime of a fresh key: %+v", s)
	}
}

// TestEvictionAccountingUnderConcurrency hammers a small-capped cache
// with concurrent Put and GetOrCompute traffic (including duplicate
// keys), then audits the counters against the surviving entries: the
// byte counter must equal the sum of live entry sizes, evictions must
// equal inserts minus survivors, and the stats snapshots taken during
// the storm must be monotone. Run under -race in CI.
func TestEvictionAccountingUnderConcurrency(t *testing.T) {
	const cap = 8
	c := New(cap)

	// Monotonicity is checked under one mutex so snapshots are compared
	// in the order they were taken.
	var prev Stats
	var prevMu sync.Mutex
	checkMonotone := func() {
		prevMu.Lock()
		defer prevMu.Unlock()
		s := c.Stats()
		if s.Hits < prev.Hits || s.Misses < prev.Misses || s.Coalesced < prev.Coalesced ||
			s.Evictions < prev.Evictions || s.Primed < prev.Primed {
			t.Errorf("stats went backwards: %+v then %+v", prev, s)
		}
		prev = s
	}

	// Put traffic uses globally unique keys (every Put is a fresh
	// store); GetOrCompute traffic collides on a small shared key pool,
	// and computes count themselves — an evicted key that gets
	// recomputed counts again, so the insert total stays exact.
	var computes atomic.Int64
	var puts atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				val := bytes.Repeat([]byte{'x'}, 1+i%7)
				if i%2 == 0 {
					c.Put(fmt.Sprintf("p%d-%d", g, i), val)
					puts.Add(1)
				} else {
					c.GetOrCompute(context.Background(), fmt.Sprintf("c%d", i%20), func() ([]byte, error) {
						computes.Add(1)
						return val, nil
					})
				}
				checkMonotone()
			}
		}(g)
	}
	wg.Wait()

	s := c.Stats()
	if s.Entries > cap {
		t.Fatalf("%d entries above the %d cap", s.Entries, cap)
	}
	// Audit the byte counter against the live map (white-box: same
	// package as the implementation).
	c.mu.Lock()
	var liveBytes int64
	for _, v := range c.entries {
		liveBytes += int64(len(v))
	}
	liveEntries := len(c.entries)
	order := len(c.order)
	c.mu.Unlock()
	if s.Bytes != liveBytes {
		t.Fatalf("bytes counter %d != live entry bytes %d", s.Bytes, liveBytes)
	}
	if order != liveEntries {
		t.Fatalf("FIFO order tracks %d keys for %d live entries", order, liveEntries)
	}
	// Exact insert accounting: every insert is either still live or was
	// evicted — nothing double-counts, nothing leaks.
	if got, want := uint64(liveEntries)+s.Evictions, uint64(puts.Load()+computes.Load()); got != want {
		t.Fatalf("entries(%d) + evictions(%d) = %d, want %d (%d puts + %d computes)",
			liveEntries, s.Evictions, got, want, puts.Load(), computes.Load())
	}
}
