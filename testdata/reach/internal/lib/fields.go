package lib

import "sync"

// Fields has one field per case of the gate's write rule; Bump or
// cmd/app reads every one but Tagged, which is exempt.
type Fields struct {
	Keyed      int        // not flagged: cmd/app sets it by key
	Assigned   int        // not flagged: Bump assigns it
	Counted    int        // not flagged: Bump increments it
	Addressed  int        // not flagged: Bump takes its address
	Mu         sync.Mutex // not flagged: Bump calls its pointer-receiver Lock
	Tagged     int        `json:"tagged"` // not flagged: JSON-tagged
	TestSet    int        // flagged: only lib_test.go writes it
	ReadOnly   int        // flagged: Bump reads it, nothing writes it
	HarnessSet int        // flagged: only internal/simtest/harness writes it
}

// Pair is used by Bump, which sets both fields by position.
type Pair struct{ A, B int }

// Bump is used by cmd/app.
func Bump(f *Fields) Pair {
	f.Mu.Lock()
	defer f.Mu.Unlock()
	f.Assigned = 1
	f.Counted++
	p := &f.Addressed
	*p = 2
	return Pair{f.Counted, f.ReadOnly}
}

// Reads has one field per case of the gate's read rule; the comment on
// each says whether it is flagged. Touch writes them all.
type Reads struct {
	Unread    int  // flagged: Touch assigns it, nothing reads it
	Tally     int  // flagged: Touch increments it, nothing reads it
	TestRead  int  // flagged: only lib_test.go reads it
	BenchRead int  // not flagged: the nested bench module reads it
	Nested    Pair // not flagged: assigning r.Nested.A reads Nested
}

// Key is not flagged: a map key, whose fields the map compares.
type Key struct{ X, Y int }

// Touch is used by cmd/app.
func Touch(r *Reads) int {
	r.Unread = 1
	r.Tally++
	r.TestRead = 2
	r.BenchRead = 3
	r.Nested.A = 4
	seen := map[Key]bool{{X: 1, Y: 2}: true}
	return len(seen)
}
