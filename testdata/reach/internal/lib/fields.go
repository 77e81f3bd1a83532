package lib

import "sync"

// Fields has one field per case of the gate's field rule; the comment
// on each says whether it is flagged.
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
