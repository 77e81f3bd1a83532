// Package harness stands for a test fixture under internal/simtest: the
// gate neither checks its declarations nor counts its uses and writes.
package harness

import "fixture/internal/lib"

// Run is not flagged, though nothing calls it: internal/simtest is not
// checked.
func Run() int {
	lib.HarnessOnly()
	f := lib.Fields{HarnessSet: 1}
	return f.HarnessSet
}
