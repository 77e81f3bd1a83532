// Package lib holds one declaration per case of the production-reach
// gate's self-test; the comment on each says whether it is flagged.
package lib

import "fmt"

// TestOnly is flagged: only lib_test.go calls it.
func TestOnly() {}

// dead is flagged: nothing calls it.
func dead() {}

// deadVar is flagged: nothing reads or writes it.
var deadVar = 1

// selfOnly is flagged: its only use is the call inside its own body.
func selfOnly(n int) int {
	if n == 0 {
		return 0
	}
	return selfOnly(n - 1)
}

// unusedConst is not flagged: constants are exempt.
const unusedConst = 1

// Shape is used by Total.
type Shape interface{ Area() int }

// Square is used by cmd/app.
type Square struct{ Side int }

// Area is not flagged: it implements Shape.
func (s Square) Area() int { return s.Side * s.Side }

// String is not flagged: it implements fmt.Stringer.
func (s Square) String() string { return fmt.Sprint("square ", s.Side) }

// Total is used by cmd/app.
func Total(shapes ...Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return once(n)
}

// once is not flagged: its one use is Total's call.
func once(n int) int { return n }

// Box is used by cmd/app, as Box[int].
type Box[T any] struct{ V T }

// Get is not flagged: cmd/app calls it on a Box[int].
func (b Box[T]) Get() T { return b.V }

// BenchOnly is not flagged: the nested bench module calls it.
func BenchOnly() int { return 1 }

// HarnessOnly is flagged: only internal/simtest/harness, a test fixture
// no binary imports, calls it.
func HarnessOnly() {}
