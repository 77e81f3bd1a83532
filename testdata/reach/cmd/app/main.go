package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	f := &lib.Fields{Keyed: 1}
	p := lib.Bump(f)
	fmt.Println(lib.Total(lib.Square{Side: 2}), lib.Box[int]{V: 1}.Get(), p.A, p.B)
	fmt.Println(f.Keyed, f.Assigned, f.TestSet, f.HarnessSet, lib.Touch(&lib.Reads{}))
}
