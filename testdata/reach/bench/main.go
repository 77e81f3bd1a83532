package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var r lib.Reads
	fmt.Println(lib.BenchOnly(), r.BenchRead)
}
