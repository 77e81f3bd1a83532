package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.Total(lib.Square{Side: 2}), lib.Box[int]{V: 1}.Get(), lib.Bump(&lib.Fields{Keyed: 1}))
}
