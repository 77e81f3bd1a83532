package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	Bump(&Fields{TestSet: 1})
	var r Reads
	Touch(&r)
	if r.TestRead != 2 {
		t.Fatal(r.TestRead)
	}
}
