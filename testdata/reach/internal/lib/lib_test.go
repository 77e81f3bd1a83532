package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	Bump(&Fields{TestSet: 1})
}
