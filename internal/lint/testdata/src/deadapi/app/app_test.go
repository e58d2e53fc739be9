package app

import "testing"

func TestOnlyCaller(t *testing.T) {
	TestOnly()
	Documented()
}
