package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 4 {
		t.Fatal("TestOnly")
	}
}
