package b

import (
	"testing"

	"reachfix/a"
)

func TestOnlyFromTest(t *testing.T) {
	if a.OnlyFromTest() != 1 {
		t.Fatal("OnlyFromTest")
	}
}
