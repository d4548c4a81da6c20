package a

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 2 {
		t.Fatal("Unused")
	}
}

// A counter only a test reads is read.
func TestTally(t *testing.T) {
	if Tally().Calls != 1 {
		t.Fatal("Calls")
	}
}

// A test's literal does not set an option.
func TestNew(t *testing.T) {
	if c := New(Options{Depth: 2}); c.Mirror != 2 {
		t.Fatal("Mirror")
	}
}
