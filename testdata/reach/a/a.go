// Package a is the reachability gate's fixture library.
package a

// Shape is the interface main reaches Square's Area through.
type Shape interface{ Area() int }

// Square is a Shape.
type Square struct{ side int }

// NewSquare returns a square of the given side.
func NewSquare(side int) Square { return Square{side} }

// Area is called only through Shape.
func (s Square) Area() int { return s.side * s.side }

// Total sums the shapes' areas.
func Total(shapes ...Shape) int {
	n := 0
	for _, s := range shapes {
		n += s.Area()
	}
	return n
}

// OnlyFromTest is used only by another package's test.
func OnlyFromTest() int { return 1 }

// Unused is used by nothing but this package's own test.
func Unused() int { return 2 }

// Options is the option gates' fixture: main's literal sets Size and
// Label, Depth is only defaulted in this package, and nothing reads Label.
type Options struct {
	Size  int
	Depth int
	Label string
}

// Config is built from Options: Width copies the set Size, Mirror the unset
// Depth.
type Config struct {
	Width  int
	Mirror int
}

// Spec holds a Config; main reads its fields through the embedding.
type Spec struct{ Config }

// New fills o's defaults and builds its Spec.
func New(o Options) Spec {
	if o.Depth == 0 {
		o.Depth = 1
	}
	return Spec{Config{Width: o.Size, Mirror: o.Depth}}
}

// Counter is the field gate's fixture: note is only written, total is only
// accumulated, and key's name is read only through key's use as a map key.
type Counter struct {
	note  string
	total int
}

type key struct{ name string }

// Stats is the counter gate's fixture: main reads Names, only a test reads
// Calls, and Dropped is only accumulated.
type Stats struct {
	Names   int
	Calls   int
	Dropped int
}

// Tally counts a call and the names it is given.
func Tally(names ...string) Stats {
	s := Stats{Names: len(names)}
	s.Calls++
	s.Dropped += 0
	return s
}

// Count returns how many distinct names it is given.
func (c *Counter) Count(names ...string) int {
	c.note = "counted"
	seen := map[key]bool{}
	for _, n := range names {
		seen[key{n}] = true
		c.total += len(n)
	}
	return len(seen)
}
