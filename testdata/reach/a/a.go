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
