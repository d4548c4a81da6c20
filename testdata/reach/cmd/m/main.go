// Command m is the reachability gate fixture's root.
package main

import (
	"fmt"

	"reachfix/a"
)

func main() {
	s := a.New(a.Options{Size: 3, Label: "m"})
	var c a.Counter
	fmt.Println(a.Total(a.NewSquare(2)), s.Width, s.Mirror, c.Count("x", "y", "x"), a.Tally("x").Names)
}
