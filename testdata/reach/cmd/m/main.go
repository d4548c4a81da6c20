// Command m is the reachability gate fixture's root.
package main

import (
	"fmt"

	"reachfix/a"
)

func main() { fmt.Println(a.Total(a.NewSquare(2))) }
