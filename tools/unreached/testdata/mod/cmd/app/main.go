// Command app calls into the internal packages from a package main.
package main

import (
	"fmt"

	"example.com/mod/internal/lib"
	"example.com/mod/internal/other"
)

func main() {
	fmt.Println(other.Run(), lib.FromMain(), lib.New())
}
