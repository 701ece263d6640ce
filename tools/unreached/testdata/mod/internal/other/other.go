// Package other calls lib from a second internal package.
package other

import "example.com/mod/internal/lib"

// Run calls lib.Used.
func Run() int { return lib.Used() }
