// Package lib declares one name for each case the check tells apart.
package lib

// Used is called from another internal package.
func Used() int { return 1 }

// FromMain is called from a package main.
func FromMain() int { return 2 }

// Unused has no caller.
func Unused() int { return 3 }

// TestOnly is called from lib_test.go alone.
func TestOnly() int { return 4 }

// Recursive calls only itself.
func Recursive(n int) int {
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Listed has no caller but is on the allowlist.
func Listed() int { return 5 }

// Shape is a module interface that no code calls through.
type Shape interface {
	Area() float64
}

// T is reached only through interfaces.
type T struct{}

// Area is reached because T implements Shape.
func (T) Area() float64 { return 0 }

// String is reached because T implements fmt.Stringer.
func (T) String() string { return "T" }

// Unreached is a method no interface declares and no code calls.
func (T) Unreached() {}

// New returns a T.
func New() T { return T{} }
