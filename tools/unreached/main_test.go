package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const testMod = "testdata/mod"

// names strips each problem line to the text after its position.
func names(problems []string) []string {
	out := make([]string, len(problems))
	for i, p := range problems {
		out[i] = p[strings.LastIndex(p, ": ")+2:]
	}
	return out
}

// TestFlagsUnreached runs the check over the test module: an unused
// function, a function reached only from its own body or from a _test.go
// file and an unused method are flagged; a function called from another
// package or a package main, methods reached through a module interface or
// fmt.Stringer, and an allowlisted name pass.
func TestFlagsUnreached(t *testing.T) {
	problems, err := run(testMod, filepath.Join(testMod, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Unused is declared but no non-test file references it",
		"lib.TestOnly is declared but no non-test file references it",
		"lib.Recursive is declared but no non-test file references it",
		"lib.T.Unreached is declared but no non-test file references it",
	}
	if got := names(problems); !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestStaleAllowlist: a listed name that is reached or no longer declared
// fails, as does a line without a reason; the findings listed here pass.
func TestStaleAllowlist(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	lines := []string{
		"lib.Listed # kept",
		"lib.Unused # kept",
		"lib.TestOnly # kept",
		"lib.Recursive # kept",
		"lib.T.Unreached",
		"lib.Used # reached by other.Run",
		"lib.T.String # reached through fmt.Stringer",
		"lib.Gone # deleted",
	}
	if err := os.WriteFile(allow, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := run(testMod, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.T.Unreached has no reason",
		"lib.Used is reached; delete the line",
		"lib.T.String is reached; delete the line",
		"lib.Gone is not declared; delete the line",
	}
	if got := names(problems); !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
