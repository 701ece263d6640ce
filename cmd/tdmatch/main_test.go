package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParseIndexKind runs the command with each -index value. A removed
// or unknown kind is a usage error: exit 2 with the reason and the flag
// set, before any corpus is read. A known kind passes the check, so the
// missing corpus file fails the run with exit 1 instead.
func TestParseIndexKind(t *testing.T) {
	if args := os.Getenv("TDMATCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"tdmatch"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	missing := filepath.Join(t.TempDir(), "missing.csv")
	for _, tc := range []struct {
		kind string
		code int
		msg  string
	}{
		{"flat", 1, "missing.csv"},
		{"hnsw", 1, "missing.csv"},
		{"ivf", 2, "was removed"},
		{"sq8", 2, "was removed"},
		{"annoy", 2, "unknown"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestParseIndexKind$")
		cmd.Env = append(os.Environ(),
			"TDMATCH_TEST_ARGS=-first "+missing+" -second "+missing+" -index "+tc.kind)
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != tc.code {
			t.Errorf("-index %s: %v, want exit %d\n%s", tc.kind, err, tc.code, out)
			continue
		}
		if !strings.Contains(string(out), tc.msg) {
			t.Errorf("-index %s: output lacks %q:\n%s", tc.kind, tc.msg, out)
		}
		if usage := strings.Contains(string(out), "-index string"); usage != (tc.code == 2) {
			t.Errorf("-index %s: usage shown %v, want %v:\n%s", tc.kind, usage, tc.code == 2, out)
		}
	}
}

func TestLoadTriples(t *testing.T) {
	path := writeFile(t, "kb.tsv",
		"tarantino\tstyle\tcomedy\nbad line without tabs\nwillis\tstarring\tpulp fiction\n")
	triples, err := loadTriples(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 2 {
		t.Fatalf("triples = %d, want 2 (malformed line skipped)", len(triples))
	}
	if triples[0] != [3]string{"tarantino", "style", "comedy"} {
		t.Errorf("triple = %v", triples[0])
	}
	if _, err := loadTriples(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Error("want error for missing file")
	}
}

func TestLoadSynonyms(t *testing.T) {
	path := writeFile(t, "syn.csv",
		"bruce willis, b willis , willis bruce\nsingleton\npdca,plan do check act\n")
	groups, err := loadSynonyms(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (singleton skipped)", len(groups))
	}
	if groups[0].Canonical != "bruce willis" || len(groups[0].Variants) != 2 {
		t.Errorf("group = %+v", groups[0])
	}
	if groups[0].Variants[0] != "b willis" {
		t.Errorf("variant not trimmed: %q", groups[0].Variants[0])
	}
	if _, err := loadSynonyms(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("want error for missing file")
	}
}
