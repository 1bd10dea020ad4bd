package crashtest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestRunShortMatrixIsDeterministic runs a small seeded matrix twice and
// requires every plan to pass and the full report to be byte-identical —
// the same property `lvmbench crashtest` gates on, at smoke scale.
func TestRunShortMatrixIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	ok1, err := Run(Options{Seeds: 2, Short: true}, &a)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := Run(Options{Seeds: 2, Short: true}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !ok1 || !ok2 {
		t.Fatalf("crashtest matrix failed:\n%s", a.String())
	}
	if a.String() != b.String() {
		t.Fatalf("reports differ between identical runs:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	if strings.Contains(a.String(), "FAIL") {
		t.Fatalf("report contains FAIL verdicts:\n%s", a.String())
	}
}

// TestMatrixGolden pins the whole 184-plan report, full depth and short,
// byte for byte: every plan's verdict, crash point, replay counters and
// diff. A change to a template's setup, workload or checks that means no
// behaviour change must leave both goldens untouched; a change that does
// mean to move a report line rewrites them with -update, and the golden
// diff is what review reads.
func TestMatrixGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		opts Options
	}{
		{"matrix.golden", Options{Seeds: 8}},
		{"matrix_short.golden", Options{Seeds: 8, Short: true}},
	} {
		var buf bytes.Buffer
		ok, err := Run(c.opts, &buf)
		if err != nil {
			t.Fatal(err)
		}
		got := buf.String()
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d:\n got  %s\n want %s", c.file, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s length differs: got %d lines, want %d", c.file, len(gl), len(wl))
		}
		if !ok {
			t.Fatalf("%s: matrix did not pass", c.file)
		}
	}
}
