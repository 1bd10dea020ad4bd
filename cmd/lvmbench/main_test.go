package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lvm/internal/experiments"
)

// small are the sweep golden's parameters.
var small = []string{"-events", "20", "-iters", "100", "-txns", "32", "-stride", "9"}

// bannerLine is how lvmbench frames each section.
var bannerLine = regexp.MustCompile(`(?m)^\n=== (.*) ===\n\n`)

// sections splits lvmbench's stdout on its banner lines into banners and
// the text under each; any text before the first banner fails the test.
func sections(t *testing.T, out string) (banners, texts []string) {
	t.Helper()
	idx := bannerLine.FindAllStringSubmatchIndex(out, -1)
	if len(idx) == 0 || idx[0][0] != 0 {
		t.Fatalf("stdout does not open with a banner: %.80q", out)
	}
	for i, m := range idx {
		end := len(out)
		if i+1 < len(idx) {
			end = idx[i+1][0]
		}
		banners = append(banners, out[m[2]:m[3]])
		texts = append(texts, out[m[1]:end])
	}
	return banners, texts
}

func runArgs(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// TestAllPrintsTheSweepGolden checks that `lvmbench all` prints the tables
// tier-1 pins: its sections map in order onto experiments.Registry, and
// each body is the same-named section of the sweep golden, followed only
// by the notes fig9 and extension-parallel print.
func TestAllPrintsTheSweepGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "sweep_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	parts := regexp.MustCompile(`(?m)^=== (\S+) ===\n`).FindAllStringSubmatchIndex(string(raw), -1)
	for i, m := range parts {
		end := len(raw)
		if i+1 < len(parts) {
			end = parts[i+1][0]
		}
		golden[string(raw[m[2]:m[3]])] = strings.TrimSuffix(string(raw[m[1]:end]), "\n")
	}

	code, out, errOut := runArgs(t, append(small, "all")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	banners, texts := sections(t, out)
	if len(banners) != len(experiments.Registry) {
		t.Fatalf("%d sections, want one per registry entry (%d)", len(banners), len(experiments.Registry))
	}
	notes := map[string]string{"fig9": "crossover (", "extension-parallel": "(both savers"}
	for i, e := range experiments.Registry {
		body, ok := golden[e.Name]
		switch {
		case banners[i] != e.Banner:
			t.Errorf("section %d: banner %q, want %s's %q", i, banners[i], e.Name, e.Banner)
		case !ok:
			t.Errorf("%s: no section in the sweep golden", e.Name)
		case !strings.HasPrefix(texts[i], body):
			t.Errorf("%s: body differs from the sweep golden:\n got: %q\nwant: %q", e.Name, texts[i], body)
		default:
			rest := texts[i][len(body):]
			if want := notes[e.Name]; !strings.HasPrefix(rest, want) || (want == "") != (rest == "") {
				t.Errorf("%s: text after the body %q, want notes starting %q", e.Name, rest, want)
			}
		}
	}
}

// TestNamesResolveBeforeRunning checks that every name is resolved before
// any experiment runs: an unknown one, or none, exits 2 with nothing on
// stdout and the usage (naming every entry) on stderr, and all expands in
// place.
func TestNamesResolveBeforeRunning(t *testing.T) {
	for _, args := range [][]string{{"table2", "bogus"}, {}, append(small, "-nosuchflag")} {
		code, out, errOut := runArgs(t, args...)
		if code != 2 || out != "" {
			t.Errorf("%q: exit %d, stdout %d bytes; want exit 2 and no stdout", args, code, len(out))
		}
		for _, e := range experiments.Registry {
			if !strings.Contains(errOut, "\n  "+e.Name+" ") {
				t.Errorf("%q: usage does not name %s:\n%s", args, e.Name, errOut)
			}
		}
	}
	if _, _, errOut := runArgs(t, "table2", "bogus"); !strings.HasPrefix(errOut, `lvmbench: unknown experiment "bogus"`) {
		t.Errorf("table2 bogus: stderr does not name the unknown experiment:\n%s", errOut)
	}

	code, out, errOut := runArgs(t, append(small, "fig9", "all")...)
	if code != 0 {
		t.Fatalf("fig9 all: exit %d: %s", code, errOut)
	}
	banners, _ := sections(t, out)
	want := []string{"fig9"}
	for _, e := range experiments.Registry {
		want = append(want, e.Name)
	}
	if len(banners) != len(want) {
		t.Fatalf("fig9 all: %d sections, want %d", len(banners), len(want))
	}
	for i, name := range want {
		if e := entry(name); banners[i] != e.Banner {
			t.Errorf("fig9 all: section %d is %q, want %s", i, banners[i], name)
		}
	}
}

func entry(name string) experiments.Entry {
	for _, e := range experiments.Registry {
		if e.Name == name {
			return e
		}
	}
	return experiments.Entry{}
}

// citation is `lvmbench [flags] <name>` in prose or in a shell line, after
// whitespace is collapsed; a flag's numeric value is skipped with it. A
// bare cmd/lvmbench is the directory, not a command line.
var citation = regexp.MustCompile("(?:^|[\\s`(]|\\./cmd/)lvmbench(?: -[\\w-]+(?: \\d+)?)* ([a-z][a-z0-9-]*)")

// TestDocsCiteRealExperiments checks that every `lvmbench <name>` in
// README.md, DESIGN.md and EXPERIMENTS.md names a registry entry, stats,
// crashtest or all, and that EXPERIMENTS.md cites every registry entry.
func TestDocsCiteRealExperiments(t *testing.T) {
	valid := map[string]bool{"stats": true, "crashtest": true, "all": true}
	for _, e := range experiments.Registry {
		valid[e.Name] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		cited := map[string]bool{}
		for _, m := range citation.FindAllStringSubmatch(strings.Join(strings.Fields(string(raw)), " "), -1) {
			cited[m[1]] = true
			if !valid[m[1]] {
				t.Errorf("%s cites `lvmbench %s`, which is no experiment or command", doc, m[1])
			}
		}
		if doc != "EXPERIMENTS.md" {
			continue
		}
		for _, e := range experiments.Registry {
			if !cited[e.Name] {
				t.Errorf("EXPERIMENTS.md never cites `lvmbench %s`", e.Name)
			}
		}
	}
}
