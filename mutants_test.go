package lvm_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mutant is one entry of testdata/mutants.txt.
type mutant struct {
	fields map[string]string
	line   int
}

func readMutants(t *testing.T) []mutant {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "mutants.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []mutant
	var cur *mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			cur = nil
			continue
		}
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("mutants.txt:%d: want \"key: value\", got %q", n, line)
		}
		if cur == nil {
			out = append(out, mutant{fields: map[string]string{}, line: n})
			cur = &out[len(out)-1]
		}
		if _, dup := cur.fields[key]; dup {
			t.Fatalf("mutants.txt:%d: second %q in one entry", n, key)
		}
		cur.fields[key] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMutantListCurrent keeps testdata/mutants.txt true to the code: each
// mutant's old text occurs exactly once in its file, each killer is a
// test of that file's package, and each survivor names the ROADMAP item
// that will kill it. It applies no mutant.
func TestMutantListCurrent(t *testing.T) {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, m := range readMutants(t) {
		f := m.fields
		where := "mutants.txt:" + strconv.Itoa(m.line) + " " + f["id"]
		if f["id"] == "" || ids[f["id"]] {
			t.Errorf("%s: missing or repeated id", where)
		}
		ids[f["id"]] = true
		if f["claim"] == "" {
			t.Errorf("%s: no claim", where)
		}
		old, err1 := strconv.Unquote(f["old"])
		_, err2 := strconv.Unquote(f["new"])
		if err1 != nil || err2 != nil || old == "" {
			t.Errorf("%s: old and new must be Go-quoted, old non-empty", where)
			continue
		}
		src, err := os.ReadFile(f["file"])
		if err != nil {
			t.Errorf("%s: %v", where, err)
			continue
		}
		if n := strings.Count(string(src), old); n != 1 {
			t.Errorf("%s: old text occurs %d times in %s, want once", where, n, f["file"])
		}
		killer, killed := f["killed"]
		item, survives := f["survives"]
		switch {
		case killed == survives:
			t.Errorf("%s: want exactly one of killed and survives", where)
		case killed:
			if !hasTest(t, filepath.Dir(f["file"]), killer) {
				t.Errorf("%s: no func %s( in %s's tests", where, killer, filepath.Dir(f["file"]))
			}
		case !regexp.MustCompile(`\*\*` + regexp.QuoteMeta(item) + `[. ]`).Match(roadmap):
			t.Errorf("%s: survives names %q, which is no ROADMAP item", where, item)
		}
	}
}

// hasTest reports whether a _test.go file in dir declares func name(.
func hasTest(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), "\nfunc "+name+"(") {
			return true
		}
	}
	return false
}
