package lvm_test

import (
	"bufio"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var runMutants = flag.Bool("mutants", false, "apply each entry of testdata/mutants.txt to a copy of the module and check its verdict")

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

// TestMutantsBite applies each entry of testdata/mutants.txt in turn to
// a copy of the module: a killed entry must fail its named killer, a
// survivor must pass its file's whole package. Every mutant also runs
// crashtest's TestMatrixGolden, and the log says which ones the golden
// kills. The root package never runs under a mutant: its
// TestMutantListCurrent fails as soon as an old text is gone. The module
// has no dependencies, so this runs offline:
//
//	go test -run TestMutantsBite . -mutants
func TestMutantsBite(t *testing.T) {
	if !*runMutants {
		t.Skip("applies every mutant; run with -mutants")
	}
	dir := t.TempDir()
	copyModule(t, dir)
	var goldenKills []string
	for _, m := range readMutants(t) {
		f := m.fields
		t.Run(f["id"], func(t *testing.T) {
			path := filepath.Join(dir, f["file"])
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			old, err1 := strconv.Unquote(f["old"])
			mut, err2 := strconv.Unquote(f["new"])
			if err1 != nil || err2 != nil || strings.Count(string(src), old) != 1 {
				t.Fatalf("entry is stale; TestMutantListCurrent says why")
			}
			writeFile(t, path, strings.Replace(string(src), old, mut, 1))
			defer writeFile(t, path, string(src))

			pkg := "./" + filepath.ToSlash(filepath.Dir(f["file"]))
			start := time.Now()
			verdict := "killed by " + f["killed"]
			if killer, ok := f["killed"]; ok {
				if out, failed := goTest(t, dir, "-run", "^"+killer+"$", pkg); !failed {
					t.Errorf("survives its killer %s:\n%s", killer, out)
				}
			} else {
				verdict = "survives " + pkg + " (" + f["survives"] + ")"
				if out, failed := goTest(t, dir, pkg); failed {
					t.Errorf("listed as surviving but fails %s:\n%s", pkg, out)
				}
			}
			if _, failed := goTest(t, dir, "-run", "^TestMatrixGolden$", "./internal/crashtest"); failed {
				verdict += "; TestMatrixGolden kills it"
				goldenKills = append(goldenKills, f["id"])
			}
			t.Logf("%s (%v)", verdict, time.Since(start).Round(100*time.Millisecond))
		})
	}
	t.Logf("TestMatrixGolden kills %d: %s", len(goldenKills), strings.Join(goldenKills, " "))
}

// copyModule copies the root module's files into dir, leaving out
// hidden directories (.git, build output) and the nested bench module,
// which no mutant's killer builds.
func copyModule(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "bench") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, path), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, path), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func writeFile(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goTest runs go test -count=1 with args in dir and reports whether the
// tests failed. A mutant that does not compile kills nothing, so a build
// failure fails the calling test outright.
func goTest(t *testing.T, dir string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"test", "-count=1"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]") {
		t.Fatalf("go test %s does not build:\n%s", strings.Join(args, " "), out)
	}
	return string(out), err != nil
}
