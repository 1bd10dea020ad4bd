package main

import (
	"bytes"
	"strings"
	"testing"
)

func fakeRun(workload string, p50, q1, q3 float64) *result {
	r := &result{Workload: workload, Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		v, a, b := 1.0, 1.0, 1.0
		if d.name == "op_p50_us" {
			v, a, b = p50, q1, q3
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit, Q1: &a, Q3: &b}
	}
	return r
}

func compareText(t *testing.T, a, b []*result) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := compareSides(&buf, map[string][]*result{a[0].Workload: a}, map[string][]*result{b[0].Workload: b})
	return buf.String(), code
}

func lineFor(out, metric string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " "+metric+" ") {
			return l
		}
	}
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	base := []*result{fakeRun("serve_commit", 100, 99, 101)}
	cases := []struct {
		name     string
		b        *result
		want     string
		wantCode int
	}{
		{"same", fakeRun("serve_commit", 103, 102, 104), "ok", 0},
		{"slower than the bound", fakeRun("serve_commit", 130, 129, 131), "REGRESSION", 1},
		{"slower but too noisy to tell", fakeRun("serve_commit", 130, 100, 160), "unresolved", 0},
		{"every slice faster", fakeRun("serve_commit", 80, 79, 81), "better", 0},
	}
	for _, c := range cases {
		out, code := compareText(t, base, []*result{c.b})
		if l := lineFor(out, "op_p50_us"); !strings.HasSuffix(l, c.want) || code != c.wantCode {
			t.Errorf("%s: exit %d, line %q; want exit %d and verdict %s", c.name, code, l, c.wantCode, c.want)
		}
		if l := lineFor(out, "ops_per_s"); !strings.HasSuffix(l, "ok") {
			t.Errorf("%s: an unchanged metric reads %q", c.name, l)
		}
	}
}

func TestCompareUsesRunQuartilesWhenASideHasSeveralRuns(t *testing.T) {
	var a, b []*result
	for _, v := range []float64{100, 101, 99, 100, 102} {
		a = append(a, fakeRun("sim_store", v, v, v))
		b = append(b, fakeRun("sim_store", v*1.4, v*1.4, v*1.4))
	}
	out, code := compareText(t, a, b)
	if l := lineFor(out, "op_p50_us"); !strings.HasSuffix(l, "REGRESSION") || code != 1 {
		t.Fatalf("five runs each, 40%% slower: exit %d, %q", code, l)
	}
}

func TestCompareFailsOnAnIncorrectRun(t *testing.T) {
	bad := fakeRun("serve_commit", 100, 99, 101)
	bad.Correct, bad.Failed = false, 3
	if out, code := compareText(t, []*result{fakeRun("serve_commit", 100, 99, 101)}, []*result{bad}); code != 1 {
		t.Fatalf("a run that failed its checks compared clean:\n%s", out)
	}
}
