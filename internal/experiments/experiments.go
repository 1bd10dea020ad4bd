// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) as structured data, plus the ablations called out
// in DESIGN.md. Registry lists them in order, each with its fixed
// arguments; cmd/lvmbench prints them and the sweep golden pins them.
// bench_test.go wraps them as testing.B benchmarks; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"
)

// OutputCSV switches every Format* function from aligned text tables to
// comma-separated values (for plotting; set by lvmbench -csv).
var OutputCSV bool

// Table renders rows of columns as an aligned text table, or as CSV when
// OutputCSV is set.
func Table(header []string, rows [][]string) string {
	if OutputCSV {
		var b strings.Builder
		writeCSVLine(&b, header)
		for _, r := range rows {
			writeCSVLine(&b, r)
		}
		return b.String()
	}
	return textTable(header, rows)
}

func writeCSVLine(b *strings.Builder, cols []string) {
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
		}
		b.WriteString(c)
	}
	b.WriteByte('\n')
}

func textTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d(v uint64) string   { return fmt.Sprintf("%d", v) }
