package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// row is one run as a result file records it.
type row struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     int              `json:"trace"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultFile is what `go run ./bench` writes: the host once, then a row
// per run.
type resultFile struct {
	Host host  `json:"host"`
	Rows []row `json:"rows"`
}

// write stores the file with one row per line, so a committed baseline
// diffs row by row.
func (f resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	hostJSON, err := json.Marshal(f.Host)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"host\": %s,\n \"rows\": [\n", hostJSON)
	for i, r := range f.Rows {
		line, err := json.Marshal(r) // encoding/json sorts the metric names
		if err != nil {
			return err
		}
		fmt.Fprintf(&buf, "  %s%s\n", line, comma(i, len(f.Rows)))
	}
	buf.WriteString(" ]}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// series collects one metric's values over a file's runs of a workload.
func (f resultFile) series(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Rows {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// Verdicts of comparing a metric's runs in b against its runs in a.
const (
	verdictOK         = "ok"         // not worse than a by more than the bound
	verdictBetter     = "better"     // better than a by more than the bound
	verdictRegression = "REGRESSION" // worse than a by more than the bound
	verdictUnresolved = "unresolved" // the run-to-run spread exceeds the bound
)

// judge compares b's runs of an end-to-end metric with a's. worse is how
// much b's median is worse than a's, as a share of a's median (negative
// when better). Where either side's spread is wider than the bound the
// medians cannot resolve a change of that size, so the verdict is
// unresolved — unless every run of b reads better than every run of a.
func judge(d metricDef, a, b []float64) (worse, spreadAB float64, verdict string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	allBetter := slices.Min(b) > slices.Max(a)
	if d.Better == "lower" {
		allBetter = slices.Max(b) < slices.Min(a)
	} else {
		worse = -worse
	}
	spreadAB = max(spread(a), spread(b))
	switch {
	case spreadAB > d.Bound && !allBetter:
		verdict = verdictUnresolved
	case worse > d.Bound:
		verdict = verdictRegression
	case worse < -d.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictOK
	}
	return worse, spreadAB, verdict
}

// compareFiles prints, per workload and metric, both files' medians and
// the ratio b/a with its base; end-to-end metrics also get their change
// against the bound and a verdict. It reports whether any metric
// regressed. Files measured on different hosts are refused.
func compareFiles(pathA, pathB string, out io.Writer) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Host != b.Host {
		return false, fmt.Errorf("refusing to compare rows of different hosts: %s has %+v, %s has %+v", pathA, a.Host, pathB, b.Host)
	}
	fmt.Fprintf(out, "a = %s, b = %s; host %+v\n", pathA, pathB, a.Host)
	for _, w := range workloads {
		for _, d := range endToEnd {
			xa, xb := a.series(w.Name, d.Name), b.series(w.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, sp, verdict := judge(d, xa, xb)
			regressed = regressed || verdict == verdictRegression
			fmt.Fprintf(out, "%-18s %-24s a %.6g %s (n=%d)  b %.6g %s (n=%d)  b/a %.3fx of a's %.6g  worse by %+.1f%% (bound %.0f%%, spread %.1f%%)  %s\n",
				w.Name, d.Name, median(xa), d.Unit, len(xa), median(xb), d.Unit, len(xb),
				median(xb)/median(xa), median(xa), 100*worse, 100*d.Bound, 100*sp, verdict)
		}
		for _, d := range perLayer {
			xa, xb := a.series(w.Name, d.Name), b.series(w.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(out, "%-18s %-24s a %.6g %s  b %.6g %s", w.Name, d.Name, median(xa), d.Unit, median(xb), d.Unit)
			if ma := median(xa); ma != 0 {
				fmt.Fprintf(out, "  b/a %.3fx of a's %.6g", median(xb)/ma, ma)
			}
			fmt.Fprintln(out)
		}
	}
	return regressed, nil
}
