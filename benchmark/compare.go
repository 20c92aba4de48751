package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readDocuments reads every result document in a file: one run's
// output, or several runs' outputs concatenated. Other JSON values in
// the stream (the driver's summary line) are skipped.
func readDocuments(path string) ([]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	dec := json.NewDecoder(f)
	for {
		var d document
		if err := dec.Decode(&d); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(d.Workloads) > 0 {
			docs = append(docs, d)
		}
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("%s: no result document", path)
	}
	return docs, nil
}

// series collects one metric's values per workload over a set of runs.
func series(docs []document) map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, d := range docs {
		for _, w := range d.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = make(map[string][]float64)
			}
			for name, m := range w.EndToEnd {
				out[w.Name][name] = append(out[w.Name][name], m.Value)
			}
		}
	}
	return out
}

func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// verdict judges B against A on one metric. worse: B's median is worse
// than A's by more than the bound. same: it is not. When the runs of
// either side spread wider than the bound, neither can be said from
// medians alone: then it is worse only if every run of B reads worse
// than every run of A, same only if every run of B reads at least as
// well as every run of A, and unresolved otherwise.
func verdict(d metricDef, a, b []float64) string {
	sign := 1.0 // turns "worse" into "greater"
	if !d.lower {
		sign = -1
	}
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	worse := sign*(mb-ma) > d.bound*ma
	if d.exact {
		worse = sign*(mb-ma) > 0
	}
	if d.exact || (qa3-qa1 <= d.bound*ma && qb3-qb1 <= d.bound*mb) {
		if worse {
			return "worse"
		}
		return "same"
	}
	minA, maxA, minB, maxB := sign*a[0], sign*a[0], sign*b[0], sign*b[0]
	for _, v := range a {
		minA, maxA = min(minA, sign*v), max(maxA, sign*v)
	}
	for _, v := range b {
		minB, maxB = min(minB, sign*v), max(maxB, sign*v)
	}
	switch {
	case worse && minB > maxA:
		return "worse"
	case maxB <= minA:
		return "same"
	}
	return "unresolved"
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, the ratio B/A with its base, the bound and the verdict. It
// reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	docsA, err := readDocuments(pathA)
	if err != nil {
		return false, err
	}
	docsB, err := readDocuments(pathB)
	if err != nil {
		return false, err
	}
	a, b := series(docsA), series(docsB)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\tmetric\tunit\truns\tA\tB\tB/A\tbound\tverdict\t\n")
	for _, name := range workloadOrder {
		if a[name] == nil || b[name] == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := a[name][d.name], b[name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.exact {
				bound = "exact"
			}
			v := verdict(d, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.6g\t%.6g\t%.4f of %.6g\t%s\t%s\t\n",
				name, d.name, d.unit, len(va), len(vb), ma, mb, mb/ma, ma, bound, v)
		}
	}
	return worse, tw.Flush()
}
