//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// resultsFile is the -out payload: every run of one invocation.
type resultsFile struct {
	Runs []*result `json:"runs"`
}

// writeResults writes the runs of one invocation as the JSON file
// -compare reads.
func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultsFile{Runs: results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readResults loads a -out file and groups its metric values by
// workload and metric name.
func readResults(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if by[r.Workload] == nil {
			by[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			by[r.Workload][name] = append(by[r.Workload][name], m.Value)
		}
	}
	return by, nil
}

// quartiles returns the three cut points of the values the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the driver computes spreads with. Fewer than
// two values have no spread: all three are the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict judges one metric on one workload: how much worse the change
// is than the base, as a share of the base median, against the
// metric's bound; "unresolved" when either side's own interquartile
// spread is wider than the bound, so that no difference inside it can
// be called.
func verdict(d metricDef, base, change []float64) (worse, spread float64, word string) {
	b1, b2, b3 := quartiles(base)
	c1, c2, c3 := quartiles(change)
	if b2 == 0 {
		return 0, 0, "-"
	}
	worse = (c2 - b2) / b2
	if d.higher {
		worse = -worse
	}
	spread = max(b3-b1, c3-c1) / b2
	switch {
	case d.bound == 0:
		word = "-"
	case spread > d.bound:
		word = "unresolved"
	case worse > d.bound:
		word = "regressed"
	default:
		word = "ok"
	}
	return worse, spread, word
}

// compareFiles prints, for every workload and metric the two -out
// files share, each side's median and quartiles, the relative
// difference, and ok / regressed / unresolved against the metric's
// bound. It is the tool behind the two-sets acceptance check (two runs
// of the same code must show no regressed and no unresolved metric) and
// behind later parent-versus-change runs. The exit status is 1 when any
// bounded metric is regressed or unresolved.
func compareFiles(basePath, changePath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] n\tchange median [q1, q3] n\tworse by\tspread\tbound\tverdict")
	bad := 0
	for _, wl := range workloadNames {
		for _, d := range metricDefs {
			bv, cv := base[wl][d.name], change[wl][d.name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(bv)
			c1, c2, c3 := quartiles(cv)
			worse, spread, word := verdict(d, bv, cv)
			if word == "regressed" || word == "unresolved" {
				bad++
			}
			bound := "-"
			if d.bound > 0 {
				bound = fmt.Sprintf("%.1f%%", d.bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] %d\t%.5g [%.5g, %.5g] %d\t%+.1f%%\t%.1f%%\t%s\t%s\n",
				wl, d.name, d.unit, b2, b1, b3, len(bv), c2, c1, c3, len(cv), worse*100, spread*100, bound, word)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d bounded metric(s) regressed or unresolved\n", bad)
		return 1
	}
	return 0
}
