package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// decl is the part of BENCHMARK.json the comparison needs.
type decl struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDecl(path string) (*decl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d decl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		r := new(record)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// that spreads printed here read the same as the acceptance driver's.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's values of one metric on one workload.
type side struct {
	vals        []float64
	q1, med, q3 float64
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	s.q1, s.med, s.q3 = quartiles(vals)
	return s
}

func (s side) spread() float64 { return (s.q3 - s.q1) / s.med }

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b side, lower bool) bool {
	for _, x := range a.vals {
		for _, y := range b.vals {
			if lower && y >= x || !lower && y <= x {
				return false
			}
		}
	}
	return true
}

// verdict applies one end-to-end metric's bound. worse is the share by which
// b's median is worse than a's (negative = better).
func verdict(a, b side, d metricDecl, self bool) string {
	lower := d.Better == "lower"
	worse := (b.med - a.med) / a.med
	if !lower {
		worse = -worse
	}
	spread := max(a.spread(), b.spread())
	switch {
	case self && spread > d.Bound && d.Name != "setup_s":
		// Two sets of one commit: whichever way the runs fall, a set that
		// spreads wider than the bound has not shown that they agree. setup_s
		// is held to its medians alone, as the acceptance driver holds it: a
		// run sets up five times where it serves a hundred requests.
		return "unresolved"
	case self && worse <= d.Bound && -worse <= d.Bound:
		return "agree"
	case self:
		return "DISAGREE"
	case spread > d.Bound && allBetter(a, b, lower):
		return "improved"
	case spread > d.Bound && allBetter(b, a, lower):
		return "REGRESSED"
	case spread > d.Bound:
		return "unresolved" // the runs of one side differ by more than the bound
	case worse > d.Bound:
		return "REGRESSED"
	case -worse > spread:
		return "improved"
	}
	return "ok"
}

type runKey struct {
	workload string
	seed     int64
	trace    bool
}

// compareFiles prints, per workload, one row per metric with each side's
// median and quartiles; applies every end-to-end metric's bound; and requires
// exact counts of runs with the same workload and seed to be equal. With self
// the two files are two sets of runs of one commit, which must agree in both
// directions. Records that differ in run length, dataset sizes or host are
// refused. It reports whether nothing regressed, disagreed or failed.
func compareFiles(w io.Writer, benchFile, fileA, fileB string, self bool) (bool, error) {
	d, err := readDecl(benchFile)
	if err != nil {
		return false, err
	}
	recsA, err := readRecords(fileA)
	if err != nil {
		return false, err
	}
	recsB, err := readRecords(fileB)
	if err != nil {
		return false, err
	}
	if len(recsA) == 0 || len(recsB) == 0 {
		return false, fmt.Errorf("no records to compare")
	}
	ok := true

	// Timings only compare between runs of the same length over the same
	// dataset on a like host: every record is held against the first of its
	// workload and trace mode.
	first := map[string]*record{}
	// values[workload][metric] per side.
	collect := func(recs []*record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			shape := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
			if f := first[shape]; f == nil {
				first[shape] = r
			} else if r.Seconds != f.Seconds || r.Host != f.Host || !reflect.DeepEqual(r.Sizes, f.Sizes) {
				fmt.Fprintf(w, "UNLIKE  %s seed %d: seconds %g, sizes %v, host %+v; seed %d has %g, %v, %+v\n",
					shape, r.Seed, r.Seconds, r.Sizes, r.Host, f.Seed, f.Seconds, f.Sizes, f.Host)
				ok = false
			}
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(w, "FAILED  %s seed %d: %d of %d requests failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
				ok = false
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for _, name := range sortedKeys(r.Metrics) {
				out[r.Workload][name] = append(out[r.Workload][name], r.Metrics[name].Value)
			}
		}
		return out
	}
	valsA, valsB := collect(recsA), collect(recsB)

	for _, wl := range sortedKeys(valsA) {
		if valsB[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n%-42s %-6s %36s %36s %8s  %s\n", wl, "metric", "unit",
			"a: median [q1, q3] n", "b: median [q1, q3] n", "change", "verdict")
		row := func(md metricDecl, gated bool) {
			va, vb := valsA[wl][md.Name], valsB[wl][md.Name]
			if len(va) == 0 || len(vb) == 0 {
				return
			}
			a, b := newSide(va), newSide(vb)
			v := ""
			if gated {
				v = verdict(a, b, md, self)
				if v == "REGRESSED" || v == "DISAGREE" || self && v == "unresolved" {
					ok = false
				}
				v = fmt.Sprintf("%s (bound %.0f%%, spread %.1f%%)", v, md.Bound*100, max(a.spread(), b.spread())*100)
			}
			fmt.Fprintf(w, "%-42s %-6s %36s %36s %+7.1f%%  %s\n", md.Name, md.Unit,
				fmt.Sprintf("%.5g [%.5g, %.5g] %d", a.med, a.q1, a.q3, len(va)),
				fmt.Sprintf("%.5g [%.5g, %.5g] %d", b.med, b.q1, b.q3, len(vb)),
				(b.med-a.med)/a.med*100, v)
		}
		for _, md := range d.EndToEnd {
			row(md, true)
		}
		for _, md := range d.PerLayer {
			row(md, false)
		}
	}

	// Exact counts: equal wherever both files ran the same workload and seed.
	byKey := map[runKey]*record{}
	for _, r := range recsA {
		byKey[runKey{r.Workload, r.Seed, r.Trace}] = r
	}
	for _, rb := range recsB {
		ra := byKey[runKey{rb.Workload, rb.Seed, rb.Trace}]
		if ra == nil {
			continue
		}
		for _, name := range ra.Exact {
			if x, y := ra.Metrics[name].Value, rb.Metrics[name].Value; x != y {
				fmt.Fprintf(w, "EXACT   %s seed %d: %s is %g in a, %g in b\n", rb.Workload, rb.Seed, name, x, y)
				ok = false
			}
		}
	}
	return ok, nil
}
