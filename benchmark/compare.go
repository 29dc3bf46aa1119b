package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// The compare gate: go run ./benchmark -compare A.json B.json. A is the
// base (the parent commit), B the change. Each file holds one or more runs
// of each workload (-runs K: K seeds). A run's inputs, and so its work,
// follow its seed, so runs are compared in pairs of the same workload and
// seed: the judged quantity is the median over the pairs of B's reading
// relative to A's, which the difference between seeds does not enter.

// pairing is one metric on one workload over the paired runs of two files.
type pairing struct {
	a, b   []float64 // the two sides' readings, pair by pair
	ratios []float64 // b/a, for the pairs whose base is not 0
}

func pair(runsA, runsB []Run, metric string) pairing {
	var p pairing
	bySeed := map[uint64][]Run{}
	for _, run := range runsB {
		bySeed[run.Seed] = append(bySeed[run.Seed], run)
	}
	for _, ra := range runsA {
		rest := bySeed[ra.Seed]
		if len(rest) == 0 {
			continue
		}
		rb := rest[0]
		bySeed[ra.Seed] = rest[1:]
		va, okA := ra.Metrics[metric]
		vb, okB := rb.Metrics[metric]
		if !okA || !okB {
			continue
		}
		p.a, p.b = append(p.a, va.Value), append(p.b, vb.Value)
		if math.Abs(va.Value) > 0 {
			p.ratios = append(p.ratios, vb.Value/va.Value)
		}
	}
	return p
}

// verdict applies a metric's direction and bound to the paired ratios b/a.
//
//	ok          the median pair is no worse, or worse by no more than the
//	            bound
//	unresolved  the median pair is worse, but the pairs spread wider than the
//	            bound (quartile distance over median) and at least a quarter
//	            of them are no worse, so neither "regressed" nor "unchanged"
//	            can be claimed: take more runs
//	regressed   the median pair is worse by more than the bound
func verdict(m metricDef, ratios []float64) (worse float64, v string) {
	if len(ratios) == 0 {
		return 0, "ok" // nothing to be worse than: the metric read 0 on the base
	}
	s := sortedCopy(ratios)
	q1, med, q3 := quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
	// worse and best are the relative worsening of the median pair and of
	// the pair at the better quartile.
	worse, best := med-1, q1-1
	if m.Better == "higher" {
		worse, best = 1-med, 1-q3
	}
	switch {
	case worse <= 0:
		return worse, "ok"
	case (q3-q1)/med > m.Bound && best <= 0:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

func runsOf(f File, workload string) []Run {
	var out []Run
	for _, run := range f.Runs {
		if run.Workload == workload {
			out = append(out, run)
		}
	}
	return out
}

func failRatio(runs []Run) float64 {
	var attempted, failed int
	for _, run := range runs {
		attempted += run.Attempted
		failed += run.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints one row per workload × end-to-end metric with both
// sides' medians and quartiles, the median ratio with its base and the
// verdict, then the per-layer rows for information. It reports whether
// anything regressed: an end-to-end metric beyond its bound, or a higher
// fail_ratio.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readFile(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base   A = %s (%s, %s, GOMAXPROCS %d, commit %.12s)\n", pathA, a.Env.CPUModel, a.Env.GoVersion, a.Env.GOMAXPROCS, a.Env.GitCommit)
	fmt.Fprintf(w, "change B = %s (%s, %s, GOMAXPROCS %d, commit %.12s)\n\n", pathB, b.Env.CPUModel, b.Env.GoVersion, b.Env.GOMAXPROCS, b.Env.GitCommit)
	const header = "workload\tmetric\tunit\tpairs\tA median [q1, q3]\tB median [q1, q3]\tB/A median [q1, q3]\tbound\tverdict"
	row := func(tw io.Writer, workload string, m metricDef, p pairing, v string) {
		side := func(xs []float64) string {
			s := sortedCopy(xs)
			return fmt.Sprintf("%.5g [%.5g, %.5g]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
		}
		ratio := "-"
		if len(p.ratios) > 0 {
			s := sortedCopy(p.ratios)
			ratio = fmt.Sprintf("%.3f [%.3f, %.3f]", quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75))
		}
		bound := "-"
		switch {
		case m.Bound > 0 && m.Better == "higher":
			bound = fmt.Sprintf("at least -%.0f%%", 100*m.Bound)
		case m.Bound > 0:
			bound = fmt.Sprintf("at most +%.0f%%", 100*m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t%s\n", workload, m.Name, m.Unit, len(p.a), side(p.a), side(p.b), ratio, bound, v)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, wl := range workloads {
		ra, rb := runsOf(a, wl.name), runsOf(b, wl.name)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		gated := 0
		for _, m := range metricDefs {
			if m.Kind != endToEnd || !m.on(wl.name) {
				continue
			}
			p := pair(ra, rb, m.Name)
			if len(p.a) == 0 {
				continue
			}
			gated++
			_, v := verdict(m, p.ratios)
			regressed = regressed || v == "regressed"
			row(tw, wl.name, m, p, v)
		}
		if gated == 0 {
			return regressed, fmt.Errorf("workload %s: the two files share no seed", wl.name)
		}
		fa, fb := failRatio(ra), failRatio(rb)
		v := "ok"
		if fb > fa {
			v, regressed = "regressed", true
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t\t%g\t%g\t\tnot higher\t%s\n", wl.name, fa, fb, v)
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}

	fmt.Fprintln(w, "\nper-layer metrics (informational, never gated):")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, wl := range workloads {
		ra, rb := runsOf(a, wl.name), runsOf(b, wl.name)
		for _, m := range metricDefs {
			if m.Kind != perLayer || !m.on(wl.name) || m.Name == "fail_ratio" {
				continue
			}
			if p := pair(ra, rb, m.Name); len(p.a) > 0 {
				row(tw, wl.name, m, p, "")
			}
		}
	}
	return regressed, tw.Flush()
}
