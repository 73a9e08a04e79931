package main

import (
	"fmt"
	"io"
	"os"
	"sort"
)

// calibrate runs every selected workload o.runs times with seed o.seed and
// prints each metric's median, quartiles and relative spread
// (q3 − q1) / median, plus the distinct result digests (one digest means
// the runs were bit-identical).
func calibrate(o options, names []string) {
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		digests := map[string]int{}
		failed, invalid := 0, 0
		for k := 0; k < o.runs; k++ {
			co := o
			co.workload = name
			rep, err := spawn(co, io.Discard)
			if err != nil {
				fatalf("%s run %d: %v", name, k, err)
			}
			failed += rep.Failed
			if !rep.Valid {
				invalid++
			}
			digests[rep.Digest]++
			for m, v := range rep.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "# %s run %d/%d seed %d done\n", name, k+1, o.runs, o.seed)
		}
		fmt.Printf("# %s: %d runs, %d failed jobs, %d invalid runs, %d distinct digests\n",
			name, o.runs, failed, invalid, len(digests))
		if len(digests) == 1 {
			for d := range digests {
				fmt.Printf("# %s: every run's digest is %s\n", name, d)
			}
		}
		metricNames := make([]string, 0, len(values))
		for m := range values {
			metricNames = append(metricNames, m)
		}
		sort.Strings(metricNames)
		for _, m := range metricNames {
			q1, med, q3 := quartiles(values[m])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("%-15s %-34s %-6s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%6.2f%% values=%.6g\n",
				name, m, units[m], med, q1, q3, 100*spread, values[m])
		}
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the definition the benchmark's bounds are checked
// with.  It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := 0.0
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
