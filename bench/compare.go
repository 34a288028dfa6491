package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the analysis half of compare.sh: given paired runs of a
// parent (side A) and a change (side B), it prints each side's median
// and quartiles per (metric, workload), the change's win fraction, and
// the verdict of the choosing-metrics rule.

// benchSpec is the part of BENCHMARK.json the analysis reads.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// pairedRun is one benchmark run of compare.sh: its side (A parent, B
// change), pair number and workload, and what its output printed.
type pairedRun struct {
	side     string
	pair     int
	workload string
	correct  bool
	metrics  map[string]float64
}

var metricLine = regexp.MustCompile(`^\S+\s+(\S+)\s+(\S+) \S+$`)

// readRuns loads every <pair>.<side>.<workload>.out file compare.sh
// wrote into dir: each metric line of the run's output, and whether its
// last line is a correct result object.
func readRuns(dir string) ([]pairedRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	var runs []pairedRun
	for _, f := range files {
		parts := strings.SplitN(strings.TrimSuffix(filepath.Base(f), ".out"), ".", 3)
		pair, err := strconv.Atoi(parts[0])
		if len(parts) != 3 || err != nil {
			return nil, fmt.Errorf("%s: want <pair>.<side>.<workload>.out", f)
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := pairedRun{side: parts[1], pair: pair, workload: parts[2], metrics: map[string]float64{}}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		for _, l := range lines {
			if m := metricLine.FindStringSubmatch(l); m != nil {
				if v, err := strconv.ParseFloat(m[2], 64); err == nil {
					r.metrics[m[1]] = v
				}
			}
		}
		var last struct{ Correct bool }
		r.correct = json.Unmarshal([]byte(lines[len(lines)-1]), &last) == nil && last.Correct
		runs = append(runs, r)
	}
	return runs, nil
}

// verdict applies the rule to one (metric, workload): improved when the
// change wins at least nine tenths of the pairs and the medians differ
// by more than the parent's quartile spread; otherwise no worse when
// the change's median is within the bound of the parent's; unresolved
// when the parent's own spread exceeds the bound and not every change
// run beats every parent run; worse otherwise.
func verdict(m specMetric, a, b []float64) (string, float64) {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	wins, n := 0, min(len(a), len(b))
	for i := 0; i < n; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	win := ratio(float64(wins), float64(n))
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	ma, mb := median(sa), median(sb)
	q1, q3 := quartiles(sa)
	spread := ratio(q3-q1, math.Abs(ma))
	allBetter := sign*(minOf(sb, sign)-maxOf(sa, sign)) > 0
	switch {
	case win >= 0.9 && sign*(mb-ma) > q3-q1:
		return "improved", win
	case spread > m.Bound && !allBetter:
		return "unresolved", win
	case sign*(mb-ma) >= -m.Bound*math.Abs(ma):
		return "no worse", win
	}
	return "worse", win
}

// minOf returns the worst value of v in the metric's direction, maxOf
// the best.
func minOf(v []float64, sign float64) float64 {
	sort.Float64s(v)
	if sign > 0 {
		return v[0]
	}
	return v[len(v)-1]
}

func maxOf(v []float64, sign float64) float64 {
	sort.Float64s(v)
	if sign > 0 {
		return v[len(v)-1]
	}
	return v[0]
}

// compareReport prints the report over paired runs. It returns false
// when any run was incorrect or any bounded metric got worse.
func compareReport(spec benchSpec, runs []pairedRun, out io.Writer) bool {
	type key struct{ workload, metric, side string }
	byPair := map[key]map[int]float64{}
	ok := true
	for _, r := range runs {
		if !r.correct {
			fmt.Fprintf(out, "INCORRECT run: side %s pair %d workload %s\n", r.side, r.pair, r.workload)
			ok = false
		}
		for name, v := range r.metrics {
			k := key{r.workload, name, r.side}
			if byPair[k] == nil {
				byPair[k] = map[int]float64{}
			}
			byPair[k][r.pair] = v
		}
	}
	fmt.Fprintf(out, "%-14s %-28s %-34s %-34s %-5s %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "win", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			// Only pairs both sides completed, in pair order.
			pa, pb := byPair[key{w.Name, m.Name, "A"}], byPair[key{w.Name, m.Name, "B"}]
			var pairs []int
			for p := range pa {
				if _, both := pb[p]; both {
					pairs = append(pairs, p)
				}
			}
			if len(pairs) == 0 {
				continue
			}
			sort.Ints(pairs)
			a, b := make([]float64, len(pairs)), make([]float64, len(pairs))
			for i, p := range pairs {
				a[i], b[i] = pa[p], pb[p]
			}
			// Unbounded metrics can still show an improvement; they are
			// never judged worse.
			v, win := verdict(m, a, b)
			switch {
			case m.Bound > 0:
				if v == "worse" {
					ok = false
				}
				v = fmt.Sprintf("%s (bound %.0f%%)", v, 100*m.Bound)
			case v != "improved":
				v = "no bound"
			}
			fmt.Fprintf(out, "%-14s %-28s %-34s %-34s %-5.2f %s\n", w.Name, m.Name, summary(a), summary(b), win, v)
		}
	}
	return ok
}

func summary(v []float64) string {
	s := append([]float64(nil), v...)
	q1, q3 := quartiles(s)
	return fmt.Sprintf("%.5g [%.5g %.5g]", median(s), q1, q3)
}
