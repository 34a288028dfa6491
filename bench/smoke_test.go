package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	s, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload for about a second against a real
// benesd, traced, and checks that no answer is wrong and that every
// metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts benesd")
	}
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildBenesd(root, work)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := run(config{
		work: work, benesd: bin, workload: "all", seed: 3, seconds: 1, trace: true,
		warmup: 300 * time.Millisecond, starts: 1, inprocFrac: 0.05,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("a check failed:\n%s", out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, w := range spec.Workloads {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name) + `\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if !re.MatchString(out.String()) {
				t.Errorf("%s: no line for %s in %s", w.Name, m.Name, m.Unit)
			}
		}
	}
	budget := regexp.MustCompile(`(?m)^(\S+)\s+budget\.unexplained_frac\s+(\S+) ratio$`)
	for _, m := range budget.FindAllStringSubmatch(out.String(), -1) {
		if v, err := strconv.ParseFloat(m[2], 64); err != nil || v >= 0.15 {
			t.Errorf("%s: budget.unexplained_frac %s, want under 0.15", m[1], m[2])
		}
	}
	var last struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || len(last.Metrics) != len(spec.PerLayer) {
		t.Errorf("traced result line: correct %v with %d metrics, want %d per-layer metrics", last.Correct, len(last.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if v, ok := last.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("traced result line lacks %s in %s", m.Name, m.Unit)
		}
	}
}

func TestResultLineSelectsMetrics(t *testing.T) {
	r := &result{correct: true, attempted: 3}
	r.addE2E("ops_per_s", 2.5, "1/s")
	r.add("engine.hit_ratio", 1, "ratio")
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		if err := r.print(&out, "w", traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct{ Metrics map[string]any }
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		_, e2e := last.Metrics["ops_per_s"]
		_, layer := last.Metrics["engine.hit_ratio"]
		if len(last.Metrics) != 1 || e2e == traced || layer != traced {
			t.Errorf("traced %v: result line metrics %v", traced, last.Metrics)
		}
	}
}
