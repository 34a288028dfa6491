package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from RunAll's output")

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 32 {
		t.Fatalf("registry holds %d experiments, want 32", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Paper == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely registered", e.ID)
		}
	}
	for i := 1; i <= 32; i++ {
		id := "E" + itoa(i)
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestRegistryOrdered(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if idNum(all[i-1].ID) >= idNum(all[i].ID) {
			t.Fatalf("registry out of order: %s before %s", all[i-1].ID, all[i].ID)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E3"); !ok {
		t.Error("E3 not found")
	}
	if _, ok := Find("E99"); ok {
		t.Error("E99 should not exist")
	}
}

// TestRunAllProducesExpectedEvidence runs every experiment and asserts
// the key quantitative shapes appear in the output.
func TestRunAllProducesExpectedEvidence(t *testing.T) {
	out := runAllOutput()
	for _, want := range []string{
		// E1: the structural counts for n=10.
		"10  1024  19",
		// E4: the exhaustive F(2) count.
		"|F(2)| = 20 of 24",
		// E5: the paper's worked BPC example expansion.
		"D = (6,2,4,0,7,3,5,1)",
		// E10: the exhaustive F(3) cardinality.
		"11632",
		// E10: |Omega(3)| = 4096.
		"4096",
		// E12: the closure counterexample.
		"A∘B = (2,0,1,3)",
		// E15: Fig. 6 final column must exist.
		"Fig. 6",
		// E17: 7*sqrt(N)-8 at n=12 (64x64 mesh): 7*64-8 = 440.
		"440",
		// E21: FUB families.
		"lambda",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment output missing %q", want)
		}
	}
	// The only intentional failures in the whole report are E4's Fig. 5
	// misroute demo (one diagram with ok=false) and its Theorem-1
	// witness; every verification column elsewhere must read true.
	if got := strings.Count(out, "ok=false"); got != 1 {
		t.Errorf("expected exactly one intentional misroute demo, found %d", got)
	}
	// E13's generality table must show the expected pattern: the omega
	// network fails on a random BPC permutation while the self-routing
	// Benes succeeds, and only the sorter handles a uniform random one.
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "random BPC"):
			if !strings.Contains(line, "true") || !strings.Contains(line, "false") {
				t.Errorf("E13 random-BPC row unexpected: %q", line)
			}
		case strings.HasPrefix(line, "all seven route?") || strings.Contains(line, "all in F?"):
			if strings.Contains(line, "false") {
				t.Errorf("verification row failed: %q", line)
			}
		}
	}
}

// runAll holds one RunAll pass shared by the tests that read its report.
var runAll struct {
	sync.Once
	out string
}

func runAllOutput() string {
	runAll.Do(func() {
		var buf bytes.Buffer
		RunAll(&buf)
		runAll.out = buf.String()
	})
	return runAll.out
}

var (
	durationRe = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`)
	spacesRe   = regexp.MustCompile(` +`)
	dashesRe   = regexp.MustCompile(`-+`)
)

// maskReport drops what varies from run to run: measured durations, and
// the column widths and rule lengths that follow them.
func maskReport(out string) string {
	out = durationRe.ReplaceAllString(out, "<dur>")
	out = spacesRe.ReplaceAllString(out, " ")
	return dashesRe.ReplaceAllString(out, "-")
}

// TestExperimentsGolden pins every experiment's report, timings masked,
// to testdata/experiments.golden; run with -update to regenerate it.
func TestExperimentsGolden(t *testing.T) {
	got := maskReport(runAllOutput())
	golden := filepath.Join("testdata", "experiments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("report differs from %s at line %d:\n got: %q\nwant: %q\n(run with -update if the change is intended)", golden, i+1, g, w)
		}
	}
}

// TestEachExperimentNonEmpty: every experiment writes something.
func TestEachExperimentNonEmpty(t *testing.T) {
	for _, e := range All() {
		var buf bytes.Buffer
		e.Run(&buf)
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}
