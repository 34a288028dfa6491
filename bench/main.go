// Command bench is the repository's seeded end-to-end benchmark. It
// builds cmd/benesd once, starts one benesd per workload on loopback,
// drives it over HTTP in a closed loop from two connections, checks
// every reply, and prints each metric by name with its unit. With
// -trace 1 it then serves the same seeded inputs in this process,
// untraced and traced, and prints the per-layer split instead.
//
// From the repository root:
//
//	bash bench/run.sh --workload route-warm --seed 1 --seconds 15 --trace 0
//	cd bench && go run . -seed 1              # every workload
//
// The last line of standard output is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{name:{"value","unit"}}}.
// Any wrong answer exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	work       string // server binary, logs and span files
	benesd     string // prebuilt server; empty builds cmd/benesd
	workload   string // one name, or "all"
	seed       int64
	seconds    float64
	trace      bool
	traceOut   string
	warmup     time.Duration
	starts     int     // server starts per run; setup_s is their median
	inprocFrac float64 // share of each workload's in-process op count to run
}

func main() {
	cfg := config{work: ".bench_build", warmup: 3 * time.Second, starts: 11, inprocFrac: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the timed window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced in-process pass and reports per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of the traced pass (default <work>/trace-<workload>.jsonl)")
	compare := flag.String("compare", "", "instead of measuring, report on the paired runs compare.sh wrote into this directory")
	flag.Parse()
	if *compare != "" {
		os.Exit(runCompare(*compare))
	}
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(min(conns, runtime.NumCPU()))
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func runCompare(dir string) int {
	root, err := findRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	runs, err := readRuns(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !compareReport(spec, runs, os.Stdout) {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// run executes the configured workloads, printing each one's metrics
// and result line. It reports false when any answer was wrong.
func run(cfg config, out io.Writer) (bool, error) {
	var todo []*workload
	if cfg.workload == "all" {
		todo = workloads
	} else if w := workloadByName(cfg.workload); w != nil {
		todo = []*workload{w}
	} else {
		return false, fmt.Errorf("unknown workload %q (want all, %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return false, err
	}
	if cfg.benesd == "" {
		root, err := findRoot(".")
		if err != nil {
			return false, err
		}
		work, err := filepath.Abs(cfg.work)
		if err != nil {
			return false, err
		}
		if cfg.benesd, err = buildBenesd(root, work); err != nil {
			return false, err
		}
	}
	allOK := true
	for _, w := range todo {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := res.print(out, w.name, cfg.trace); err != nil {
			return false, err
		}
		allOK = allOK && res.correct
	}
	return allOK, nil
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
	// e2e marks the end-to-end metrics, the result line of an untraced
	// run; the rest form the result line of a traced one.
	e2e bool
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	errs      []error
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *result) addE2E(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, e2e: true})
}

func (r *result) fail(err error) {
	r.correct = false
	r.failed++
	r.errs = append(r.errs, err)
}

// print writes one "workload metric value unit" line per metric, the
// failures, and last the JSON result line.
func (r *result) print(out io.Writer, workload string, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-14s %-32s %14.6g %s\n", workload, m.name, m.value, m.unit)
		if m.e2e != traced {
			line.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	for _, err := range r.errs {
		fmt.Fprintf(out, "%-14s FAIL %v\n", workload, err)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// runWorkload measures one workload end to end, and with cfg.trace its
// per-layer split.
func runWorkload(w *workload, cfg config) (*result, error) {
	set := newShared(w, cfg.seed)
	setup := setupOps(w, set, cfg.seed)
	logPath := filepath.Join(cfg.work, "benesd-"+w.name+".log")
	res := &result{correct: true}

	// setup_s: exec of the prebuilt server until /readyz answers and the
	// workload's setup ops come back correct, median of several starts.
	var (
		srv    *server
		setups []float64
	)
	for i := 0; i < cfg.starts; i++ {
		t0 := time.Now()
		s, err := startServer(cfg.benesd, w.flags(), logPath)
		if err != nil {
			return nil, err
		}
		if err := s.waitReady(30 * time.Second); err != nil {
			s.kill()
			return nil, err
		}
		c := newClient(s.base)
		for _, o := range setup {
			if err := c.do(o); err != nil {
				c.close()
				s.kill()
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		c.close()
		setups = append(setups, time.Since(t0).Seconds())
		if i == cfg.starts-1 {
			srv = s
		} else if err := s.stop(); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	streams := make([]*stream, conns)
	for i := range streams {
		streams[i] = newStream(w, set, cfg.seed, i)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	warmEnd := time.Now().Add(cfg.warmup)
	end := warmEnd.Add(window)
	done := make(chan *loadResult, 1)
	go func() { done <- closedLoop(srv.base, streams, warmEnd, end) }()
	pid := srv.cmd.Process.Pid
	time.Sleep(time.Until(warmEnd))
	srvCPU0, err1 := cpuSeconds(fmt.Sprint(pid))
	cliCPU0, err2 := cpuSeconds("self")
	time.Sleep(time.Until(end))
	srvCPU1, err3 := cpuSeconds(fmt.Sprint(pid))
	cliCPU1, err4 := cpuSeconds("self")
	rss, err5 := peakRSSMB(pid)
	lr := <-done
	for _, err := range []error{err1, err2, err3, err4, err5} {
		if err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed = lr.attempted, lr.failed+lr.warmFail
	if res.failed > 0 {
		res.correct = false
		res.errs = append(res.errs, fmt.Errorf("%d of %d ops failed (%d in warm-up); first: %w", res.failed, lr.attempted, lr.warmFail, lr.firstErr))
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("no op completed inside the %v window", window)
	}

	// End-of-run books: the fabric drains with every accepted packet
	// delivered, and the journal chain verifies.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if books, err := srv.drain(ctx); err != nil {
		res.fail(err)
	} else if err := checkBooks(books); err != nil {
		res.fail(err)
	}
	if w.journal {
		var v journalVerdict
		if err := srv.getJSON("/debug/journal/verify", &v); err != nil {
			res.fail(err)
		} else if err := checkJournal(v); err != nil {
			res.fail(err)
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		res.fail(err)
	}

	secs := window.Seconds()
	lat := make([]float64, len(lr.lat))
	for i, d := range lr.lat {
		lat[i] = float64(d) / 1e6
	}
	latMean := mean(lat)
	res.addE2E("setup_s", median(setups), "s")
	res.addE2E("peak_rss_mb", rss, "MB")
	// What a client sees of throughput and latency drifts with the shared
	// host's speed by more than any bound allows between sets of runs, so
	// these are reported with the per-layer metrics (see README.md).
	res.add("ops_per_s", float64(len(lr.lat))/secs, "1/s")
	res.add("values_per_s", float64(lr.values)/secs, "1/s")
	res.add("lat_p50_ms", percentile(lat, 0.50), "ms")
	res.add("lat_p99_ms", percentile(lat, 0.99), "ms")
	res.add("client.lat_p999_ms", percentile(lat, 0.999), "ms")
	res.add("client.samples", float64(len(lat)), "count")
	res.add("client.fail_frac", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	res.add("client.cpu_util", (cliCPU1-cliCPU0)/secs, "cores")
	res.add("benesd.cpu_util", (srvCPU1-srvCPU0)/secs, "cores")
	res.add("benesd.cpu_us_per_op", (srvCPU1-srvCPU0)*1e6/float64(max(1, len(lat))), "us")
	if !cfg.trace {
		return res, nil
	}
	if err := traceWorkload(w, cfg, set, setup, latMean*1e3, res); err != nil {
		return nil, err
	}
	return res, nil
}

// traceWorkload runs the in-process passes over the workload's seeded
// inputs and adds the per-layer metrics to res.
func traceWorkload(w *workload, cfg config, set *shared, setup []*op, e2eMeanUs float64, res *result) error {
	inputs := make([][]*op, conns)
	perConn := max(1, int(float64(w.inprocOps)*cfg.inprocFrac)/conns)
	for i := range inputs {
		st := newStream(w, set, cfg.seed, i)
		for k := 0; k < perConn; k++ {
			inputs[i] = append(inputs[i], st.next())
		}
	}
	// Route ops drawn past the pass inputs, for the allocation count:
	// hits stay hits and fresh routes stay never-seen.
	var extra []*op
	if hasKind(inputs, kindRoute) {
		st := newStream(w, set, cfg.seed, conns+1)
		for len(extra) < 256 {
			if o := st.next(); o.kind == kindRoute {
				extra = append(extra, o)
			}
		}
	}

	// Passes run untraced, traced, untraced again (with a journal-off
	// pass after each untraced one when the workload journals), so the
	// overhead ratios compare the traced and journal-off passes against
	// untraced passes on both sides of them.
	var plains, offs []*pass
	var traced *pass
	for _, step := range []string{"plain", "off", "traced", "plain", "off"} {
		if step == "off" && !w.journal {
			continue
		}
		var p *pass
		var err error
		switch step {
		case "plain":
			p, err = runPass(w, setup, extra, inputs, w.journal, false)
			plains = append(plains, p)
		case "off":
			p, err = runPass(w, setup, extra, inputs, false, false)
			offs = append(offs, p)
		case "traced":
			traced, err = runPass(w, setup, extra, inputs, w.journal, true)
		}
		if err != nil {
			return err
		}
		debug.FreeOSMemory() // the next pass allocates its own rings and plans
	}
	plain := plains[0]
	plainWall := meanWall(plains)
	journalOverhead := 0.0
	if w.journal {
		journalOverhead = plainWall/meanWall(offs) - 1
	}
	if w.name == "route-warm" && plain.eng.Hits != plain.eng.Requests {
		res.fail(fmt.Errorf("engine hit ratio %d/%d, want 1", plain.eng.Hits, plain.eng.Requests))
	}
	if w.name == "route-cold" && plain.eng.Hits != 0 {
		res.fail(fmt.Errorf("engine hit ratio %d/%d, want 0", plain.eng.Hits, plain.eng.Requests))
	}

	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(cfg.work, "trace-"+w.name+".jsonl")
	}
	if err := writeTrace(path, w.name, cfg.seed, traced.tracers); err != nil {
		return err
	}

	opUs := mean(plain.opNs) / 1e3
	routeUs := durations(traced.tracers, spanEngineRoute)
	e, f, c := plain.eng, plain.fab, plain.col
	res.add("inproc.op_us_mean", opUs, "us")
	res.add("benesd.residual_us", e2eMeanUs-opUs, "us")
	res.add("engine.route_us_mean", mean(routeUs), "us")
	res.add("engine.route_us_p99", percentile(routeUs, 0.99), "us")
	res.add("engine.hit_ratio", ratio(float64(e.Hits), float64(e.Hits+e.Misses)), "ratio")
	res.add("engine.fallback_ratio", ratio(float64(e.Fallbacks), float64(e.Requests)), "ratio")
	res.add("engine.evictions_per_op", ratio(float64(e.Evictions), float64(plain.routeOps)), "count")
	res.add("engine.allocs_per_op", traced.engineAllocs, "count")
	res.add("core.setup_us_mean", mean(durations(traced.tracers, spanCoreSetup)), "us")
	res.add("psetup.setup_us_mean", mean(durations(traced.tracers, spanPsetupSetup)), "us")
	res.add("core.selfroute_us_mean", mean(durations(traced.tracers, spanSelfRoute)), "us")
	res.add("fabric.send_us_mean", mean(durations(traced.tracers, spanFabricSend)), "us")
	res.add("fabric.deliver_us_p50", percentile(traced.deliver, 0.50), "us")
	res.add("fabric.deliver_us_p99", percentile(traced.deliver, 0.99), "us")
	res.add("fabric.pkts_per_frame", ratio(float64(f.Delivered), float64(f.Frames)), "count")
	res.add("fabric.frame_fill", ratio(float64(f.Delivered), float64(f.Frames)*float64(int(1)<<uint(w.logN))), "ratio")
	res.add("fabric.reject_frac", ratio(float64(f.Rejected), float64(f.Accepted+f.Rejected)), "ratio")
	drainMs := 0.0
	if f.Accepted > 0 {
		drainMs = plain.drain.Seconds() * 1e3
	}
	res.add("fabric.drain_ms", drainMs, "ms")
	res.add("fabric.round_us_mean", mean(durations(traced.tracers, spanRouteRound)), "us")
	res.add("fabric.mcast_round_us_mean", mean(durations(traced.tracers, spanMcastRound)), "us")
	res.add("collective.submit_us_mean", mean(append(durations(traced.tracers, spanAllToAll), durations(traced.tracers, spanBroadcast)...)), "us")
	res.add("collective.wait_us_mean", mean(durations(traced.tracers, spanWait)), "us")
	res.add("collective.self_route_ratio", ratio(float64(c.SelfRouted), float64(c.Rounds)), "ratio")
	res.add("collective.round_cache_hit_ratio", ratio(float64(c.RoundCacheHits), float64(c.Rounds)), "ratio")
	res.add("journal.records_per_op", ratio(float64(plain.jrnRecs), float64(plain.ops)), "count")
	res.add("journal.bytes_per_op", ratio(float64(plain.jrnBytes), float64(plain.ops)), "B")
	res.add("journal.dropped", float64(plain.jrnDrops), "count")
	res.add("journal.overhead_frac", journalOverhead, "ratio")
	res.add("runtime.gc_cpu_frac", plain.gcFrac, "ratio")
	res.add("runtime.allocs_per_op", ratio(float64(plain.mallocs), float64(plain.ops)), "count")
	res.add("budget.unexplained_frac", unexplained(traced.tracers), "ratio")
	res.add("trace.overhead_frac", traced.wall.Seconds()/plainWall-1, "ratio")
	return nil
}

func meanWall(ps []*pass) float64 {
	s := 0.0
	for _, p := range ps {
		s += p.wall.Seconds()
	}
	return s / float64(len(ps))
}
