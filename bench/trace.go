package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// spanName names the layer call a span times. Spans are recorded only
// here, in the benchmark, around calls into each package's public
// functions; nothing inside the program is instrumented.
type spanName uint8

const (
	spanOp spanName = iota // one op's calls into the system, the root
	spanEngineRoute
	spanFabricSend
	spanClassifyMapping
	spanMcastRound
	spanAllToAll
	spanBroadcast
	spanWait
	spanCoreSetup
	spanPsetupSetup
	spanSelfRoute
	spanRouteRound
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op",
	"engine.Engine.Route",
	"fabric.Fabric.Send",
	"perm.ClassifyMapping",
	"fabric.Fabric.RouteMulticastRound",
	"collective.Service.AllToAll",
	"collective.Service.Broadcast",
	"collective.Handle.Wait",
	"core.Network.Setup",
	"psetup.Router.Setup",
	"core.Network.SelfRoute",
	"fabric.Fabric.RouteRound",
}

// span is one timed call. Times are nanoseconds since the pass began;
// parent indexes the enclosing span in the same tracer, -1 for a root.
type span struct {
	op         int32
	name       spanName
	parent     int32
	start, end int64
}

// tracer keeps one goroutine's spans in memory until the pass ends.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

func (t *tracer) add(op int32, name spanName, parent int32, start, end int64) int32 {
	t.spans = append(t.spans, span{op: op, name: name, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// durations returns the lengths of every span called name, in µs.
func durations(trs []*tracer, name spanName) []float64 {
	var out []float64
	for _, t := range trs {
		for _, s := range t.spans {
			if s.name == name {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	return out
}

// unexplained is the share of root op time that no child span covers:
// the sum over ops of the op's duration minus the union of its
// children's intervals, over the sum of op durations.
func unexplained(trs []*tracer) float64 {
	var total, uncovered int64
	for _, t := range trs {
		kids := map[int32][][2]int64{}
		for _, s := range t.spans {
			if s.parent >= 0 {
				kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
			}
		}
		for i, s := range t.spans {
			if s.name != spanOp {
				continue
			}
			iv := kids[int32(i)]
			sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
			covered, reach := int64(0), s.start
			for _, c := range iv {
				lo, hi := max(c[0], reach), min(c[1], s.end)
				if hi > lo {
					covered += hi - lo
					reach = hi
				}
			}
			total += s.end - s.start
			uncovered += s.end - s.start - covered
		}
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

// writeTrace writes every span as one JSON line: the goroutine (g) that
// recorded it, its op, name, parent index within that goroutine, and
// start/end in ns since the pass began.
func writeTrace(path, workload string, seed int64, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed}); err != nil {
		f.Close()
		return err
	}
	type line struct {
		G      int    `json:"g"`
		Op     int32  `json:"op"`
		Name   string `json:"name"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for g, t := range trs {
		for _, s := range t.spans {
			if err := enc.Encode(line{g, s.op, spanNames[s.name], s.parent, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
