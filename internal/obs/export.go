package obs

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"unsafe"
)

// A layer declares each stored series once, as a Counter or Histogram
// field of its live metrics struct tagged with the series' name and
// help:
//
//	Requests obs.Counter `metric:"benes_engine_requests_total" help:"Vectors accepted by Route."`
//
// A histogram fed by ObserveValue is tagged `metric:"name,size"` for
// unitless le bounds, and an untagged struct field groups more fields.
// Export registers the fields and Fill copies them into a snapshot.
// Both panic on any other field, on a tag that does not fit its field
// and on a snapshot without the field: metric wiring is program
// structure, not runtime input.

var counterType, histType = reflect.TypeFor[Counter](), reflect.TypeFor[Histogram]()

// liveField is one Counter or Histogram of a live metrics struct.
type liveField struct {
	path      string // Go field names from the root, dot-separated
	sf        reflect.StructField
	off, snap uintptr // byte offsets in the live struct and, for Fill, the snapshot
}

// liveFields lists the counters and histograms of struct type t in
// declaration order, groups included.
func liveFields(t reflect.Type, prefix string, base uintptr) (out []liveField) {
	for i := range t.NumField() {
		sf := t.Field(i)
		f := liveField{path: prefix + sf.Name, sf: sf, off: base + sf.Offset}
		_, tagged := sf.Tag.Lookup("metric")
		switch {
		case sf.Type == counterType || sf.Type == histType:
			out = append(out, f)
		case sf.Type.Kind() == reflect.Struct && !tagged:
			out = append(out, liveFields(sf.Type, f.path+".", f.off)...)
		default:
			panic(fmt.Sprintf("obs: field %s is a %s, not a Counter, a Histogram or a group of them", f.path, sf.Type))
		}
	}
	return out
}

// structPointer returns the address and type of the struct x points to.
func structPointer(x any) (unsafe.Pointer, reflect.Type) {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Type().Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: %T is not a non-nil pointer to a struct", x))
	}
	return v.UnsafePointer(), v.Type().Elem()
}

// Export registers every series of the live metrics struct live points
// to under its field's tag, with labels. The registry reads the fields
// themselves at scrape time, so the hot path pays nothing for it.
func (r *Registry) Export(live any, labels Labels) {
	base, t := structPointer(live)
	for _, f := range liveFields(t, "", 0) {
		tag, tagged := f.sf.Tag.Lookup("metric")
		name, opt, _ := strings.Cut(tag, ",")
		p := unsafe.Add(base, f.off)
		switch {
		case !tagged:
			panic(fmt.Sprintf("obs: field %s has no metric tag", f.path))
		case f.sf.Type == counterType && opt == "":
			r.CounterFunc(name, f.sf.Tag.Get("help"), labels, (*Counter)(p).Value)
		case f.sf.Type == histType && (opt == "" || opt == "size"):
			r.register(name, f.sf.Tag.Get("help"), "histogram",
				&series{labels: renderLabels(labels), hist: (*Histogram)(p), size: opt == "size"})
		default:
			panic(fmt.Sprintf("obs: field %s: metric tag %q does not fit a %s", f.path, tag, f.sf.Type))
		}
	}
}

// fillPlans caches each (snapshot, live) type pair's fillPlan.
var fillPlans sync.Map

// Fill copies every counter and histogram of the live metrics struct
// live points to into the field of the same Go path in the snapshot
// struct snap points to: a Counter's value into an int64, a
// Histogram's snapshot into a HistogramSnapshot. Each field is read
// atomically and independently. The pairing is worked out once per
// type pair.
func Fill(snap, live any) {
	sp, st := structPointer(snap)
	lp, lt := structPointer(live)
	key := [2]reflect.Type{st, lt}
	fields, ok := fillPlans.Load(key)
	if !ok {
		fields, _ = fillPlans.LoadOrStore(key, fillPlan(st, lt))
	}
	for _, f := range fields.([]liveField) {
		if f.sf.Type == histType {
			*(*HistogramSnapshot)(unsafe.Add(sp, f.snap)) = (*Histogram)(unsafe.Add(lp, f.off)).Snapshot()
		} else {
			*(*int64)(unsafe.Add(sp, f.snap)) = (*Counter)(unsafe.Add(lp, f.off)).Value()
		}
	}
}

// fillPlan finds the snapshot field at each live field's Go path.
func fillPlan(snap, live reflect.Type) []liveField {
	fields := liveFields(live, "", 0)
	for i, f := range fields {
		want := reflect.TypeFor[int64]()
		if f.sf.Type == histType {
			want = reflect.TypeFor[HistogramSnapshot]()
		}
		t := snap
		for _, name := range strings.Split(f.path, ".") {
			var sf reflect.StructField
			ok := t.Kind() == reflect.Struct
			if ok {
				sf, ok = t.FieldByName(name)
			}
			if !ok || len(sf.Index) != 1 {
				t = nil
				break
			}
			fields[i].snap, t = fields[i].snap+sf.Offset, sf.Type
		}
		if t != want {
			panic(fmt.Sprintf("obs: Fill: %s has no %s field %s for %s's %s", snap, want, f.path, live, f.sf.Type))
		}
	}
	return fields
}
