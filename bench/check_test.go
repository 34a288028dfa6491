package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/perm"
)

func reply(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRouteCheckRejectsCorruption(t *testing.T) {
	o := routeOp(perm.BitReversal(4), true, true)
	good := map[string]any{"data": o.inv, "kind": "self-routed", "cache_hit": true}
	if err := o.check(http.StatusOK, reply(t, good)); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	swapped := append([]int(nil), o.inv...)
	swapped[2], swapped[5] = swapped[5], swapped[2]
	bad := map[string]map[string]any{
		"swapped output":  {"data": swapped, "kind": "self-routed", "cache_hit": true},
		"short output":    {"data": o.inv[:15], "kind": "self-routed", "cache_hit": true},
		"wrong cache_hit": {"data": o.inv, "kind": "self-routed", "cache_hit": false},
		"wrong kind":      {"data": o.inv, "kind": "parallel", "cache_hit": true},
	}
	for name, r := range bad {
		if err := o.check(http.StatusOK, reply(t, r)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := o.check(http.StatusBadRequest, reply(t, good)); err == nil {
		t.Error("non-2xx status accepted")
	}
}

func TestAllToAllCheckRejectsNonTranspose(t *testing.T) {
	o := allToAllOp(3, rand.New(rand.NewSource(1)))
	if err := o.check(http.StatusOK, reply(t, map[string]any{"done": true, "result": o.want})); err != nil {
		t.Fatalf("transpose rejected: %v", err)
	}
	for name, rows := range map[string][][]int{
		"input unchanged": o.data,
		"missing row":     o.want[:7],
	} {
		if err := o.check(http.StatusOK, reply(t, map[string]any{"done": true, "result": rows})); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSendCheckRejectsDrops(t *testing.T) {
	o := sendOp(4, 8, rand.New(rand.NewSource(1)))
	if err := o.check(http.StatusOK, reply(t, map[string]int{"accepted": 8})); err != nil {
		t.Fatalf("full admission rejected: %v", err)
	}
	if err := o.check(http.StatusOK, reply(t, map[string]int{"accepted": 7, "rejected": 1})); err == nil {
		t.Error("tail drop accepted")
	}
}

func TestBooksCheck(t *testing.T) {
	if err := checkBooks(fabricBooks{Accepted: 100, Delivered: 100}); err != nil {
		t.Fatalf("balanced books rejected: %v", err)
	}
	for name, b := range map[string]fabricBooks{
		"delivered short": {Accepted: 100, Delivered: 99},
		"lost packet":     {Accepted: 100, Delivered: 99, Lost: 1},
		"refused packet":  {Accepted: 100, Delivered: 100, Rejected: 1},
	} {
		if err := checkBooks(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMulticastCheckRejectsMismatch(t *testing.T) {
	o := multicastOp(8, rand.New(rand.NewSource(1)))
	c := o.mcls
	good := map[string]any{"class": c.Class.String(), "sources": c.Sources, "assigned": c.Assigned, "max_fanout": c.MaxFanout, "plane": 1}
	if err := o.check(http.StatusOK, reply(t, good)); err != nil {
		t.Fatalf("matching round rejected: %v", err)
	}
	for field, v := range map[string]any{"class": "permutation", "assigned": c.Assigned - 1, "sources": c.Sources + 1} {
		bad := map[string]any{}
		for k, x := range good {
			bad[k] = x
		}
		bad[field] = v
		if err := o.check(http.StatusOK, reply(t, bad)); err == nil {
			t.Errorf("wrong %s accepted", field)
		}
	}
}

func TestJournalCheck(t *testing.T) {
	var ok, broken journalVerdict
	if err := json.Unmarshal([]byte(`{"ok":true,"records":42,"head":"ab"}`), &ok); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"ok":false,"records":0,"first_bad_seq":7,"detail":"chain digest mismatch at seq 7"}`), &broken); err != nil {
		t.Fatal(err)
	}
	if err := checkJournal(ok); err != nil {
		t.Fatalf("intact chain rejected: %v", err)
	}
	if err := checkJournal(broken); err == nil {
		t.Error("ok:false accepted")
	}
}

func TestMatchIntsTolerance(t *testing.T) {
	want := []int{3, -1, 20}
	for _, raw := range []string{"[3,-1,20]", " [ 3 , -1,\n20 ] "} {
		if err := matchInts([]byte(raw), want); err != nil {
			t.Errorf("%q: %v", raw, err)
		}
	}
	for _, raw := range []string{"[3,-1]", "[3,-1,20,4]", "[3,-1,21]", "[3,-1,20", "[3,x,20]", "[3,-1,20]]"} {
		if err := matchInts([]byte(raw), want); err == nil {
			t.Errorf("%q accepted", raw)
		}
	}
}
