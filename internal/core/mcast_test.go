package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// Every four-state forward table must agree with the backward FeedLine
// walk: the value delivered on output y is the value that entered on
// input FeedLine(y).
func TestMcastStateApplyFeedLineConsistent(t *testing.T) {
	for _, st := range []McastState{McStraight, McCross, McBcastUpper, McBcastLower} {
		in := [2]int{10, 11}
		var out [2]int
		out[0], out[1] = st.Apply(in[0], in[1])
		for y := 0; y < 2; y++ {
			if got := in[st.FeedLine(y)&1]; got != out[y] {
				t.Fatalf("%v: output %d carries %d but FeedLine says input %d (%d)",
					st, y, out[y], st.FeedLine(y), got)
			}
		}
	}
}

// With a binary setting embedded via States.Mcast, McastRoute must
// deliver exactly the permutation ExternalRoute realizes.
func TestMcastRouteMatchesBinaryRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 5; n++ {
		net := New(n)
		for trial := 0; trial < 20; trial++ {
			d := rng.Perm(net.N())
			st := net.Setup(d)
			res := net.ExternalRoute(d, st)
			if !res.OK() {
				t.Fatalf("n=%d: external route failed for %v", n, d)
			}
			tags := make([]int, net.N())
			for i := range tags {
				tags[i] = i
			}
			delivered, trace := net.McastRoute(tags, st.Mcast())
			for i := 0; i < net.N(); i++ {
				if delivered[d[i]] != i {
					t.Fatalf("n=%d d=%v: output %d got %d, want %d", n, d, d[i], delivered[d[i]], i)
				}
			}
			if len(trace) != net.Stages()+1 {
				t.Fatalf("trace has %d rows, want %d", len(trace), net.Stages()+1)
			}
		}
	}
}

// A single switch (n=1) in each broadcast state must replicate the
// chosen input, and MulticastRoute must flag the displaced source.
func TestMulticastRouteBroadcastStates(t *testing.T) {
	net := New(1)
	st := net.NewMcastStates()

	st[0][0] = McBcastUpper
	res := net.MulticastRoute([]int{0, 0}, st)
	if !res.OK() || !reflect.DeepEqual(res.Delivered, []int{0, 0}) {
		t.Fatalf("bcast-upper: delivered %v misrouted %v", res.Delivered, res.Misrouted)
	}

	st[0][0] = McBcastLower
	res = net.MulticastRoute([]int{1, 1}, st)
	if !res.OK() || !reflect.DeepEqual(res.Delivered, []int{1, 1}) {
		t.Fatalf("bcast-lower: delivered %v misrouted %v", res.Delivered, res.Misrouted)
	}

	// Requesting {0,1} but broadcasting 0 must misroute both: source 0
	// lands on an output that wanted 1, and source 1 arrives nowhere.
	st[0][0] = McBcastUpper
	res = net.MulticastRoute([]int{0, 1}, st)
	if res.OK() || !reflect.DeepEqual(res.Misrouted, []int{0, 1}) {
		t.Fatalf("displacement: delivered %v misrouted %v", res.Delivered, res.Misrouted)
	}
}

func TestCheckMulticast(t *testing.T) {
	cases := []struct {
		req, got, want []int
	}{
		{[]int{0, 0, 2, 3}, []int{0, 0, 2, 3}, nil},
		{[]int{-1, -1, -1, -1}, []int{3, 1, 0, 2}, nil},
		{[]int{0, 0, -1, 3}, []int{0, 0, 1, 3}, nil},
		{[]int{0, 1, 2, 3}, []int{0, 1, 3, 2}, []int{2, 3}},
		{[]int{2, 2, 2, 2}, []int{2, 2, 2, -1}, []int{2}},
		{[]int{1, 1, -1, -1}, []int{1, 0, -1, -1}, []int{0, 1}},
	}
	for _, c := range cases {
		if got := CheckMulticast(c.req, c.got); !reflect.DeepEqual(got, c.want) {
			t.Errorf("CheckMulticast(%v, %v) = %v, want %v", c.req, c.got, got, c.want)
		}
	}
}

func TestLinkInvInvertsLink(t *testing.T) {
	for n := 1; n <= 6; n++ {
		net := New(n)
		for s, link := range net.Wiring() {
			for y, x := range link {
				if got := net.LinkInv(s)[x]; got != y {
					t.Fatalf("n=%d stage %d: LinkInv(%d)[Wiring()[%d][%d]] = %d", n, s, s, s, y, got)
				}
			}
		}
	}
}
