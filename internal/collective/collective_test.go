package collective

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/perm"
)

// newService builds a collective service over a real fabric.
func newService(t testing.TB, logN, planes int, opts Options) *Service[int] {
	t.Helper()
	f, err := fabric.New[int](fabric.Config{LogN: logN, Planes: planes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return New[int](f, opts)
}

// fill builds an N x chunks payload with cell (p, c) = p*1000 + c.
func fill(n, chunks int) [][]int {
	data := make([][]int, n)
	for p := range data {
		data[p] = make([]int, chunks)
		for c := range data[p] {
			data[p][c] = p*1000 + c
		}
	}
	return data
}

func wait(t *testing.T, h *Handle[int]) [][]int {
	t.Helper()
	out, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireAllSelfRouted asserts the acceptance criterion: every round
// the fabric served for this collective took the self-routed path.
func requireAllSelfRouted(t *testing.T, h *Handle[int]) {
	t.Helper()
	st := h.Stats()
	if st.Completed != int64(st.Rounds) {
		t.Fatalf("%s: completed %d of %d rounds", st.Op, st.Completed, st.Rounds)
	}
	if st.SelfRouted != int64(st.Rounds) || st.Fallbacks != 0 {
		t.Fatalf("%s: %d/%d rounds self-routed (%d fallbacks), want 100%%",
			st.Op, st.SelfRouted, st.Rounds, st.Fallbacks)
	}
}

// TestAllToAll checks the personalized all-to-all delivers in[i][j] to
// state[j][i] and that every round self-routes (the ring decomposition
// is all Table II cyclic shifts).
func TestAllToAll(t *testing.T) {
	const logN, n = 3, 8
	s := newService(t, logN, 2, Options{})
	in := fill(n, n)
	h, err := s.AllToAll(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	out := wait(t, h)
	for p := 0; p < n; p++ {
		for c := 0; c < n; c++ {
			if want := c*1000 + p; out[p][c] != want {
				t.Fatalf("out[%d][%d] = %d, want in[%d][%d] = %d", p, c, out[p][c], c, p, want)
			}
		}
	}
	requireAllSelfRouted(t, h)
	if done, total := h.Progress(); done != n || total != n {
		t.Fatalf("progress %d/%d, want %d/%d", done, total, n, n)
	}

	st := s.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Active != 0 {
		t.Fatalf("service counters: %+v", st)
	}
	if st.Rounds != n || st.SelfRouteRatio != 1.0 {
		t.Fatalf("rounds=%d ratio=%v, want %d and 1.0", st.Rounds, st.SelfRouteRatio, n)
	}
	if st.PerOp["alltoall"] != 1 {
		t.Fatalf("per-op map: %v", st.PerOp)
	}
	var planeTotal int64
	for _, r := range st.PlaneRounds {
		planeTotal += r
	}
	if planeTotal != int64(n) {
		t.Fatalf("plane occupancy sums to %d, want %d", planeTotal, n)
	}
}

// TestTranspose checks the Table I matrix transpose across chunk
// columns: in[r*cols+q][c] lands at out[q*rows+r][c], all self-routed.
func TestTranspose(t *testing.T) {
	const logN, n, rows, cols, chunks = 4, 16, 4, 4, 3
	s := newService(t, logN, 2, Options{})
	in := fill(n, chunks)
	h, err := s.Transpose(context.Background(), rows, cols, in)
	if err != nil {
		t.Fatal(err)
	}
	out := wait(t, h)
	for r := 0; r < rows; r++ {
		for q := 0; q < cols; q++ {
			for c := 0; c < chunks; c++ {
				if got, want := out[q*rows+r][c], in[r*cols+q][c]; got != want {
					t.Fatalf("out[%d][%d] = %d, want %d", q*rows+r, c, got, want)
				}
			}
		}
	}
	requireAllSelfRouted(t, h)
}

// TestShuffleAndBitReversal checks the remaining Table I column
// collectives against their perm generators.
func TestShuffleAndBitReversal(t *testing.T) {
	const logN, n, chunks = 4, 16, 2
	cases := []struct {
		name  string
		dest  perm.Perm
		start func(s *Service[int], data [][]int) (*Handle[int], error)
	}{
		{"shuffle", perm.PerfectShuffle(logN), func(s *Service[int], data [][]int) (*Handle[int], error) {
			return s.Shuffle(context.Background(), data)
		}},
		{"bitreversal", perm.BitReversal(logN), func(s *Service[int], data [][]int) (*Handle[int], error) {
			return s.BitReversal(context.Background(), data)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newService(t, logN, 2, Options{})
			in := fill(n, chunks)
			h, err := tc.start(s, in)
			if err != nil {
				t.Fatal(err)
			}
			out := wait(t, h)
			for i := 0; i < n; i++ {
				for c := 0; c < chunks; c++ {
					if got, want := out[tc.dest[i]][c], in[i][c]; got != want {
						t.Fatalf("out[%d][%d] = %d, want %d", tc.dest[i], c, got, want)
					}
				}
			}
			requireAllSelfRouted(t, h)
		})
	}
}

// TestBroadcast checks the copy-network broadcast: every port ends
// with the root's chunks, in one fan-out round per chunk.
func TestBroadcast(t *testing.T) {
	const logN, n, root, chunks = 3, 8, 5, 2
	s := newService(t, logN, 2, Options{})
	in := make([][]int, n)
	for p := range in {
		in[p] = nil
	}
	in[root] = []int{42, 77}
	h, err := s.Broadcast(context.Background(), root, in)
	if err != nil {
		t.Fatal(err)
	}
	out := wait(t, h)
	for p := 0; p < n; p++ {
		if out[p][0] != 42 || out[p][1] != 77 {
			t.Fatalf("port %d received %v, want [42 77]", p, out[p])
		}
	}
	requireAllSelfRouted(t, h)
	if st := h.Stats(); st.Rounds != chunks {
		t.Fatalf("broadcast rounds = %d, want one per chunk = %d", st.Rounds, chunks)
	}
	if st := s.Stats(); st.McastRounds != chunks {
		t.Fatalf("mcast rounds = %d, want %d", st.McastRounds, chunks)
	}
}

// TestAllGather checks the all-gather end to end: every port
// contributes one chunk and ends holding all N in port order, one
// self-routed copy-network round per contributor.
func TestAllGather(t *testing.T) {
	const logN, n = 3, 8
	s := newService(t, logN, 2, Options{})
	in := make([][]int, n)
	for p := range in {
		in[p] = []int{p * 10}
	}
	h, err := s.AllGather(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	out := wait(t, h)
	for p := 0; p < n; p++ {
		for j := 0; j < n; j++ {
			if out[p][j] != j*10 {
				t.Fatalf("out[%d][%d] = %d, want %d", p, j, out[p][j], j*10)
			}
		}
	}
	requireAllSelfRouted(t, h)
	st := s.Stats()
	if st.McastRounds != n || st.PerOp["allgather"] != 1 {
		t.Fatalf("mcast rounds = %d per-op = %v, want %d and allgather=1", st.McastRounds, st.PerOp, n)
	}
}

// TestFanOut checks pub/sub delivery end to end: overlapping
// subscriber sets, slots keyed by ascending source.
func TestFanOut(t *testing.T) {
	const logN, n = 3, 8
	s := newService(t, logN, 2, Options{})
	dests := [][]int{
		{4, 5, 6},
		{4, 7},
		{0, 1},
		{2, 3},
		nil, nil, nil, nil,
	}
	in := [][]int{{100}, {200}, {300}, {400}, {}, {}, {}, {}}
	h, err := s.FanOut(context.Background(), dests, in)
	if err != nil {
		t.Fatal(err)
	}
	out := wait(t, h)
	want := [][]int{{300}, {300}, {400}, {400}, {100, 200}, {100}, {100}, {200}}
	for p := range want {
		if len(out[p]) != len(want[p]) {
			t.Fatalf("port %d received %v, want %v", p, out[p], want[p])
		}
		for c := range want[p] {
			if out[p][c] != want[p][c] {
				t.Fatalf("port %d received %v, want %v", p, out[p], want[p])
			}
		}
	}
	requireAllSelfRouted(t, h)
	if _, err := s.FanOut(context.Background(), dests, [][]int{{1}, {2}}); err == nil {
		t.Fatal("wrong payload shape must be rejected")
	}
}

// TestGatherScatter round-trips one chunk per port through the root.
func TestGatherScatter(t *testing.T) {
	const logN, n, root = 3, 8, 2
	s := newService(t, logN, 2, Options{})

	in := make([][]int, n)
	for p := range in {
		in[p] = []int{p * 10}
	}
	h, err := s.Gather(context.Background(), root, in)
	if err != nil {
		t.Fatal(err)
	}
	gathered := wait(t, h)
	for p := 0; p < n; p++ {
		if gathered[root][p] != p*10 {
			t.Fatalf("gathered[%d] = %d, want %d", p, gathered[root][p], p*10)
		}
	}
	requireAllSelfRouted(t, h)

	sc := make([][]int, n)
	for p := range sc {
		sc[p] = nil
	}
	sc[root] = gathered[root]
	h, err = s.Scatter(context.Background(), root, sc)
	if err != nil {
		t.Fatal(err)
	}
	scattered := wait(t, h)
	for p := 0; p < n; p++ {
		if len(scattered[p]) != 1 || scattered[p][0] != p*10 {
			t.Fatalf("scattered[%d] = %v, want [%d]", p, scattered[p], p*10)
		}
	}
	requireAllSelfRouted(t, h)
}

// TestExchange runs an arbitrary all-to-all with uneven fan-out and a
// Keep chunk, checking receive slots are keyed by source and kept
// chunks stay put.
func TestExchange(t *testing.T) {
	const logN, n = 3, 8
	s := newService(t, logN, 2, Options{})
	// Port 0 sends three chunks, port 1 keeps one and sends one, the
	// rest send their single chunk to port 0.
	dests := [][]int{
		{3, 5, 6},
		{Keep, 2},
		{0}, {0}, {0}, {0}, {0}, {0},
	}
	in := [][]int{
		{100, 101, 102},
		{110, 111},
		{120}, {130}, {140}, {150}, {160}, {170},
	}
	h, err := s.Exchange(context.Background(), dests, in)
	if err != nil {
		t.Fatal(err)
	}
	out := wait(t, h)
	// Receives land at out[dst][src].
	for _, want := range []struct{ dst, src, val int }{
		{3, 0, 100}, {5, 0, 101}, {6, 0, 102}, {2, 1, 111},
		{0, 2, 120}, {0, 3, 130}, {0, 4, 140}, {0, 5, 150}, {0, 6, 160}, {0, 7, 170},
	} {
		if got := out[want.dst][want.src]; got != want.val {
			t.Fatalf("out[%d][%d] = %d, want %d", want.dst, want.src, got, want.val)
		}
	}
	if out[1][0] != 110 {
		t.Fatalf("kept chunk moved: out[1][0] = %d, want 110", out[1][0])
	}
	// Max degree is 6 (port 0 receives six chunks): at most 6 rounds.
	if st := h.Stats(); st.Rounds > 6 {
		t.Fatalf("exchange used %d rounds, want <= max degree 6", st.Rounds)
	}
}

// TestCancellation submits with a cancelled context: the executor must
// abort before routing and report the cancellation.
func TestCancellation(t *testing.T) {
	s := newService(t, 3, 2, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := s.AllToAll(ctx, fill(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait() = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Cancelled != 1 || st.Completed != 0 || st.Active != 0 {
		t.Fatalf("service counters after cancel: %+v", st)
	}
}

// TestDeadlineAdmission seeds a deliberately huge round estimate: a
// short-deadline submission must be rejected up front with
// ErrDeadline, and the reject must be counted.
func TestDeadlineAdmission(t *testing.T) {
	s := newService(t, 3, 2, Options{RoundEstimate: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := s.AllToAll(ctx, fill(8, 8)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("admission: %v, want ErrDeadline", err)
	}
	if st := s.Stats(); st.DeadlineRejected != 1 || st.Submitted != 0 {
		t.Fatalf("counters after reject: %+v", st)
	}

	// Without an estimate the same deadline is admitted (and the
	// rounds then feed the estimator).
	s2 := newService(t, 3, 2, Options{})
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	h, err := s2.AllToAll(ctx2, fill(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	wait(t, h)
	if est := s2.Stats().EstRoundNs; est <= 0 {
		t.Fatalf("round estimate not learned: %d", est)
	}
}

// programCount is the number of programs s has compiled and cached.
func programCount(s *Service[int]) int {
	s.progs.mu.Lock()
	defer s.progs.mu.Unlock()
	return s.progs.ll.Len()
}

// TestSubmitShapeErrors covers the payload shape rejects. A rejected
// payload must compile and cache nothing: the column collectives and
// broadcast size their programs by the payload's row widths, so a
// one-row payload 4,096 chunks wide would otherwise cache a program of
// 4,096 rounds that no valid request can use.
func TestSubmitShapeErrors(t *testing.T) {
	s := newService(t, 3, 1, Options{})
	ctx := context.Background()
	wide := [][]int{make([]int, 4096)}
	if _, err := s.Transpose(ctx, 2, 4, wide); err == nil {
		t.Fatal("one-row transpose payload must be rejected")
	}
	if _, err := s.Shuffle(ctx, wide); err == nil {
		t.Fatal("one-row shuffle payload must be rejected")
	}
	if _, err := s.BitReversal(ctx, wide); err == nil {
		t.Fatal("one-row bit-reversal payload must be rejected")
	}
	if _, err := s.Broadcast(ctx, 0, wide); err == nil {
		t.Fatal("one-row broadcast payload must be rejected")
	}
	if _, err := s.AllToAll(ctx, fill(4, 8)); err == nil {
		t.Fatal("wrong port count must be rejected")
	}
	if _, err := s.AllToAll(ctx, fill(8, 4)); err == nil {
		t.Fatal("wrong chunk width must be rejected")
	}
	if _, err := s.Transpose(ctx, 3, 5, fill(8, 1)); err == nil {
		t.Fatal("non-power-of-two transpose tiling must be rejected")
	}
	if _, err := s.Broadcast(ctx, 99, fill(8, 1)); err == nil {
		t.Fatal("out-of-range broadcast root must be rejected")
	}
	if _, err := s.Scatter(ctx, -1, fill(8, 0)); err == nil {
		t.Fatal("negative scatter root must be rejected")
	}
	if n := programCount(s); n != 0 {
		t.Fatalf("rejected payloads left %d programs in the cache, want 0", n)
	}
}

// TestPipelineCacheReuse checks the per-plane plan caches pay off
// where they should: a column collective presents one permutation k
// times, so at most one round per plane can miss the plan cache.
func TestPipelineCacheReuse(t *testing.T) {
	const logN, chunks, planes = 4, 8, 2
	s := newService(t, logN, planes, Options{})
	h, err := s.Shuffle(context.Background(), fill(16, chunks))
	if err != nil {
		t.Fatal(err)
	}
	wait(t, h)
	if st := h.Stats(); st.CacheHits < int64(chunks-planes) {
		t.Fatalf("cache hits = %d of %d rounds, want >= %d (one miss per plane)",
			st.CacheHits, st.Rounds, chunks-planes)
	}
}

// TestProgramCacheBounded: broadcasts from 1,000 distinct (root, width)
// shapes compile one program each, but the service keeps at most
// progCacheCap of them, every broadcast still delivers the root's
// chunks everywhere, and a repeated alltoall is still served from the
// cache after the churn.
func TestProgramCacheBounded(t *testing.T) {
	const logN, n, shapes = 5, 32, 1000
	s := newService(t, logN, 2, Options{})
	ctx := context.Background()
	for i := 0; i < shapes; i++ {
		root, w := i%n, 1+i/n
		in := make([][]int, n)
		in[root] = make([]int, w)
		for c := range in[root] {
			in[root][c] = i*100 + c
		}
		h, err := s.Broadcast(ctx, root, in)
		if err != nil {
			t.Fatalf("broadcast %d (root %d, width %d): %v", i, root, w, err)
		}
		out := wait(t, h)
		for p := range out {
			if len(out[p]) != w || out[p][0] != i*100 || out[p][w-1] != i*100+w-1 {
				t.Fatalf("broadcast %d (root %d, width %d): port %d received %v", i, root, w, p, out[p])
			}
		}
		if got := programCount(s); got > progCacheCap {
			t.Fatalf("after %d broadcasts %d programs are cached, want at most %d", i+1, got, progCacheCap)
		}
	}
	if got := programCount(s); got != progCacheCap {
		t.Fatalf("%d programs cached after %d shapes, want %d", got, shapes, progCacheCap)
	}
	key := progKey{op: OpAllToAll}
	var cached *Program
	for round := 0; round < 2; round++ {
		h, err := s.AllToAll(ctx, fill(n, n))
		if err != nil {
			t.Fatal(err)
		}
		out := wait(t, h)
		if out[3][7] != 7*1000+3 {
			t.Fatalf("alltoall %d: out[3][7] = %d, want %d", round, out[3][7], 7*1000+3)
		}
		prog := s.progs.get(key)
		if prog == nil {
			t.Fatalf("alltoall %d left no program cached", round)
		}
		if round == 1 && prog != cached {
			t.Fatal("a repeated alltoall compiled its program again instead of hitting the cache")
		}
		cached = prog
	}
}
