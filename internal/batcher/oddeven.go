package batcher

// Batcher's other classic construction: the odd-even merge sorting
// network. Same O(log^2 N) depth as the bitonic sorter but measurably
// fewer comparators — (n^2 - n + 4)·2^(n-2) - 1 for N = 2^n — which is
// why hardware proposals of the era quoted it. Included so the
// Section I comparison can cite the cheapest known self-routing
// all-permutation network of the time.

// NewOddEven constructs the odd-even merge sorter for 2^n lines.
func NewOddEven(n int) *Network {
	if n < 1 {
		panic("batcher: NewOddEven requires n >= 1")
	}
	oe := &Network{n: n, size: 1 << uint(n)}
	// Iterative Batcher odd-even merge construction: p is the sorted
	// block size being merged, k the comparison distance within the
	// merge phase.
	for p := 1; p < oe.size; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			var stage []Comparator
			for j := k % p; j <= oe.size-1-k; j += 2 * k {
				for i := 0; i <= min(k-1, oe.size-j-k-1); i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						stage = append(stage, Comparator{Low: i + j, High: i + j + k})
					}
				}
			}
			oe.stages = append(oe.stages, stage)
		}
	}
	return oe
}
