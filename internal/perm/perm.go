// Package perm provides the permutation machinery underlying Nassimi &
// Sahni's self-routing Benes network: the destination-tag representation
// D = (D_0, ..., D_{N-1}), the compact bit-permute-complement (BPC)
// A-vector representation, Lawrie's omega and inverse-omega permutation
// classes, the recursive characterization of the self-routable class F(n)
// (Theorem 1), and the block-composite constructions of Theorems 4-6.
//
// A permutation D sends input i to output D[i]; D[i] is the destination
// tag that input i carries into a self-routing network.
package perm

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bits"
)

// Perm is a permutation of (0, 1, ..., N-1) in destination-tag form:
// input i is sent to output P[i]. The zero-length Perm is the (vacuous)
// permutation on zero elements.
type Perm []int

// Identity returns the identity permutation on n elements.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Len returns the number of elements N the permutation acts on.
func (p Perm) Len() int { return len(p) }

// Valid reports whether p is a permutation of (0, ..., len(p)-1):
// every value in range and no value repeated.
func (p Perm) Valid() bool { return p.firstFault() < 0 }

// Validate returns a descriptive error if p is not a permutation.
func (p Perm) Validate() error {
	i := p.firstFault()
	if i < 0 {
		return nil
	}
	d := p[i]
	if d < 0 || d >= len(p) {
		return fmt.Errorf("perm: D[%d] = %d out of range [0,%d)", i, d, len(p))
	}
	j := 0 // d repeats: find the input that took it first
	for p[j] != d {
		j++
	}
	return fmt.Errorf("perm: destination %d assigned to both inputs %d and %d", d, j, i)
}

// firstFault returns the first input whose destination is out of range
// or repeats an earlier input's, or -1 when p is a permutation. The set
// of destinations seen is a bitset on the stack up to N=1024.
func (p Perm) firstFault() int {
	var stack [1024 / 64]uint64
	seen := stack[:]
	if w := (len(p) + 63) / 64; w > len(seen) {
		seen = make([]uint64, w)
	}
	for i, d := range p {
		if d < 0 || d >= len(p) || seen[d/64]&(1<<(uint(d)%64)) != 0 {
			return i
		}
		seen[d/64] |= 1 << (uint(d) % 64)
	}
	return -1
}

// Inverse returns the inverse permutation q with q[p[i]] = i.
// It panics if p is not valid.
func (p Perm) Inverse() Perm {
	if !p.Valid() {
		panic("perm: Inverse of invalid permutation")
	}
	q := make(Perm, len(p))
	for i, d := range p {
		q[d] = i
	}
	return q
}

// Compose returns the product p∘q defined by (p∘q)[i] = p[q[i]]:
// first route by q, then by p. The paper's closure counterexample in
// Section II composes permutations in this order.
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic("perm: Compose of permutations with different lengths")
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Then returns the permutation "first p, then q": input i is routed by p
// and the result re-routed by q, so Then(p,q)[i] = q[p[i]]. This is the
// left-to-right product the paper writes A∘B in its Section II closure
// counterexample.
func (p Perm) Then(q Perm) Perm {
	return q.Compose(p)
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Perm) Clone() Perm {
	q := make(Perm, len(p))
	copy(q, p)
	return q
}

// IsIdentity reports whether p is the identity permutation.
func (p Perm) IsIdentity() bool {
	for i, d := range p {
		if i != d {
			return false
		}
	}
	return true
}

// Apply permutes data according to p: the element at input position i is
// moved to output position p[i]. It returns a new slice and leaves data
// unchanged.
func Apply[T any](p Perm, data []T) []T {
	if len(p) != len(data) {
		panic("perm: Apply length mismatch")
	}
	return ApplyInto(p, data, make([]T, len(data)))
}

// ApplyInto is Apply writing into out, which must have len(p) elements
// and share no memory with data. It returns out.
func ApplyInto[T any](p Perm, data, out []T) []T {
	if len(p) != len(data) || len(out) != len(data) {
		panic("perm: ApplyInto length mismatch")
	}
	for i, d := range p {
		out[d] = data[i]
	}
	return out
}

// String renders p as a parenthesised destination list, e.g. "(1,3,2,0)",
// matching the paper's notation D = (D_0, D_1, ..., D_{N-1}).
func (p Perm) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, d := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(d))
	}
	b.WriteByte(')')
	return b.String()
}

// Parse parses the textual form produced by String, with or without the
// surrounding parentheses: "1,3,2,0" and "(1,3,2,0)" are both accepted.
func Parse(s string) (Perm, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	if s == "" {
		return Perm{}, nil
	}
	parts := strings.Split(s, ",")
	p := make(Perm, len(parts))
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("perm: bad element %q: %v", part, err)
		}
		p[i] = v
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Random returns a uniformly random permutation on n elements drawn from
// rng.
func Random(n int, rng *rand.Rand) Perm {
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Order returns the multiplicative order of p: the smallest k >= 1 with
// p^k = identity.
func (p Perm) Order() int {
	// The order is the lcm of the cycle lengths.
	seen := make([]bool, len(p))
	order := 1
	for i := range p {
		if seen[i] {
			continue
		}
		length := 0
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			length++
		}
		order = lcm(order, length)
	}
	return order
}

// Cycles returns the cycle decomposition of p, each cycle starting at its
// smallest element, cycles sorted by first element. Fixed points are
// included as singleton cycles.
func (p Perm) Cycles() [][]int {
	seen := make([]bool, len(p))
	var cycles [][]int
	for i := range p {
		if seen[i] {
			continue
		}
		var c []int
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			c = append(c, j)
		}
		cycles = append(cycles, c)
	}
	sort.Slice(cycles, func(a, b int) bool { return cycles[a][0] < cycles[b][0] })
	return cycles
}

// FixedPoints returns the number of i with p[i] = i.
func (p Perm) FixedPoints() int {
	n := 0
	for i, d := range p {
		if i == d {
			n++
		}
	}
	return n
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// LogN returns n = log2(N) for the permutation's length N, panicking if N
// is not a power of two. All the network-oriented classes (BPC, omega, F)
// require N = 2^n.
func (p Perm) LogN() int { return bits.Log2(len(p)) }
