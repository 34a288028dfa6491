package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of v,
// sorting v in place; 0 for an empty sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

// median returns the middle value of v (the mean of the two middle
// values for an even count), sorting v in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/b, 0 when b is 0: a layer the workload does not reach
// reports zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartiles returns the first and third quartiles of v by the
// exclusive method of Python's statistics.quantiles(v, n=4), sorting v
// in place.
func quartiles(v []float64) (q1, q3 float64) {
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		if n == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	at := func(j int) float64 {
		// statistics.quantiles: m = n+1; j-th cut at position j*m/4.
		pos := float64(j*(n+1)) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return v[0]
		case lo >= n:
			return v[n-1]
		}
		return v[lo-1] + frac*(v[lo]-v[lo-1])
	}
	return at(1), at(3)
}
