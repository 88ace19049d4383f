package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Timing is a set of latency or duration samples.
type Timing []time.Duration

// quantile returns the q-quantile by linear interpolation between
// order statistics (the "inclusive" method of Python's
// statistics.quantiles).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// quartiles returns the three cut points of sorted (at least two
// values) by the "exclusive" method, the default of Python's
// statistics.quantiles(v, n=4); repeat mode reports spreads with it.
func quartiles(sorted []float64) (q1, med, q3 float64) {
	ld := len(sorted)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// ms returns the samples in milliseconds.
func (t Timing) ms() []float64 {
	out := make([]float64, len(t))
	for i, d := range t {
		out[i] = float64(d) / 1e6
	}
	return out
}

// tailLevels are the percentiles a report may show beside a median.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.75}

// Summary is a median with its sample count, quartiles and the highest
// percentile that has at least ten samples beyond it.
type Summary struct {
	N         int
	Median    float64
	Q1, Q3    float64
	TailLevel float64 // 0 when no percentile has ten samples beyond it
	TailValue float64
	Unit      string
}

func summarize(v []float64, unit string) Summary {
	s := sortedCopy(v)
	sum := Summary{N: len(s), Unit: unit}
	if len(s) == 0 {
		return sum
	}
	sum.Median = quantile(s, 0.5)
	sum.Q1 = quantile(s, 0.25)
	sum.Q3 = quantile(s, 0.75)
	for _, p := range tailLevels {
		if float64(len(s))*(1-p) >= 10 {
			sum.TailLevel = p
			sum.TailValue = quantile(s, p)
			break
		}
	}
	return sum
}

func (s Summary) String() string {
	if s.N == 0 {
		return "no samples"
	}
	out := fmt.Sprintf("p50 %.4g %s (n=%d, q1 %.4g, q3 %.4g", s.Median, s.Unit, s.N, s.Q1, s.Q3)
	if s.TailLevel > 0 {
		out += fmt.Sprintf(", p%g %.4g", s.TailLevel*100, s.TailValue)
	}
	return out + ")"
}
