package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one timing's raw observations, in nanoseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)) }

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func median(s []float64) float64 { return quantile(sortedCopy(s), 0.5) }

// tailQuantile is the highest quantile, capped at want, that still has at
// least ten samples beyond it — the only tail a sample of n can support.
func tailQuantile(n int, want float64) float64 {
	if n <= 10 {
		return 0.5
	}
	return math.Min(want, 1-10/float64(n))
}

// summary is what every timing prints: median, the supported tail, and n.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailQ  float64 `json:"tail_q"`
	Tail   float64 `json:"tail"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize reduces samples to a summary, dividing by scale (1e3 turns
// nanoseconds into microseconds).
func summarize(s []float64, scale float64) summary {
	sorted := sortedCopy(s)
	tq := tailQuantile(len(sorted), 0.999)
	return summary{
		N:      len(sorted),
		Median: quantile(sorted, 0.5) / scale,
		TailQ:  tq,
		Tail:   quantile(sorted, tq) / scale,
		Q1:     quantile(sorted, 0.25) / scale,
		Q3:     quantile(sorted, 0.75) / scale,
	}
}

func (s summary) String() string {
	return fmt.Sprintf("median %.4g  p%.4g %.4g  n=%d", s.Median, s.TailQ*100, s.Tail, s.N)
}
