package main

import (
	"sort"
)

// quantile is the exact q-quantile of raw values (linear interpolation
// between the closest ranks). It sorts vals in place.
func quantile(vals []int64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return sortedQuantile(vals, q)
}

func sortedQuantile(s []int64, q float64) float64 {
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[lo+1])*frac
}

// median of float64 values (not modified).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// eventScore pools event-level outcomes across sessions.
type eventScore struct{ tp, fp, fn int }

func (e *eventScore) add(tp, fp, fn int) { e.tp, e.fp, e.fn = e.tp+tp, e.fp+fp, e.fn+fn }

// f1 is the pooled F1, 2TP / (2TP + FP + FN).
func (e eventScore) f1() float64 {
	d := 2*e.tp + e.fp + e.fn
	if d == 0 {
		return 0
	}
	return float64(2*e.tp) / float64(d)
}
