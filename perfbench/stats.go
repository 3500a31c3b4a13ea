package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"syscall"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (q=0.5 is the median); xs is not modified. It
// returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// relErr is |est/truth − 1|, the paper's accuracy measure for one
// estimate.
func relErr(est, truth float64) float64 { return math.Abs(est/truth - 1) }

// fingerprint is an FNV-1a hash over output words: estimate bits,
// message totals and overlay sizes.
type fingerprint struct {
	h   hash.Hash64
	buf [8]byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) word(v uint64) {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.h.Write(f.buf[:])
}

func (f *fingerprint) float(x float64) { f.word(math.Float64bits(x)) }

func (f *fingerprint) sum() uint64 { return f.h.Sum64() }

// peakRSSMB is the process's maximum resident set size so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
