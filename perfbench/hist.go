package main

import (
	"fmt"
	"math/bits"
	"time"
)

// subBits sets the histogram's resolution: 2^(subBits-1) buckets per
// power of two, so a bucket is at most 1/64 of its lower bound wide.
const subBits = 7

const histBuckets = (64-subBits)<<(subBits-1) + 1<<subBits

// minBeyond is the number of samples that must lie beyond a percentile
// before the harness reports it: a tail figure resting on fewer samples
// than this is noise.
const minBeyond = 10

// hist is a log-linear latency histogram over nanoseconds. Recording is
// allocation-free, so it can sit on every operation of a measured loop.
// A hist belongs to one goroutine; merge combines them afterwards.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits
	return shift<<(subBits-1) + int(v>>shift)
}

// bucketRange returns bucket b's lower bound and width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	shift := b>>(subBits-1) - 1
	m := b - shift<<(subBits-1)
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// mean returns the mean in nanoseconds, 0 for an empty histogram.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds,
// interpolated linearly inside its bucket. It refuses a quantile with
// fewer than minBeyond samples above it.
func (h *hist) quantile(q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0, 1)", q)
	}
	// The epsilon keeps float rounding (100 * (1-0.9) = 9.99...) from
	// refusing a quantile that has exactly minBeyond samples beyond it.
	if beyond := float64(h.n) * (1 - q); beyond+1e-9 < minBeyond {
		return 0, fmt.Errorf("p%v needs %d samples beyond it, have %.1f of %d",
			q*100, minBeyond, beyond, h.n)
	}
	target := q * float64(h.n)
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bucketRange(b)
			return lo + width*(target-cum)/float64(c), nil
		}
		cum += float64(c)
	}
	lo, width := bucketRange(histBuckets - 1)
	return lo + width, nil
}
