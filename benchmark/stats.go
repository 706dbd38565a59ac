package main

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
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
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nearRel reports whether a and b agree within relative eps (absolute below
// magnitude 1), the tolerance every float result is checked with.
func nearRel(a, b, eps float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= eps*scale
}

// refEps is the relative tolerance on float results: different but valid
// accumulation orders (morsel blocking, fused loops) stay well inside it.
const refEps = 1e-9

// zipf draws ranks 0..n-1 with probability ∝ 1/(rank+1)^s, so a few shapes
// of a pool go hot and the tail stays cold.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// lane is one stream of a workload's traffic: share ops of every block of
// the schedule come from it.
type lane struct {
	share int
	next  func() *entry
}

// dealSchedule deals ops at exact fixed shares: every block of Σshare ops
// holds exactly lane.share ops of each lane at seeded positions, so the
// share of a class never drifts within a window and no percentile wanders
// across a class boundary from binomial noise.
func dealSchedule(rng *rand.Rand, lanes ...lane) func() *entry {
	var block []int
	for i, l := range lanes {
		for k := 0; k < l.share; k++ {
			block = append(block, i)
		}
	}
	pos := len(block)
	return func() *entry {
		if pos == len(block) {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			pos = 0
		}
		l := lanes[block[pos]]
		pos++
		return l.next()
	}
}

// uniformOver draws the entries of a small fixed set with equal weight.
func uniformOver(rng *rand.Rand, set []*entry) func() *entry {
	return func() *entry { return set[rng.Intn(len(set))] }
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM) from
// /proc; 0 where /proc is unavailable.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
