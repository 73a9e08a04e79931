package main

import (
	"sort"
	"time"
)

// The host shares this machine's CPUs with other tenants, and the guest
// cannot see it: steal time reads 0.  On an idle guest, a fixed loop of
// integer bit operations takes either its uncontended time or twice it,
// flipping every few hundred milliseconds, while a chain of dependent
// loads barely slows.  The contention thus varies from moment to moment
// and with the instruction mix, and it moved the median job latency of
// one seed by up to 2× between runs.
//
// The harness therefore times refKernel, a fixed mix of bit-parallel,
// dependent-load and floating-point work that uses only the standard
// library, whenever no job is in flight.  A job's latency is scaled by
// refNominal ÷ (mean of the samples just before it was due and just
// after it ended): the time it would have taken at the reference kernel's
// uncontended speed.  Set-up time is scaled the same way, step by step.
// No change to the program under test changes the kernel.

// refNominal is refKernel's uncontended time in seconds on the 2-vCPU
// Xeon host the bounds were calibrated on: the fast mode of idle runs,
// whose slow mode is about 2.6 ms.
const refNominal = 1.6e-3

// probeEvery spaces the open loop's samples, taken while no job is in
// flight.
const probeEvery = 50 * time.Millisecond

var refData = func() []uint64 {
	d := make([]uint64, 1<<15) // 256 KiB
	x := uint64(88172645463325252)
	for i := range d {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		d[i] = x
	}
	return d
}()

// refKernel runs the fixed reference work and returns a value that
// depends on all of it, so the compiler cannot drop any.
func refKernel() uint64 {
	var acc uint64
	for r := 0; r < 48; r++ { // throughput-bound bit operations
		for i := 0; i+3 < len(refData); i += 4 {
			a, b, c, d := refData[i], refData[i+1], refData[i+2], refData[i+3]
			acc += (a^b)&(c|d) ^ (a & c)
		}
	}
	idx := uint64(1)
	for r := 0; r < 80000; r++ { // dependent loads and unpredictable branches
		v := refData[idx%uint64(len(refData))]
		if v&1 == 0 {
			idx = idx*3 + v>>40
		} else {
			idx += v >> 50
		}
	}
	f := 0.0
	for r := 0; r < 24; r++ { // floating-point accumulation
		for i := 0; i < 8192; i++ {
			f += float64(refData[i]>>40) * 1e-9 * float64(r)
		}
	}
	return acc + idx + uint64(f)
}

// speedSample is one timed run of refKernel.
type speedSample struct {
	start, end time.Time
	sec        float64
}

// speedProbe records refKernel samples.  It is used by one goroutine.
type speedProbe struct {
	samples []speedSample
	sink    uint64
}

func (p *speedProbe) sample() {
	start := time.Now()
	p.sink += refKernel()
	end := time.Now()
	p.samples = append(p.samples, speedSample{start, end, end.Sub(start).Seconds()})
}

// last returns the start of the latest sample, or the zero time.
func (p *speedProbe) last() time.Time {
	if len(p.samples) == 0 {
		return time.Time{}
	}
	return p.samples[len(p.samples)-1].start
}

// factor is refNominal ÷ the mean of the last sample that ended by from
// and the first that started at or after to (the nearest one where either
// is missing).  Samples are in time order.
func (p *speedProbe) factor(from, to time.Time) float64 {
	n := len(p.samples)
	if n == 0 {
		return 1
	}
	after := sort.Search(n, func(i int) bool { return !p.samples[i].start.Before(to) })
	before := sort.Search(n, func(i int) bool { return p.samples[i].end.After(from) }) - 1
	if after == n {
		after = n - 1
	}
	if before < 0 {
		before = 0
	}
	return refNominal / ((p.samples[before].sec + p.samples[after].sec) / 2)
}

// scaledSince is the time from t0 to the last sample, leaving out the
// samples' own time, at the reference kernel's uncontended speed: the gap
// from t0 to samples[first] is scaled by that sample's factor, and each
// gap between consecutive samples by the mean of its two.
func (p *speedProbe) scaledSince(t0 time.Time, first int) float64 {
	s := p.samples[first:]
	total := s[0].start.Sub(t0).Seconds() * refNominal / s[0].sec
	for j := 1; j < len(s); j++ {
		total += s[j].start.Sub(s[j-1].end).Seconds() * refNominal / ((s[j-1].sec + s[j].sec) / 2)
	}
	return total
}

// slowdown is the median sample time ÷ refNominal.
func (p *speedProbe) slowdown() float64 {
	s := make([]float64, len(p.samples))
	for i, x := range p.samples {
		s[i] = x.sec
	}
	return quantile(s, 0.5) / refNominal
}
