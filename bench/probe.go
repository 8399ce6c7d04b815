package main

import "time"

// The benchmark runs on virtual CPUs that are hardware threads of shared
// cores: while another thread runs on the core's second hardware thread,
// a co-tenant's or this process's own on its second CPU, the same
// instructions take 1.3–1.8 times as long, in stretches of a fraction of a
// second to a few seconds. The host also changes the cores' clock in
// steps: the quiet-core time of the same instructions moved by up to 20%
// within an hour. Both moved every timing metric from run to run by more
// than any code change the benchmark should resolve.
//
// A probe times a fixed integer kernel that shares no code or data with
// the system. The read loops probe the core after every query, and a
// query's latency is reported in units of the slower probe next to it,
// converted to milliseconds at the reference speed, where a probe takes
// refProbeNS: a shared core or a lower clock slows the query and the
// probe alike, and cancels out.

// probeIters sizes the kernel to about 40 µs on the measuring host.
const probeIters = 35_000

// refProbeNS is the probe time at the reference speed: the measuring
// host's on a quiet core at its usual clock.
const refProbeNS = 42_000

var probeSink uint64

// probeKernel runs n iterations of four independent add-xor lanes: work
// that needs the core's execution ports, which a second hardware thread
// competes for.
func probeKernel(n uint64) {
	var a, b, c, d uint64 = 1, 2, 3, 4
	for i := uint64(0); i < n; i++ {
		a += i ^ b
		b += i ^ c
		c += i ^ d
		d += i ^ a>>3
	}
	probeSink += a + b + c + d
}

// probe returns the faster of two kernel runs in nanoseconds, so that a
// single interrupt or preemption does not count as a slow core.
func probe() float64 {
	best := 0.0
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		probeKernel(probeIters)
		if d := float64(time.Since(t0)); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// probeLog holds a loop's probes in order: entries i and i+1 bracket
// query i.
type probeLog []float64

// scaled returns the latencies at the reference speed: each one times
// refProbeNS over the slower of the two probes next to it.
func (l probeLog) scaled(lat []float64) []float64 {
	out := make([]float64, len(lat))
	for i, ms := range lat {
		out[i] = ms * refProbeNS / max(l[i], l[i+1])
	}
	return out
}

// quiet returns the run's quiet probe time, the 10th percentile of its
// probes: a run spends well over a tenth of its time on a quiet core, so
// this measures the clock alone. Set-up, which no probes bracket, is
// scaled by it.
func (l probeLog) quiet() float64 { return percentile(l, 10) }
