package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// probeRefMs is the speed probe's median time on the reference host, a
// 2-vCPU Intel Xeon VM at 2.1 GHz in a quiet hour. Op latency is reported
// at that speed: raw × probeRefMs ÷ (this run's median probe).
//
// Why: on a shared VM the host slows and speeds up the vCPUs, or takes
// them away, by up to ±30 % over minutes, so whole runs, or whole sets of
// runs, read fast or slow. The probe uses no code from the repository, so
// a change under test cannot move it; across 20 processes spanning a 25 %
// host shift, dividing by it cut the spread of fixed-work n100 and ibm01
// flows from 21 % to 6-8 %.
const probeRefMs = 12.5

// probeLane is one goroutine's share of the probe: a cache-resident float
// stencil (the blur's kind of work), a stencil over a grid larger than the
// caches with a pointer chase over a 4 MiB permutation (the solver's and the
// allocation-heavy anneal loop's memory traffic), and a sort. Each lane
// keeps both stencil planes in one allocation at a fixed offset, and
// nothing is allocated after construction, so neither address layout nor
// the program's heap and GC state reaches the timing.
type probeLane struct {
	small, big []float64
	src, buf   []float64
	perm       []int32
	sink       float64
}

func newProbeLane(seed int64) *probeLane {
	rng := rand.New(rand.NewSource(seed))
	l := &probeLane{
		small: make([]float64, 2*96*96+8), big: make([]float64, 2*256*256+8),
		src: make([]float64, 20000), buf: make([]float64, 20000), perm: make([]int32, 1<<20),
	}
	for i := range l.src {
		l.src[i] = rng.Float64()
	}
	p := rng.Perm(len(l.perm))
	for i := range p {
		l.perm[p[i]] = int32(p[(i+1)%len(p)])
	}
	return l
}

// stencil runs Jacobi sweeps on an n×n plane stored with its twin in g.
func stencil(g []float64, n, sweeps int) float64 {
	a, b := g[:n*n], g[n*n+8:]
	for i := range a {
		a[i] = float64(i % 17)
	}
	for s := 0; s < sweeps; s++ {
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				i := y*n + x
				b[i] = 0.25 * (a[i-1] + a[i+1] + a[i-n] + a[i+n])
			}
		}
		a, b = b, a
	}
	return a[n*n/2]
}

func (l *probeLane) run() {
	l.sink += stencil(l.small, 96, 60) + stencil(l.big, 256, 8)
	copy(l.buf, l.src)
	sort.Float64s(l.buf)
	j := int32(0)
	for k := 0; k < 1<<17; k++ {
		j = l.perm[j]
	}
	l.sink += l.buf[len(l.buf)/2] + float64(j)
}

// speedProbe runs one lane per GOMAXPROCS at once, because the workloads
// use every vCPU and the vCPUs of a shared host do not slow down together:
// a single-threaded probe timed whichever vCPU it landed on and came out
// bimodal across processes.
type speedProbe struct {
	lanes   []*probeLane
	samples []float64 // ms
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		p.lanes = append(p.lanes, newProbeLane(int64(i+1)))
	}
	return p
}

// sample times the probe n times. It collects garbage first, so background
// mark and sweep work left by the last flow does not share the vCPUs, and
// runs once untimed, so the lanes' working set is back in cache: without
// that, probes taken right after a flow read a third slower than probes in
// a row.
func (p *speedProbe) sample(n int) {
	runtime.GC()
	p.runLanes()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		p.runLanes()
		p.samples = append(p.samples, ms(time.Since(t0)))
	}
}

func (p *speedProbe) runLanes() {
	var wg sync.WaitGroup
	for _, l := range p.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run()
		}()
	}
	wg.Wait()
}

// factor scales a raw time to the reference host's speed.
func (p *speedProbe) factor() float64 {
	return probeRefMs / median(p.samples)
}
