package attack

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/thermal"
)

// CovertResult reports a thermal covert-channel experiment (Sec. 2.1 cites
// Masti et al.'s 12.5 bit/s channel between cores): a transmitter module
// encodes bits in its activity, a receiver watches a thermal sensor, and
// the channel quality is the bit error rate at the chosen bit period.
type CovertResult struct {
	Transmitter int
	Receiver    int // module whose location the receiver watches
	BitPeriodS  float64
	Bits        int
	Errors      int
	BER         float64
	// ThroughputBPS is the binary-symmetric-channel capacity at this BER
	// and bit rate: (1 - H2(BER)) / BitPeriod.
	ThroughputBPS float64
}

// CovertOptions tunes the experiment.
type CovertOptions struct {
	// BitPeriodS is the symbol duration in seconds. Default 0.05.
	BitPeriodS float64
	// Bits transmitted. Default 32.
	Bits int
	// HighActivity is the transmitter's multiplier for a 1 bit (0 bits
	// idle the module). Default 4.
	HighActivity float64
	// DT is the transient step in seconds. Default BitPeriodS/10.
	DT float64
	// SensorNoiseK is the receiver's readout noise. Default 0.02.
	SensorNoiseK float64
}

func (o *CovertOptions) defaults() {
	if o.BitPeriodS == 0 {
		o.BitPeriodS = 0.05
	}
	if o.Bits == 0 {
		o.Bits = 32
	}
	if o.HighActivity == 0 {
		o.HighActivity = 4
	}
	if o.DT == 0 {
		o.DT = o.BitPeriodS / 10
	}
	if o.SensorNoiseK == 0 {
		o.SensorNoiseK = 0.02
	}
}

// CovertChannel simulates tx encoding random bits in its activity while a
// receiver thresholds the temperature at module rx's location (a process
// observing its own core's sensor, as in the cited study). Returns the
// measured BER and the resulting channel throughput.
func CovertChannel(res *core.Result, tx, rx int, opts CovertOptions, rng *rand.Rand) CovertResult {
	opts.defaults()
	l := res.Layout
	n := res.PowerMaps[0].NX
	stack := res.Stack

	// Nominal powers with the transmitter idle.
	powers := make([]float64, len(l.Design.Modules))
	for m, mod := range l.Design.Modules {
		powers[m] = mod.Power * res.Assignment.PowerScale[m]
	}

	bits := make([]bool, opts.Bits)
	for i := range bits {
		bits[i] = rng.Intn(2) == 1
	}

	// Receiver location: the bin over module rx's center on rx's die.
	outline := geom.Rect{W: l.OutlineW, H: l.OutlineH}
	rxDie := l.DieOf[rx]
	rxI, rxJ := res.PowerMaps[rxDie].CellAt(outline, l.Rects[rx].Center())

	stepsPerBit := int(math.Max(1, opts.BitPeriodS/opts.DT))
	readings := make([]float64, opts.Bits)

	// Start from the idle steady state.
	setTx := func(active bool) {
		p := append([]float64(nil), powers...)
		if active {
			p[tx] *= opts.HighActivity
		} else {
			p[tx] = 0
		}
		for d := 0; d < l.Dies; d++ {
			stack.SetDiePower(d, l.PowerMap(d, n, n, p))
		}
	}
	setTx(false)
	sol, _ := stack.SolveSteady(nil, thermal.SolverOpts{Tol: 1e-4})
	for b, bit := range bits {
		setTx(bit)
		traj := stack.SolveTransient(sol, opts.DT, stepsPerBit, 0, nil, thermal.SolverOpts{})
		sol = traj[len(traj)-1]
		readings[b] = sol.DieTemp(rxDie).At(rxI, rxJ) + rng.NormFloat64()*opts.SensorNoiseK
	}
	// Restore nominal power maps.
	for d := 0; d < l.Dies; d++ {
		stack.SetDiePower(d, res.PowerMaps[d])
	}

	// Receiver decodes by comparing each reading against the median.
	sorted := append([]float64(nil), readings...)
	insertionSort(sorted)
	median := sorted[len(sorted)/2]
	errors := 0
	for b, bit := range bits {
		decoded := readings[b] > median
		if decoded != bit {
			errors++
		}
	}
	ber := float64(errors) / float64(opts.Bits)
	return CovertResult{
		Transmitter: tx, Receiver: rx,
		BitPeriodS: opts.BitPeriodS, Bits: opts.Bits,
		Errors: errors, BER: ber,
		ThroughputBPS: (1 - binaryEntropy(ber)) / opts.BitPeriodS,
	}
}

func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// binaryEntropy returns H2(p) in bits, 0 at p in {0, 1}.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}
