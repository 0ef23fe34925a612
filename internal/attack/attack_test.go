package attack

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
)

// sharedResult caches one small floorplanning run for all attack tests.
var (
	resOnce sync.Once
	resPA   *core.Result
)

func paResult(t *testing.T) *core.Result {
	t.Helper()
	resOnce.Do(func() {
		des := bench.MustGenerate("n100")
		r, err := core.Run(des, core.Config{
			Mode: core.PowerAware, GridN: 16, Iterations: 120,
			ActivitySamples: 8, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		resPA = r
	})
	return resPA
}

func TestSensorsReadDims(t *testing.T) {
	s := Sensors{N: 4, NoiseK: 0}
	die := geom.NewGrid(16, 16)
	die.Fill(300)
	r := s.Read(die, rand.New(rand.NewSource(1)))
	if r.NX != 4 || r.NY != 4 {
		t.Fatalf("dims %dx%d", r.NX, r.NY)
	}
	for _, v := range r.Data {
		if v != 300 {
			t.Fatal("noiseless read of constant field must be constant")
		}
	}
}

func TestSensorsNoiseApplied(t *testing.T) {
	s := Sensors{N: 4, NoiseK: 1.0}
	die := geom.NewGrid(16, 16)
	die.Fill(300)
	r := s.Read(die, rand.New(rand.NewSource(2)))
	varies := false
	for _, v := range r.Data {
		if v != 300 {
			varies = true
		}
	}
	if !varies {
		t.Fatal("noise not applied")
	}
}

func TestInterpolateConstantField(t *testing.T) {
	s := Sensors{N: 4}
	r := geom.NewGrid(4, 4)
	r.Fill(7)
	up := s.Interpolate(r, 16, 16)
	for _, v := range up.Data {
		if math.Abs(v-7) > 1e-12 {
			t.Fatal("interpolation of constant field must be constant")
		}
	}
}

func TestInterpolatePreservesGradientDirection(t *testing.T) {
	s := Sensors{N: 4}
	r := geom.NewGrid(4, 4)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			r.Set(i, j, float64(i))
		}
	}
	up := s.Interpolate(r, 16, 16)
	for j := 0; j < 16; j++ {
		for i := 1; i < 16; i++ {
			if up.At(i, j) < up.At(i-1, j)-1e-9 {
				t.Fatal("interpolation broke monotone gradient")
			}
		}
	}
}

func TestDeviceRespondShapes(t *testing.T) {
	d := NewDevice(paResult(t), Sensors{N: 8, NoiseK: 0}, 1)
	maps := d.Respond(d.ones())
	if len(maps) != 2 {
		t.Fatalf("dies %d", len(maps))
	}
	for _, m := range maps {
		if m.NX != d.GridN() || m.NY != d.GridN() {
			t.Fatal("map dims")
		}
		if m.Max() <= 293 {
			t.Fatal("temperatures at ambient")
		}
	}
	if d.Solves != 1 {
		t.Fatalf("solves %d", d.Solves)
	}
	d.Reset()
}

func TestHigherActivityHotter(t *testing.T) {
	d := NewDevice(paResult(t), Sensors{N: 8, NoiseK: 0}, 2)
	low := d.Respond(d.ones())
	hi := d.ones()
	for i := range hi {
		hi[i] = 2
	}
	high := d.Respond(hi)
	if high[0].Mean() <= low[0].Mean() {
		t.Fatal("doubling activity must heat the die")
	}
	d.Reset()
}

func TestLocalizeFindsHotModule(t *testing.T) {
	res := paResult(t)
	d := NewDevice(res, Sensors{N: 16, NoiseK: 0}, 3)
	// Pick the highest-power module: the easiest target; a noiseless
	// attacker must at least get the die right and land nearby.
	best, bp := 0, 0.0
	for m, mod := range res.Design.Modules {
		if mod.Power > bp {
			best, bp = m, mod.Power
		}
	}
	r := Localize(d, best, LocalizeOptions{})
	if !r.DieMatch {
		t.Fatalf("die mismatch for hottest module: est %d true %d", r.EstDie, r.TrueDie)
	}
	// Error within a third of the die diagonal (coarse but meaningful at
	// this tiny grid/sensor resolution).
	diag := math.Hypot(res.Layout.OutlineW, res.Layout.OutlineH)
	if r.ErrorUM > diag/3 {
		t.Fatalf("localization error %v um too large (diag %v)", r.ErrorUM, diag)
	}
	d.Reset()
}

func TestLocalizeAllAggregates(t *testing.T) {
	d := NewDevice(paResult(t), Sensors{N: 8, NoiseK: 0.02}, 4)
	st := LocalizeAll(d, []int{0, 1, 2}, LocalizeOptions{})
	if len(st.Results) != 3 {
		t.Fatal("results count")
	}
	if st.HitRate < 0 || st.HitRate > 1 || st.DieRate < 0 || st.DieRate > 1 {
		t.Fatal("rates out of range")
	}
	if st.MeanError < 0 {
		t.Fatal("negative error")
	}
	d.Reset()
}

func TestCharacterizeR2Range(t *testing.T) {
	d := NewDevice(paResult(t), Sensors{N: 8, NoiseK: 0.01}, 5)
	r := Characterize(d, []int{0, 1, 2, 3}, 4, rand.New(rand.NewSource(6)))
	if r.R2 < 0 || r.R2 > 1 {
		t.Fatalf("R2 %v out of range", r.R2)
	}
	if r.Probes != 9 || r.TestPatterns != 4 {
		t.Fatalf("probe accounting: %d probes, %d tests", r.Probes, r.TestPatterns)
	}
	d.Reset()
}

func TestCharacterizeNoiselessIsPredictive(t *testing.T) {
	// With no sensor noise and steady-state readings, the device is linear;
	// the attack must achieve a decent fit even with few probes.
	d := NewDevice(paResult(t), Sensors{N: 8, NoiseK: 0}, 7)
	r := Characterize(d, []int{0, 1, 2, 3, 4, 5}, 6, rand.New(rand.NewSource(8)))
	if r.R2 < 0.3 {
		t.Fatalf("noiseless characterization too weak: R2=%v", r.R2)
	}
	d.Reset()
}

func TestMonitorTracksActivity(t *testing.T) {
	res := paResult(t)
	d := NewDevice(res, Sensors{N: 16, NoiseK: 0}, 9)
	best, bp := 0, 0.0
	for m, mod := range res.Design.Modules {
		if mod.Power > bp {
			best, bp = m, mod.Power
		}
	}
	r := Monitor(d, best, d.ModuleCenter(best), 16, rand.New(rand.NewSource(10)))
	if r.Correlation < 0 || r.Correlation > 1 {
		t.Fatalf("correlation %v out of range", r.Correlation)
	}
	// The hottest module watched noiselessly at its true position must
	// leak: its local temperature tracks its activity.
	if r.Correlation < 0.3 {
		t.Fatalf("monitoring the hottest module should leak: corr=%v", r.Correlation)
	}
	d.Reset()
}
