package noiseinject

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
)

var (
	once    sync.Once
	baseRes *core.Result
)

func result(t *testing.T) *core.Result {
	t.Helper()
	once.Do(func() {
		des := bench.MustGenerate("n100")
		r, err := core.Run(des, core.Config{
			Mode: core.PowerAware, GridN: 16, Iterations: 120,
			ActivitySamples: 6, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		baseRes = r
	})
	return baseRes
}

func TestZeroInjectionIsBaseline(t *testing.T) {
	res := result(t)
	r := Smooth(res, 0)
	if r.InjectedW != 0 {
		t.Fatalf("injected %v at alpha 0", r.InjectedW)
	}
	// Correlations must match the result's verified metrics closely.
	if math.Abs(r.R[0]-res.Metrics.R1) > 0.02 {
		t.Fatalf("baseline r %v vs metrics %v", r.R[0], res.Metrics.R1)
	}
}

func TestInjectionReducesCorrelation(t *testing.T) {
	res := result(t)
	meanAbsR := func(r Result) float64 {
		return (math.Abs(r.R[0]) + math.Abs(r.R[1])) / 2
	}
	low := meanAbsR(Smooth(res, 0.1))
	high := meanAbsR(Smooth(res, 0.8))
	if high >= low {
		t.Fatalf("more injection must decorrelate more: %.3f (0.8) vs %.3f (0.1)", high, low)
	}
}

func TestInjectionCostsPowerAndHeat(t *testing.T) {
	res := result(t)
	none := Smooth(res, 0)
	lots := Smooth(res, 0.5)
	wantInjected := 0.5 * (res.PowerMaps[0].Sum() + res.PowerMaps[1].Sum())
	if math.Abs(lots.InjectedW-wantInjected) > 1e-9 {
		t.Fatalf("injected %v, want %v", lots.InjectedW, wantInjected)
	}
	if lots.PeakTempK <= none.PeakTempK {
		t.Fatalf("injection must heat the stack: %v vs %v", lots.PeakTempK, none.PeakTempK)
	}
}

func TestSweepMonotoneBudget(t *testing.T) {
	res := result(t)
	prev := -1.0
	for _, alpha := range []float64{0, 0.2, 0.4} {
		r := Smooth(res, alpha)
		if r.InjectedW <= prev {
			t.Fatalf("alpha %v injects %v W, not above %v W: budget must grow with alpha", alpha, r.InjectedW, prev)
		}
		prev = r.InjectedW
	}
}

func TestInjectionMapTargetsCoolBins(t *testing.T) {
	temp := geom.NewGrid(4, 4)
	// Hot top row, cool bottom row.
	for i := 0; i < 4; i++ {
		temp.Set(i, 3, 400)
		temp.Set(i, 0, 300)
		temp.Set(i, 1, 310)
		temp.Set(i, 2, 390)
	}
	// The coolest quarter of the 16 bins is 4 bins.
	m := injectionMap(temp, 1.0)
	if math.Abs(m.Sum()-1.0) > 1e-9 {
		t.Fatalf("budget not conserved: %v", m.Sum())
	}
	// All mass in the coolest row (4 coolest bins are row 0).
	for i := 0; i < 4; i++ {
		if m.At(i, 3) != 0 {
			t.Fatal("injected into the hottest row")
		}
		if m.At(i, 0) <= 0 {
			t.Fatal("coolest row got nothing")
		}
	}
}

func TestInjectionMapZeroBudget(t *testing.T) {
	temp := geom.NewGrid(4, 4)
	m := injectionMap(temp, 0)
	if m.Sum() != 0 {
		t.Fatal("zero budget must inject nothing")
	}
}
