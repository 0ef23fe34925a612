package thermal

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// freshFast calibrates cfg's stack afresh, bypassing the table.
func freshFast(cfg Config, workers int) *FastEstimator {
	return newFast(cfg, calibrate(cfg, workers), workers)
}

// TestFastMatchesFreshCalibration: an estimator from the table estimates
// byte for byte what a fresh calibration of the same stack does.
func TestFastMatchesFreshCalibration(t *testing.T) {
	cfg := DefaultConfig(24, 24, 5000, 3000, 2)
	power := []*geom.Grid{
		randomPower(24, 24, 6, rand.New(rand.NewSource(12))),
		randomPower(24, 24, 4, rand.New(rand.NewSource(13))),
	}
	want := freshFast(cfg, 1).Estimate(power)
	got := Fast(cfg, 0).Estimate(power)
	for d := range want {
		for i := range want[d].Data {
			if got[d].Data[i] != want[d].Data[i] {
				t.Fatalf("die %d cell %d: table estimate %v != fresh %v", d, i, got[d].Data[i], want[d].Data[i])
			}
		}
	}
}

// TestFastTableCalibratesOncePerKey: concurrent first requests for one key
// run one calibration and all receive it. CI runs it under -race at
// -cpu 1,4,8.
func TestFastTableCalibratesOncePerKey(t *testing.T) {
	tab := newFastTable(fastTableBound)
	cfg := DefaultConfig(16, 16, 4000, 4000, 2)
	const callers = 8
	got := make([]calibration, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = tab.get(cfg, i%3)
		}()
	}
	close(start)
	wg.Wait()
	if n := tab.calibrations.Load(); n != 1 {
		t.Fatalf("%d concurrent first requests ran %d calibrations, want 1", callers, n)
	}
	for i, c := range got {
		if &c.amp[0][0] != &got[0].amp[0][0] || &c.kernel[0][0][0] != &got[0].kernel[0][0][0] {
			t.Fatalf("caller %d received a calibration of its own", i)
		}
	}
}

// TestFastTableKeyCoversEveryField: changing any single field calibration
// reads, one layer's thickness included, gives a separate entry, and
// asking again for a configuration already held calibrates nothing.
func TestFastTableKeyCoversEveryField(t *testing.T) {
	base := DefaultConfig(8, 8, 4000, 4000, 2)
	layered := func(edit func([]Layer)) Config {
		c := base
		c.Layers = buildLayers(base.Dies)
		edit(c.Layers)
		return c
	}
	variants := map[string]Config{"base": base}
	for name, edit := range map[string]func(*Config){
		"NX":       func(c *Config) { c.NX = 10 },
		"NY":       func(c *Config) { c.NY = 10 },
		"ChipW":    func(c *Config) { c.ChipW = 4500 },
		"ChipH":    func(c *Config) { c.ChipH = 4500 },
		"Dies":     func(c *Config) { c.Dies = 3 },
		"Ambient":  func(c *Config) { c.Ambient = 300 },
		"RSink":    func(c *Config) { c.RSink = 0.2 },
		"RPackage": func(c *Config) { c.RPackage = 4 },
	} {
		c := base
		edit(&c)
		variants[name] = c
	}
	variants["Layers"] = layered(func([]Layer) {})
	variants["Layers thickness"] = layered(func(ls []Layer) { ls[1].Thickness *= 1.5 })

	tab := newFastTable(fastTableBound)
	amps := make(map[*float64]string)
	for name, cfg := range variants {
		before := tab.calibrations.Load()
		c := tab.get(cfg, 1)
		if tab.calibrations.Load() != before+1 {
			t.Fatalf("%s: no calibration of its own", name)
		}
		if other, ok := amps[&c.amp[0][0]]; ok {
			t.Fatalf("%s shares %s's entry", name, other)
		}
		amps[&c.amp[0][0]] = name
	}
	for name, cfg := range variants {
		tab.get(cfg, 4)
		if n := tab.calibrations.Load(); n != int64(len(variants)) {
			t.Fatalf("asking again for %s calibrated again (%d calibrations for %d keys)", name, n, len(variants))
		}
	}
	if n := len(tab.entries); n != len(variants) {
		t.Fatalf("table holds %d entries for %d keys", n, len(variants))
	}
}

// TestFastTableEvictsOldest: after bound + 1 distinct keys the table holds
// exactly its bound; the first key is the one evicted, so asking for it
// again calibrates anew, while the newest is still held.
func TestFastTableEvictsOldest(t *testing.T) {
	tab := newFastTable(fastTableBound)
	key := func(i int) Config {
		c := DefaultConfig(4, 4, 4000, 4000, 2)
		c.Ambient = 290 + float64(i)
		return c
	}
	for i := 0; i <= fastTableBound; i++ {
		tab.get(key(i), 1)
	}
	if n, m := len(tab.entries), len(tab.order); n != fastTableBound || m != fastTableBound {
		t.Fatalf("after %d keys the table holds %d entries (%d in order), want %d", fastTableBound+1, n, m, fastTableBound)
	}
	fills := tab.calibrations.Load()
	tab.get(key(fastTableBound), 1)
	if tab.calibrations.Load() != fills {
		t.Fatal("the newest key was evicted")
	}
	tab.get(key(0), 1)
	if tab.calibrations.Load() != fills+1 {
		t.Fatal("the oldest key was still held")
	}
	if len(tab.entries) != fastTableBound {
		t.Fatalf("refilling the oldest key left %d entries, want %d", len(tab.entries), fastTableBound)
	}
}
