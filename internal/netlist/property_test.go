package netlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomDesign builds a structurally valid random design.
func randomDesign(rng *rand.Rand) *Design {
	n := 2 + rng.Intn(30)
	d := &Design{Name: "rand", OutlineW: 500, OutlineH: 400, Dies: 1 + rng.Intn(3)}
	for i := 0; i < n; i++ {
		kind := Hard
		m := &Module{
			Name: fmt.Sprintf("m%d", i), Kind: kind,
			W: 1 + rng.Float64()*50, H: 1 + rng.Float64()*50,
			Power: rng.Float64(),
		}
		if rng.Intn(2) == 0 {
			m.Kind = Soft
			m.MinAspect, m.MaxAspect = 0.5, 2
		}
		d.Modules = append(d.Modules, m)
	}
	for t := 0; t < rng.Intn(5); t++ {
		d.Terminals = append(d.Terminals, &Terminal{
			Name: fmt.Sprintf("p%d", t), X: 0, Y: rng.Float64() * d.OutlineH,
		})
	}
	nets := 1 + rng.Intn(40)
	for ni := 0; ni < nets; ni++ {
		net := &Net{Name: fmt.Sprintf("n%d", ni)}
		deg := 2 + rng.Intn(4)
		used := map[int]bool{}
		for len(net.Modules) < deg && len(net.Modules) < n {
			mi := rng.Intn(n)
			if !used[mi] {
				used[mi] = true
				net.Modules = append(net.Modules, mi)
			}
		}
		if len(net.Modules) < 2 {
			net.Modules = []int{0, n - 1}
		}
		d.Nets = append(d.Nets, net)
	}
	return d
}

func TestPropertyRandomDesignsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		d := randomDesign(rng)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPropertyCloneEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		d := randomDesign(rng)
		c := d.Clone()
		if c.TotalPower() != d.TotalPower() ||
			c.TotalModuleArea() != d.TotalModuleArea() ||
			len(c.Nets) != len(d.Nets) ||
			len(c.Terminals) != len(d.Terminals) {
			t.Fatal("clone differs from source")
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPropertyDegreeHistogramSums(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		d := randomDesign(rng)
		total := 0
		for _, cnt := range d.DegreeHistogram() {
			total += cnt
		}
		if total != len(d.Nets) {
			t.Fatalf("histogram sums to %d, nets %d", total, len(d.Nets))
		}
	}
}
