package bench

import (
	"math"
	"testing"

	"repro/internal/netlist"
)

func TestTable1SpecsComplete(t *testing.T) {
	specs := Table1()
	if len(specs) != 6 {
		t.Fatalf("want 6 benchmarks, got %d", len(specs))
	}
	wantNames := []string{"n100", "n200", "n300", "ibm01", "ibm03", "ibm07"}
	for i, s := range specs {
		if s.Name != wantNames[i] {
			t.Errorf("spec %d: name %q want %q", i, s.Name, wantNames[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("ibm03")
	if err != nil {
		t.Fatal(err)
	}
	if s.Nets != 10279 {
		t.Fatalf("ibm03 nets = %d", s.Nets)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestTable1Properties verifies that every generated benchmark matches its
// Table 1 row: module counts and mix, net count, terminal count, outline,
// and 1.0 V power budget.
func TestTable1Properties(t *testing.T) {
	for _, spec := range Table1() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(d.Modules); got != spec.HardModules+spec.SoftModules {
				t.Errorf("modules = %d, want %d", got, spec.HardModules+spec.SoftModules)
			}
			if got := d.HardCount(); got != spec.HardModules {
				t.Errorf("hard = %d, want %d", got, spec.HardModules)
			}
			if got := d.SoftCount(); got != spec.SoftModules {
				t.Errorf("soft = %d, want %d", got, spec.SoftModules)
			}
			if got := len(d.Nets); got != spec.Nets {
				t.Errorf("nets = %d, want %d", got, spec.Nets)
			}
			if got := len(d.Terminals); got != spec.Terminals {
				t.Errorf("terminals = %d, want %d", got, spec.Terminals)
			}
			outlineMM2 := d.OutlineW * d.OutlineH / 1e6
			if math.Abs(outlineMM2-spec.OutlineMM2) > 1e-6*spec.OutlineMM2 {
				t.Errorf("outline = %v mm^2, want %v", outlineMM2, spec.OutlineMM2)
			}
			if p := d.TotalPower(); math.Abs(p-spec.PowerW) > 1e-9*spec.PowerW {
				t.Errorf("power = %v W, want %v", p, spec.PowerW)
			}
			if d.Dies != 2 {
				t.Errorf("dies = %d, want 2", d.Dies)
			}
			if err := d.Validate(); err != nil {
				t.Errorf("generated design invalid: %v", err)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("n100")
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Modules {
		if *a.Modules[i] != *b.Modules[i] {
			t.Fatalf("module %d differs between runs", i)
		}
	}
	for i := range a.Nets {
		if len(a.Nets[i].Modules) != len(b.Nets[i].Modules) {
			t.Fatalf("net %d differs", i)
		}
		for j := range a.Nets[i].Modules {
			if a.Nets[i].Modules[j] != b.Nets[i].Modules[j] {
				t.Fatalf("net %d pin %d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	spec, _ := ByName("n100")
	a, _ := Generate(spec)
	spec.Seed = 999
	b, _ := Generate(spec)
	same := true
	for i := range a.Modules {
		if a.Modules[i].W != b.Modules[i].W {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should produce different module geometry")
	}
}

func TestUtilizationInTargetBand(t *testing.T) {
	for _, spec := range Table1() {
		d, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		u := d.Utilization()
		if math.Abs(u-DefaultUtilization) > 1e-6 {
			t.Errorf("%s: utilization %v, want %v", spec.Name, u, DefaultUtilization)
		}
	}
}

func TestSensitiveModulesPresent(t *testing.T) {
	d := MustGenerate("n100")
	n := 0
	for _, m := range d.Modules {
		if m.Sensitive {
			n++
		}
	}
	if n != 5 { // 5% of 100
		t.Fatalf("sensitive modules = %d, want 5", n)
	}
}

func TestNetDegreesValid(t *testing.T) {
	d := MustGenerate("ibm01")
	for _, n := range d.Nets {
		if n.Degree() < 2 {
			t.Fatalf("net %s degree %d", n.Name, n.Degree())
		}
		seen := map[int]bool{}
		for _, mi := range n.Modules {
			if seen[mi] {
				t.Fatalf("net %s has duplicate pin on module %d", n.Name, mi)
			}
			seen[mi] = true
		}
	}
}

func TestHardModulesFixedAspect(t *testing.T) {
	d := MustGenerate("ibm01")
	for _, m := range d.Modules {
		if m.Kind == netlist.Hard && m.MinAspect != m.MaxAspect {
			t.Fatalf("hard module %s has flexible aspect", m.Name)
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Name: "x", SoftModules: 0, HardModules: 0, Nets: 10, OutlineMM2: 1, PowerW: 1},
		{Name: "x", SoftModules: 5, Nets: 0, OutlineMM2: 1, PowerW: 1},
		{Name: "x", SoftModules: 5, Nets: 10, OutlineMM2: 0, PowerW: 1},
		{Name: "x", SoftModules: 5, Nets: 10, OutlineMM2: 1, PowerW: 0},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d should be rejected", i)
		}
	}
}

func TestModuleDelaysPositive(t *testing.T) {
	d := MustGenerate("n300")
	for _, m := range d.Modules {
		if m.IntrinsicDelay <= 0 {
			t.Fatalf("module %s has non-positive delay", m.Name)
		}
		if m.IntrinsicDelay > 5 {
			t.Fatalf("module %s delay %v ns implausibly large", m.Name, m.IntrinsicDelay)
		}
	}
}

func TestPowerDensitySpread(t *testing.T) {
	d := MustGenerate("n100")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range d.Modules {
		pd := m.PowerDensity()
		if pd < lo {
			lo = pd
		}
		if pd > hi {
			hi = pd
		}
	}
	if hi/lo < 3 {
		t.Fatalf("power densities too uniform: spread %v", hi/lo)
	}
}

// BenchmarkGenerate times one synthesis of ibm01, the largest design the
// benchmark workloads synthesize, and counts its allocations.
func BenchmarkGenerate(b *testing.B) {
	spec, err := ByName("ibm01")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
