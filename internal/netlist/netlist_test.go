package netlist

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func smallDesign() *Design {
	return &Design{
		Name: "t",
		Modules: []*Module{
			{Name: "a", Kind: Hard, W: 10, H: 20, Power: 0.5},
			{Name: "b", Kind: Soft, W: 10, H: 10, MinAspect: 0.5, MaxAspect: 2, Power: 0.25},
			{Name: "c", Kind: Soft, W: 20, H: 5, MinAspect: 0.25, MaxAspect: 4, Power: 1.0},
		},
		Nets: []*Net{
			{Name: "n0", Modules: []int{0, 1}},
			{Name: "n1", Modules: []int{0, 1, 2}},
			{Name: "n2", Modules: []int{2}, Terminals: []int{0}},
		},
		Terminals: []*Terminal{{Name: "p0", X: 0, Y: 15}},
		OutlineW:  100, OutlineH: 100, Dies: 2,
	}
}

func TestValidateOK(t *testing.T) {
	if err := smallDesign().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	d := smallDesign()
	d.Modules[1].Name = "a"
	if err := d.Validate(); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestValidateCatchesBadOutline(t *testing.T) {
	d := smallDesign()
	d.OutlineW = 0
	if err := d.Validate(); err == nil {
		t.Fatal("expected outline error")
	}
}

func TestValidateCatchesDanglingNet(t *testing.T) {
	d := smallDesign()
	d.Nets[0].Modules = []int{7, 1}
	if err := d.Validate(); err == nil {
		t.Fatal("expected out-of-range module reference error")
	}
}

func TestValidateCatchesLowDegreeNet(t *testing.T) {
	d := smallDesign()
	d.Nets[0].Modules = []int{0}
	if err := d.Validate(); err == nil {
		t.Fatal("expected degree error")
	}
}

func TestValidateCatchesOffBoundaryTerminal(t *testing.T) {
	d := smallDesign()
	d.Terminals[0].X, d.Terminals[0].Y = 50, 50
	if err := d.Validate(); err == nil {
		t.Fatal("expected terminal placement error")
	}
}

func TestModuleAreaAndDensity(t *testing.T) {
	m := &Module{Name: "x", W: 10, H: 20, Power: 2}
	if m.Area() != 200 {
		t.Fatal("area")
	}
	if m.PowerDensity() != 0.01 {
		t.Fatal("density")
	}
}

func TestDesignAggregates(t *testing.T) {
	d := smallDesign()
	if math.Abs(d.TotalPower()-1.75) > 1e-12 {
		t.Fatalf("power %v", d.TotalPower())
	}
	if d.TotalModuleArea() != 200+100+100 {
		t.Fatalf("area %v", d.TotalModuleArea())
	}
	if d.OutlineArea() != 20000 {
		t.Fatalf("outline area %v", d.OutlineArea())
	}
	if math.Abs(d.Utilization()-0.02) > 1e-12 {
		t.Fatalf("utilization %v", d.Utilization())
	}
	if d.HardCount() != 1 || d.SoftCount() != 2 {
		t.Fatal("hard/soft counts")
	}
}

func TestDegreeHistogram(t *testing.T) {
	d := smallDesign()
	h := d.DegreeHistogram()
	if h[2] != 2 || h[3] != 1 {
		t.Fatalf("got %v", h)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := smallDesign()
	c := d.Clone()
	c.Modules[0].W = 999
	c.Nets[0].Modules[0] = 2
	c.Terminals[0].X = 100
	if d.Modules[0].W == 999 || d.Nets[0].Modules[0] == 2 || d.Terminals[0].X == 100 {
		t.Fatal("clone aliases source")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsNonFinite checks every float field Validate guards
// rejects NaN and ±Inf: a plain `v <= 0` check passes NaN, since every
// comparison with NaN is false. Module power is also bounded above, since a
// huge finite power overflows the leakage metrics.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		set  func(d *Design)
	}{
		{"outline W NaN", func(d *Design) { d.OutlineW = nan }},
		{"outline H +Inf", func(d *Design) { d.OutlineH = inf }},
		{"module W NaN", func(d *Design) { d.Modules[0].W = nan }},
		{"module H +Inf", func(d *Design) { d.Modules[0].H = inf }},
		{"power NaN", func(d *Design) { d.Modules[1].Power = nan }},
		{"power +Inf", func(d *Design) { d.Modules[1].Power = inf }},
		{"power above bound", func(d *Design) { d.Modules[1].Power = 1e7 }},
		{"intrinsic delay NaN", func(d *Design) { d.Modules[2].IntrinsicDelay = nan }},
		{"intrinsic delay -Inf", func(d *Design) { d.Modules[2].IntrinsicDelay = -inf }},
		{"soft min aspect NaN", func(d *Design) { d.Modules[1].MinAspect = nan }},
		{"soft max aspect +Inf", func(d *Design) { d.Modules[1].MaxAspect = inf }},
		{"hard aspect NaN", func(d *Design) { d.Modules[0].MaxAspect = nan }},
	} {
		d := smallDesign()
		tc.set(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: accepted by Validate", tc.name)
		}
	}
}

// TestValidatePowerBound: a module power exactly at the bound passes, one
// above it fails with an error naming the module and the bound.
func TestValidatePowerBound(t *testing.T) {
	d := smallDesign()
	d.Modules[1].Power = maxModulePower
	if err := d.Validate(); err != nil {
		t.Fatalf("power at the bound rejected: %v", err)
	}
	d.Modules[1].Power = math.Nextafter(maxModulePower, math.Inf(1))
	err := d.Validate()
	if err == nil {
		t.Fatal("power above the bound accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", d.Modules[1].Name)) || !strings.Contains(msg, "1e+06 W") {
		t.Fatalf("error %q does not name the module and the bound", msg)
	}
}

// TestValidateLengthAndDelayBounds: the outline, each module side, the
// intrinsic delay and the die count pass at their bounds and fail just past
// them, with an error naming the module (or the outline, or the dies) and
// the bounds. A negative delay fails too: the timing model would report a
// zero critical delay for it.
func TestValidateLengthAndDelayBounds(t *testing.T) {
	above := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	below := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	for _, tc := range []struct {
		name      string
		set       func(d *Design, v float64)
		bound     float64
		past      float64
		wantParts []string
	}{
		{"outline W max", func(d *Design, v float64) { d.OutlineW = v }, maxLength, above(maxLength), []string{"outline", "1e+06] µm"}},
		{"outline H max", func(d *Design, v float64) { d.OutlineH = v }, maxLength, above(maxLength), []string{"outline", "1e+06] µm"}},
		{"module W max", func(d *Design, v float64) { d.Modules[0].W = v }, maxLength, above(maxLength), []string{`"a"`, "1e+06] µm"}},
		{"module H max", func(d *Design, v float64) { d.Modules[1].H = v }, maxLength, above(maxLength), []string{`"b"`, "1e+06] µm"}},
		{"module W min", func(d *Design, v float64) { d.Modules[2].W = v }, minLength, below(minLength), []string{`"c"`, "[0.001, 1e+06] µm"}},
		{"delay max", func(d *Design, v float64) { d.Modules[2].IntrinsicDelay = v }, maxIntrinsicDelay, above(maxIntrinsicDelay), []string{`"c"`, "1e+06] ns"}},
		{"delay min", func(d *Design, v float64) { d.Modules[2].IntrinsicDelay = v }, 0, -5, []string{`"c"`, "[0, 1e+06] ns"}},
		{"dies max", func(d *Design, v float64) { d.Dies = int(v) }, maxDies, maxDies + 1, []string{"dies 9", "[1, 8]"}},
		{"dies min", func(d *Design, v float64) { d.Dies = int(v) }, 1, 0, []string{"dies 0", "[1, 8]"}},
	} {
		d := smallDesign()
		tc.set(d, tc.bound)
		if err := d.Validate(); err != nil {
			t.Errorf("%s at the bound %g rejected: %v", tc.name, tc.bound, err)
		}
		tc.set(d, tc.past)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s %g past the bound accepted", tc.name, tc.past)
			continue
		}
		for _, part := range tc.wantParts {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, part)
			}
		}
	}
}

// TestValidateRejectsNilEntries: a nil module, net or terminal is an error
// naming its index, never a panic. JSON decodes a null list entry to nil.
func TestValidateRejectsNilEntries(t *testing.T) {
	for _, tc := range []struct {
		want string
		set  func(d *Design)
	}{
		{"nil module at index 1", func(d *Design) { d.Modules[1] = nil }},
		{"nil net at index 2", func(d *Design) { d.Nets[2] = nil }},
		{"nil terminal at index 1", func(d *Design) { d.Terminals = append(d.Terminals, nil) }},
	} {
		d := smallDesign()
		tc.set(d)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate = %v, want an error containing %q", err, tc.want)
		}
	}
}

// TestDesignJSON: a design encodes in the wire schema, kinds spelled
// "hard"/"soft" and empty optional fields left out, and decodes back to an
// equal design. An absent or empty kind decodes as soft, an unknown kind is
// an error naming the module, and a kind outside Hard/Soft does not encode.
func TestDesignJSON(t *testing.T) {
	d := smallDesign()
	d.Modules[2].Sensitive = true
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{
		`{"name":"t","dies":2,"outline_w_um":100,"outline_h_um":100,"modules":[`,
		`{"name":"a","kind":"hard","w_um":10,"h_um":20,"power_w":0.5,"intrinsic_delay_ns":0}`,
		`"min_aspect":0.25,"max_aspect":4,"power_w":1,"intrinsic_delay_ns":0,"sensitive":true}`,
		`{"name":"n2","modules":[2],"terminals":[0]}],"terminals":[{"name":"p0","x_um":0,"y_um":15}]}`,
	} {
		if !strings.Contains(string(data), part) {
			t.Errorf("encoding %s lacks %s", data, part)
		}
	}
	var back Design
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, d) {
		t.Errorf("decoded %+v, want %+v", back, d)
	}

	for _, tc := range []struct {
		doc  string
		want ModuleKind
	}{
		{`{"name":"m"}`, Soft},
		{`{"name":"m","kind":""}`, Soft},
		{`{"name":"m","kind":null}`, Soft},
		{`{"name":"m","kind":"soft"}`, Soft},
		{`{"name":"m","kind":"hard"}`, Hard},
	} {
		var m Module
		if err := json.Unmarshal([]byte(tc.doc), &m); err != nil || m.Kind != tc.want {
			t.Errorf("%s decoded to kind %v (error %v), want %v", tc.doc, m.Kind, err, tc.want)
		}
	}
	for _, doc := range []string{`{"name":"m","kind":"gaseous"}`, `{"name":"m","kind":1}`} {
		var m Module
		if err := json.Unmarshal([]byte(doc), &m); err == nil || !strings.Contains(err.Error(), `module "m"`) {
			t.Errorf("%s: error %v, want one naming module \"m\"", doc, err)
		}
	}
	if _, err := json.Marshal(&Module{Name: "m", Kind: ModuleKind(7)}); err == nil {
		t.Error("kind 7 encoded")
	}
}

// TestDecodeStrict: DecodeStrict decodes what json.Unmarshal does, but an
// unknown key, on a module decoded alone as on one inside a design, and
// data after the value are errors.
func TestDecodeStrict(t *testing.T) {
	var m Module
	if err := DecodeStrict([]byte(` {"name":"m","power_w":2} `), &m); err != nil || m.Power != 2 || m.Kind != Soft {
		t.Fatalf("decoded %+v (error %v), want a 2 W soft module", m, err)
	}
	for doc, want := range map[string]string{
		`{"name":"m","power":2}`: `module "m": json: unknown field "power"`,
		`{"name":"m"} {}`:        "after the top-level value",
		`{"name":"m"`:            "unexpected EOF",
	} {
		var m Module
		if err := m.UnmarshalJSON([]byte(doc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", doc, err, want)
		}
	}
	var d Design
	err := json.Unmarshal([]byte(`{"name":"d","modules":[{"name":"m","powr_w":1}]}`), &d)
	if err == nil || !strings.Contains(err.Error(), `unknown field "powr_w"`) {
		t.Errorf("module key inside a design: error %v, want one naming powr_w", err)
	}
}
