package core

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestAddEvalStatsSumsEveryCounter gives every int field of two EvalStats,
// the embedded RunStats' included, a distinct value and checks that the
// merge sums each of them, keeps the larger cross-check drift and adds the
// changed-set histograms bucket-wise — so a counter added later merges
// without being listed anywhere.
func TestAddEvalStatsSumsEveryCounter(t *testing.T) {
	next := int64(1)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := range v.NumField() {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int:
				f.SetInt(next)
				next++
			case reflect.Struct:
				fill(f)
			}
		}
	}
	var dst, src EvalStats
	fill(reflect.ValueOf(&dst).Elem())
	fill(reflect.ValueOf(&src).Elem())
	dst.MaxCrossCheckError, src.MaxCrossCheckError = 0.25, 0.5
	dst.PackChangedHist = []int{1, 2}
	src.PackChangedHist = []int{10, 20, 30}
	before := dst
	before.PackChangedHist = slices.Clone(dst.PackChangedHist)

	addEvalStats(&dst, &src)

	checked := 0
	var check func(path string, got, a, b reflect.Value)
	check = func(path string, got, a, b reflect.Value) {
		for i := range got.NumField() {
			name := path + got.Type().Field(i).Name
			switch f := got.Field(i); f.Kind() {
			case reflect.Int:
				if want := a.Field(i).Int() + b.Field(i).Int(); f.Int() != want {
					t.Errorf("%s = %d, want %d", name, f.Int(), want)
				}
				checked++
			case reflect.Struct:
				check(name+".", f, a.Field(i), b.Field(i))
			}
		}
	}
	check("", reflect.ValueOf(dst), reflect.ValueOf(before), reflect.ValueOf(src))
	if checked != int(next-1)/2 {
		t.Fatalf("checked %d int fields, filled %d per side", checked, (next-1)/2)
	}
	if dst.Evals != before.Evals+src.Evals || dst.AdjBulkFallbacks != before.AdjBulkFallbacks+src.AdjBulkFallbacks {
		t.Fatal("embedded or trailing counters not summed")
	}
	if dst.MaxCrossCheckError != 0.5 {
		t.Fatalf("drift %v, want the max 0.5", dst.MaxCrossCheckError)
	}
	if want := []int{11, 22, 30}; !slices.Equal(dst.PackChangedHist, want) {
		t.Fatalf("histogram %v, want %v", dst.PackChangedHist, want)
	}

	var fresh EvalStats
	addEvalStats(&fresh, &src)
	fresh.PackChangedHist[0]++
	if src.PackChangedHist[0] != 10 {
		t.Fatal("merging into a nil histogram aliased the source's")
	}
}

// TestRunStatsKeysDocumented pins docs/ARCHITECTURE.md's "Result.Stats keys"
// table to RunStats: the same wire keys and fields, in declaration order,
// which is the order a Result encodes them in.
func TestRunStatsKeysDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Result.Stats keys\n")
	if !ok {
		t.Fatal(`docs/ARCHITECTURE.md has no "## Result.Stats keys" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var docRows []string
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		docRows = append(docRows, strings.Trim(cells[1], " `")+" "+strings.Trim(cells[2], " `"))
	}
	var want []string
	rt := reflect.TypeOf(RunStats{})
	for i := range rt.NumField() {
		key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		want = append(want, key+" "+rt.Field(i).Name)
	}
	if !slices.Equal(docRows, want) {
		t.Fatalf("docs/ARCHITECTURE.md stats table (key field):\n%s\nRunStats declares:\n%s",
			strings.Join(docRows, "\n"), strings.Join(want, "\n"))
	}
}
