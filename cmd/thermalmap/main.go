// Command thermalmap reproduces the paper's exploratory study (Sec. 3 /
// Figure 2): all 30 combinations of 5 power-density scenarios and 6 TSV
// distributions on a two-die stack, reporting the power-temperature Pearson
// correlation per die for each combination, plus the trend summaries the
// paper derives from them.
//
// Each combination is drawn three times, draw k from its own stream
// rand.NewSource(seed+k), and the table prints the mean r of the draws.
// With -dump DIR, each combination's power and thermal maps of draw 0 are
// written as CSV files (one value row per grid row) for external plotting.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/activity"
	"repro/internal/geom"
	"repro/internal/leakage"
	"repro/internal/thermal"
	"repro/internal/tsv"
	"repro/internal/version"
)

// draws is the number of random draws averaged per combination.
const draws = 3

// cell is one combination's mean correlation over the draws, per die.
type cell struct{ rBottom, rTop float64 }

// table holds every (power pattern, TSV pattern) combination's cell.
type table map[activity.PowerPattern]map[tsv.Pattern]cell

func main() {
	log.SetFlags(0)
	log.SetPrefix("thermalmap: ")
	var (
		grid        = flag.Int("grid", 32, "grid resolution per axis")
		sizeU       = flag.Float64("die", 4000, "die edge length in um")
		power       = flag.Float64("power", 4.0, "power budget per die in W")
		seed        = flag.Int64("seed", 1, "base random seed (draw k uses seed+k)")
		dump        = flag.String("dump", "", "directory to write CSV maps into (optional)")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println("thermalmap " + version.String())
		return
	}

	tab, err := explore(*grid, *sizeU, *power, *seed, *dump)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean r over seeds %d..%d\n", *seed, *seed+draws-1)
	fmt.Printf("%-20s %-20s %10s %10s\n", "power pattern", "TSV pattern", "r bottom", "r top")
	for _, pp := range activity.AllPowerPatterns() {
		for _, tp := range tsv.AllPatterns() {
			c := tab[pp][tp]
			fmt.Printf("%-20s %-20s %10.3f %10.3f\n", pp, tp, c.rBottom, c.rTop)
		}
	}

	fmt.Println("\ntrends (bottom die), mean r over non-uniform power, lowest first:")
	order := tsv.AllPatterns()
	sort.SliceStable(order, func(a, b int) bool {
		return tab.nonUniformMean(order[a]) < tab.nonUniformMean(order[b])
	})
	for _, tp := range order {
		fmt.Printf("  %-20s %7.3f\n", tp, tab.nonUniformMean(tp))
	}
	above, rows := 0, 0
	for _, pp := range activity.AllPowerPatterns() {
		if pp == activity.GloballyUniform {
			continue
		}
		rows++
		if tab[pp][tsv.PatternIslandsPlusRegular].rBottom > tab[pp][tsv.PatternIslands].rBottom {
			above++
		}
	}
	fmt.Printf("  islands+regular above islands in %d of %d non-uniform power rows\n", above, rows)
}

// explore solves every combination at an n x n grid on dies of dieUM um
// with powerW W per die, averaging each over draws seed..seed+draws-1.
// A non-empty dump directory receives draw 0's maps.
func explore(n int, dieUM, powerW float64, seed int64, dump string) (table, error) {
	tab := table{}
	for _, pp := range activity.AllPowerPatterns() {
		tab[pp] = map[tsv.Pattern]cell{}
		for _, tp := range tsv.AllPatterns() {
			var sum cell
			for k := int64(0); k < draws; k++ {
				rng := rand.New(rand.NewSource(seed + k))
				p0 := activity.GeneratePowerMap(pp, n, n, powerW, rng)
				p1 := activity.GeneratePowerMap(pp, n, n, powerW, rng)
				plan := tsv.GeneratePattern(tp, dieUM, dieUM, rng)
				stack := thermal.NewStack(thermal.DefaultConfig(n, n, dieUM, dieUM, 2))
				stack.SetDiePower(0, p0)
				stack.SetDiePower(1, p1)
				if len(plan.TSVs) > 0 {
					stack.SetTSVMap(plan.CuFractionMap(n, n))
				}
				sol, st := stack.SolveSteady(nil, thermal.SolverOpts{})
				if !st.Converged {
					return nil, fmt.Errorf("%v/%v seed %d: thermal solve did not converge", pp, tp, seed+k)
				}
				t0, t1 := sol.DieTemp(0), sol.DieTemp(1)
				sum.rBottom += leakage.Pearson(p0, t0)
				sum.rTop += leakage.Pearson(p1, t1)
				if dump != "" && k == 0 {
					base := filepath.Join(dump, strings.NewReplacer("+", "_", " ", "_").Replace(pp.String()+"_"+tp.String()))
					suffixes := []string{"_power0.csv", "_temp0.csv", "_power1.csv", "_temp1.csv"}
					for i, g := range []*geom.Grid{p0, t0, p1, t1} {
						if err := writeCSV(base+suffixes[i], g); err != nil {
							return nil, err
						}
					}
				}
			}
			tab[pp][tp] = cell{sum.rBottom / draws, sum.rTop / draws}
		}
	}
	return tab, nil
}

// nonUniformMean averages the bottom die's r of TSV pattern tp over the
// power patterns other than globally-uniform, whose r is identically 0.
func (tab table) nonUniformMean(tp tsv.Pattern) float64 {
	s, c := 0.0, 0
	for _, pp := range activity.AllPowerPatterns() {
		if pp == activity.GloballyUniform {
			continue
		}
		s += tab[pp][tp].rBottom
		c++
	}
	return s / float64(c)
}

func writeCSV(path string, g *geom.Grid) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b strings.Builder
	for j := 0; j < g.NY; j++ {
		for i := 0; i < g.NX; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.6g", g.At(i, j))
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
