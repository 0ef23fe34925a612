// Command tscfplint runs the repo's custom static-analysis suite
// (internal/analyzers): determinism, journalpair, floatcompare, ctxflow,
// and errsink — the machine-checked form of the invariants the golden,
// fuzz, and equivalence suites otherwise only catch after the fact.
//
// Usage (scripts/lint.sh runs the first form as the gate):
//
//	tscfplint ./...
//	tscfplint -run determinism,errsink ./internal/server
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tscfplint", flag.ContinueOnError)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		//lint:besteffort usage text to the flag set's stream; nothing to do about a failed write here
		fmt.Fprintf(fs.Output(), "usage: tscfplint [-run a,b] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runList != "" {
		suite = filterAnalyzers(suite, *runList)
		if len(suite) == 0 {
			fmt.Fprintf(os.Stderr, "tscfplint: no analyzer matches -run=%s\n", *runList)
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analyzers.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tscfplint: %v\n", err)
		return 2
	}
	diags, err := analyzers.Run(suite, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tscfplint: %v\n", err)
		return 2
	}
	if *jsonOut {
		if diags == nil {
			diags = []analyzers.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "tscfplint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "tscfplint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

func filterAnalyzers(suite []*analyzers.Analyzer, runList string) []*analyzers.Analyzer {
	want := map[string]bool{}
	for _, name := range strings.Split(runList, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []*analyzers.Analyzer
	for _, a := range suite {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
