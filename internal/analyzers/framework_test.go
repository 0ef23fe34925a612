package analyzers

import (
	"os"
	"path/filepath"
	"testing"
)

func TestAllAnalyzersNamedAndDocumented(t *testing.T) {
	suite := All()
	if len(suite) != 5 {
		t.Fatalf("suite has %d analyzers, want 5", len(suite))
	}
	seen := map[string]bool{}
	for _, a := range suite {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestLoadRejectsBadPattern(t *testing.T) {
	if _, err := Load(t.TempDir(), "./..."); err == nil {
		t.Fatal("Load of an empty directory succeeded, want error (no go.mod)")
	}
}

func TestRunStableDiagnosticOrder(t *testing.T) {
	// A synthetic analyzer that reports in scrambled order must come out
	// sorted by position: CI output and golden comparisons rely on it.
	scrambled := &Analyzer{
		Name: "scrambled",
		Doc:  "test analyzer",
		Run: func(p *Pass) error {
			f := p.Files[0]
			p.Reportf(f.End()-1, "nosuchkey", "late")
			p.Reportf(f.Pos(), "nosuchkey", "early")
			return nil
		},
	}
	dir := t.TempDir()
	writeFixtureModule(t, dir, map[string]string{
		"p/p.go": "package p\n\nfunc F() {}\n",
	})
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Analyzer{scrambled}, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
	if diags[0].Message != "early" || diags[1].Message != "late" {
		t.Errorf("diagnostics not position-sorted: %+v", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "scrambled" {
			t.Errorf("diagnostic analyzer = %q, want scrambled", d.Analyzer)
		}
		if !d.Pos.IsValid() {
			t.Errorf("invalid position on %+v", d)
		}
	}
}

func TestPkgPathMatching(t *testing.T) {
	if !pkgPathMatches("repro/internal/core", "internal/core") {
		t.Error("suffix match failed")
	}
	if pkgPathMatches("repro/internal/coreutils", "internal/core") {
		t.Error("matched a non-boundary suffix")
	}
	if !pkgPathMatches("tscfp", "tscfp") {
		t.Error("exact match failed")
	}
}

// writeFixtureModule materializes a throwaway module for loader tests.
func writeFixtureModule(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	files["go.mod"] = "module fixture\n\ngo 1.24\n"
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}
