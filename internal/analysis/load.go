package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed and type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Info    *types.Info

	directives map[string][]directive // filename -> //repolint: comments
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go command (run in dir), parses each
// matched package's non-test sources and type-checks them against the
// compiled export data of their dependencies. It is the x/tools-free
// equivalent of go/packages.Load in LoadAllSyntax mode, restricted to what
// the analyzers need: syntax, types and type info for the target packages,
// export data only for dependencies.
//
// Only GoFiles are loaded, so test files and test-only packages are invisible
// to the analyzers by construction — the determinism rules apply to non-test
// code only.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, errb.String())
	}

	exports := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(&out)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			p := lp
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(e)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg := &Package{
			PkgPath:    t.ImportPath,
			Fset:       fset,
			directives: map[string][]directive{},
		}
		for _, name := range t.GoFiles {
			path := filepath.Join(t.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("analysis: parse %s: %v", path, err)
			}
			pkg.Files = append(pkg.Files, f)
			pkg.directives[path] = parseDirectives(fset, f)
		}
		pkg.Info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(t.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("analysis: type-check %s: %v", t.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
