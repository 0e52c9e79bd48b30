package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// listedPackage is what the trust-model checks read of go list -json.
type listedPackage struct {
	ImportPath string
	DepOnly    bool
	Imports    []string
	Deps       []string
}

// listModule runs go list -deps -json ./... and returns every package
// it names, the module's own and its dependencies, by import path.
func listModule(t *testing.T) map[string]listedPackage {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := make(map[string]listedPackage)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs[p.ImportPath] = p
	}
	return pkgs
}

// parseGo parses into fset the Go files under root that keep says to,
// skipping dot directories such as .git.
func parseGo(t *testing.T, fset *token.FileSet, root string, keep func(path string) bool) map[string]*ast.File {
	t.Helper()
	files := make(map[string]*ast.File)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !keep(path) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func nonTest(path string) bool { return !strings.HasSuffix(path, "_test.go") }

// isSelector reports whether e is the qualified identifier pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && sel.Sel.Name == name
}

// identsNamed returns every identifier called name under n.
func identsNamed(n ast.Node, name string) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// TestTrustModel holds the trust model and the code shape that the
// paper's claim rests on to the module as built: what each shipped
// binary links, the testnet's single adversary path, and a single
// challenge derivation.
func TestTrustModel(t *testing.T) {
	pkgs := listModule(t)

	// The store and the slot map it shares with the in-memory engine
	// address blocks by bounds-checked slice conversions, so a bad slot
	// is a panic, never a stray read.
	t.Run("NoUnsafeInStore", func(t *testing.T) {
		for _, path := range []string{"repro/internal/store", "repro/internal/blockfile"} {
			if slices.Contains(pkgs[path].Imports, "unsafe") {
				t.Errorf("%s imports unsafe", path)
			}
		}
	})

	// Every internal package is linked into some cmd/ binary; code only
	// tests reach is dead weight.
	t.Run("EveryInternalPackageShips", func(t *testing.T) {
		shipped := make(map[string]bool)
		for path, p := range pkgs {
			if strings.HasPrefix(path, "repro/cmd/") {
				for _, d := range p.Deps {
					shipped[d] = true
				}
			}
		}
		for path, p := range pkgs {
			if strings.HasPrefix(path, "repro/internal/") && !p.DepOnly && !shipped[path] {
				t.Errorf("no cmd/ binary links %s", path)
			}
		}
	})

	// geoproofd links no sidecar code, so it cannot be handed the master
	// key the segment MACs follow from; the verifier device links neither
	// the sidecar nor the store, it only times rounds and signs.
	t.Run("ProverNeverHoldsOwnerKey", func(t *testing.T) {
		for cmd, banned := range map[string][]string{
			"repro/cmd/geoproofd":    {"repro/internal/meta"},
			"repro/cmd/geoverifierd": {"repro/internal/meta", "repro/internal/store"},
		} {
			if len(pkgs[cmd].Deps) == 0 {
				t.Fatalf("go list named no dependencies of %s", cmd)
			}
			for _, b := range banned {
				if slices.Contains(pkgs[cmd].Deps, b) {
					t.Errorf("%s depends on %s", cmd, b)
				}
			}
		}
	})

	// The testnet's timed rounds and drift pings both cross the
	// scenario's simnet links: it links no bit-level distance-bounding
	// code and no off-network probe model. Every fleet member, in the
	// testnet and in geoverify, is audited through its verifier device
	// with core.DeviceRunner, and no liveness probe runs beside the audits.
	t.Run("TestnetOneAdversaryPath", func(t *testing.T) {
		if slices.Contains(pkgs["repro/internal/testnet"].Deps, "repro/internal/dbound") {
			t.Error("internal/testnet depends on internal/dbound")
		}
		fset := token.NewFileSet()
		for _, f := range parseGo(t, fset, "internal/testnet", func(string) bool { return true }) {
			for _, id := range identsNamed(f, "ProbeModel") {
				t.Errorf("%s: internal/testnet uses geoloc.ProbeModel; drift probes must be pings on the scenario's network", fset.Position(id.Pos()))
			}
		}
		fleet := parseGo(t, fset, "internal/testnet", nonTest)
		for path, f := range parseGo(t, fset, "cmd/geoverify", nonTest) {
			fleet[path] = f
		}
		for _, f := range fleet {
			for _, id := range identsNamed(f, "PoolProbe") {
				t.Errorf("%s: a liveness probe is back; the fleet sees a prover only through its device's audits", fset.Position(id.Pos()))
			}
			// A VerifierServer's runner is the device's own; every other
			// runner handed out here is a fleet member's.
			deviceRunner := func(e ast.Expr) bool {
				lit, ok := e.(*ast.CompositeLit)
				return ok && isSelector(lit.Type, "core", "DeviceRunner")
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if isSelector(n.Type, "core", "VerifierServer") {
						return true
					}
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Runner" && !deviceRunner(kv.Value) {
								t.Errorf("%s: a fleet member is audited with a runner other than core.DeviceRunner", fset.Position(kv.Pos()))
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Runner" && (len(n.Rhs) != len(n.Lhs) || !deviceRunner(n.Rhs[i])) {
							t.Errorf("%s: a fleet member is audited with a runner other than core.DeviceRunner", fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
	})

	// Non-test Go derives challenge indices only in core.DeriveIndices,
	// and por carries no audit protocol of its own.
	t.Run("OneChallengeDerivation", func(t *testing.T) {
		fset := token.NewFileSet()
		for path, f := range parseGo(t, fset, ".", nonTest) {
			for _, d := range f.Decls {
				fn, _ := d.(*ast.FuncDecl)
				top := fn != nil && fn.Recv == nil
				if top && path == "internal/core/core.go" && fn.Name.Name == "DeriveIndices" {
					continue
				}
				for _, id := range identsNamed(d, "ChallengeIndices") {
					if !(top && id == fn.Name) { // the definition is not a use
						t.Errorf("%s: crypt.ChallengeIndices used outside core.DeriveIndices", fset.Position(id.Pos()))
					}
				}
			}
		}
		for path, f := range parseGo(t, fset, "internal/por", nonTest) {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, s := range gd.Specs {
					if name := s.(*ast.TypeSpec).Name.Name; name == "Challenge" || name == "Response" || name == "Store" {
						t.Errorf("%s: internal/por declares type %s, a standalone audit type", path, name)
					}
				}
			}
		}
	})
}
