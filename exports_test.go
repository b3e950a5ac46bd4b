package repro

// exports_test.go guards against exported internal/ API that only tests
// reach. It type-checks the non-test packages of the root module and of
// the nested perfbench module (as `go list` selects them, so build tags
// hold) and fails on any exported declaration under internal/ that no
// non-test file uses outside the declaration itself. What stays on
// purpose is listed in testOnlyAllowed with its reason.

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
	"runtime"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed holds the exported internal/ declarations that no
// non-test file uses but that stay, keyed as the scan prints them. An
// entry ending in ".*" covers every declaration under that prefix.
var testOnlyAllowed = map[string]string{
	"internal/bench.MultiTenantSweep": "test infrastructure: the multi-tenant sweep the chaos tests drive",
	"internal/bench.OverloadSweep":    "test infrastructure: the overload sweep the chaos tests drive",
	"internal/bench.ParallelSweep":    "test infrastructure: the worker-scaling sweep its tests drive",
	"internal/bench.ServiceSweep":     "test infrastructure: the HTTP service sweep its tests drive",
	"internal/bench.RenderOverload":   "test infrastructure: renders OverloadSweep for the test log",
	"internal/bench.RenderParallel":   "test infrastructure: renders ParallelSweep for the test log",
	"internal/bench.RenderTenants":    "test infrastructure: renders MultiTenantSweep for the test log",
	"internal/bench.TenantShared":     "names the zero TenantMode of the multi-tenant sweep",

	"internal/evaluator.OverloadError.Is":  "interface method: errors.Is calls it",
	"internal/simpool.UnavailableError.Is": "interface method: errors.Is calls it",

	"internal/store.Store.Versions": "counts stored versions, superseded overwrites included; the coalescing tests assert one insert with it",
	"internal/store.Store.NearestK": "allocating wrapper over NearestKInto, the readable form of the query",
	"internal/store.Snapshot.*":     "allocating query wrappers over the Snapshot *Into forms, and its Len/Entries views",
	"internal/kriging.L2Distance":   "the Euclidean kriging distance, planned as the default (ROADMAP item 1)",

	"internal/raceflag.Enabled":    "test infrastructure: lets allocation gates skip under -race",
	"internal/store/wal/faultfs.*": "test infrastructure: the fault-injecting filesystem of the WAL crash tests",
}

// allowed returns the allowlist entry covering key, or "".
func allowed(key string) string {
	for entry := range testOnlyAllowed {
		if entry == key || strings.HasSuffix(entry, ".*") && strings.HasPrefix(key, strings.TrimSuffix(entry, "*")) {
			return entry
		}
	}
	return ""
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// declSpan is where an exported declaration's source lies; a use inside
// it (recursion, a method's own receiver) does not count.
type declSpan struct {
	file       string
	start, end int
}

// exportScan accumulates declarations and uses across both modules.
type exportScan struct {
	decls map[string]declSpan
	used  map[string]bool
}

func TestNoTestOnlyExports(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	s := &exportScan{decls: map[string]declSpan{}, used: map[string]bool{}}
	for _, dir := range []string{".", "perfbench"} {
		if err := s.scanModule(goBin, dir); err != nil {
			t.Fatalf("scan %s: %v", dir, err)
		}
	}
	var unused []string
	for key := range s.decls {
		if !s.used[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	covering := map[string]bool{}
	for _, key := range unused {
		entry := allowed(key)
		if entry == "" {
			t.Errorf("%s is exported from internal/ but only tests use it: delete it, or allowlist it with a reason", key)
		}
		covering[entry] = true
	}
	for entry := range testOnlyAllowed {
		if !covering[entry] {
			t.Errorf("allowlist entry %s covers no test-only declaration; drop it", entry)
		}
	}
}

// scanModule type-checks the module rooted at dir from source, with
// export data for everything outside the repro modules.
func (s *exportScan) scanModule(goBin, dir string) error {
	cmd := exec.Command(goBin, "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	// The interfaces non-test code names or calls through, and
	// fmt.Stringer, which fmt calls implicitly.
	var ifaces []*types.Interface
	if fmtPkg, err := gc.Import("fmt"); err == nil {
		ifaces = append(ifaces, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
	}
	var methods []*types.Func
	uses := map[string][]token.Position{}
	// go list -deps lists every package after its dependencies.
	for _, p := range pkgs {
		if p.Module == nil || (p.Module.Path != "repro" && !strings.HasPrefix(p.Module.Path, "repro/")) {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			methods = append(methods, s.collectDecls(fset, files, info)...)
		}
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
				if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaces = append(ifaces, recv.Type().Underlying().(*types.Interface))
				}
			case *types.TypeName:
				if iface, ok := o.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
			if key := objectKey(obj); key != "" {
				uses[key] = append(uses[key], fset.Position(id.Pos()))
			}
		}
	}
	for key, span := range s.decls {
		for _, pos := range uses[key] {
			if pos.Filename != span.file || pos.Offset < span.start || pos.Offset >= span.end {
				s.used[key] = true
				break
			}
		}
	}
	// A method that an interface in use requires is used: deleting it
	// would mean changing the interface.
	for _, m := range methods {
		key := objectKey(m)
		if s.used[key] {
			continue
		}
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		} else {
			recv = ptr
		}
		for _, iface := range ifaces {
			if hasMethod(iface, m.Name()) && types.Implements(recv, iface) {
				s.used[key] = true
				break
			}
		}
	}
	return nil
}

// collectDecls records the exported package-level declarations and the
// exported methods of exported types in files, and returns the methods.
func (s *exportScan) collectDecls(fset *token.FileSet, files []*ast.File, info *types.Info) []*types.Func {
	var methods []*types.Func
	add := func(id *ast.Ident, node ast.Node) {
		obj := info.Defs[id]
		if obj == nil || !obj.Exported() {
			return
		}
		key := objectKey(obj)
		if key == "" {
			return
		}
		start, end := fset.Position(node.Pos()), fset.Position(node.End())
		s.decls[key] = declSpan{file: start.Filename, start: start.Offset, end: end.Offset}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if fn, ok := info.Defs[d.Name].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
					if objectKey(fn) == "" {
						continue
					}
					methods = append(methods, fn)
				}
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, spec)
						}
					}
				}
			}
		}
	}
	return methods
}

// objectKey names a package-level object as pkg.Name and a method of an
// exported named type as pkg.Type.Name, with the module prefix dropped.
// Other objects get "".
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
		return ""
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "repro/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || !named.Obj().Exported() {
				return ""
			}
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return pkg + "." + obj.Name()
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
