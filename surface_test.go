// Every exported name has a caller: TestExportedNamesHaveCallers lists
// each exported top-level name and method declared in the module's
// library packages that no non-test file references, and holds that
// list to testdata/uncalled.txt. The allowlist may only shrink: a new
// uncalled name fails the test until it gets a caller or is deleted, a
// line whose name gained a caller (or went away) fails it until the line
// goes, and the file may not grow past uncalledCeiling lines.
//
// It reads the source with go/parser and go/ast alone, without type
// information, so "references" is syntactic:
//
//   - pkg.Name in another package's file, pkg being that file's import
//     of the declaring package;
//   - a bare Name in a file of the declaring package;
//   - .Name after anything but an import name, for a method Name, in a
//     file whose package has the method's package in its module import
//     closure (the package itself and every module package it imports,
//     directly or not): a value of the receiver type can reach no other
//     file.
//
// A declaration's references to itself do not count. References from
// benchmark/ are kept apart: a name only the frozen benchmark uses is
// listed with class "benchmark", and only such a name may be.
package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledCeiling is the most lines testdata/uncalled.txt may hold.
// Lower it when a line goes; never raise it.
const uncalledCeiling = 21

// uncalledClasses are the reasons a name may lack a non-test caller:
// a hook (a counter or printer tests read), a fixture (a program or
// helper several packages' tests share) and benchmark (called only by
// the frozen benchmark).
var uncalledClasses = map[string]bool{"hook": true, "fixture": true, "benchmark": true}

// exemptMethods are called through standard-library interfaces
// (fmt.Stringer, error, fmt.Formatter), never by name.
var exemptMethods = map[string]bool{"String": true, "Error": true, "Format": true}

const modulePath = "repro"

// surfaceFile is one parsed non-test Go file of the module.
type surfaceFile struct {
	dir  string // module-relative directory, slash-separated
	pkg  string // package clause
	file *ast.File
}

func loadSurface(t *testing.T) []surfaceFile {
	t.Helper()
	var files []surfaceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, surfaceFile{dir: filepath.ToSlash(filepath.Dir(p)), pkg: f.Name.Name, file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// displayName is how a declaration is written in uncalled.txt: the
// package directory without its internal/ prefix, then the name, with
// the receiver type between them for a method.
func displayName(dir, recv, name string) string {
	dir = strings.TrimPrefix(dir, "internal/")
	if recv != "" {
		return dir + "." + recv + "." + name
	}
	return dir + "." + name
}

// recvTypeName is the base type name of a method receiver.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// exportedDecl is one exported name a library package declares.
type exportedDecl struct {
	dir, recv, name string
}

func (d exportedDecl) String() string { return displayName(d.dir, d.recv, d.name) }

// refKey is the reference that counts as a call of d: for a method a
// selector .Name that can reach d's package, keyed "dir..Name" (no
// display name holds ".."), the display name otherwise.
func (d exportedDecl) refKey() string {
	if d.recv != "" {
		return methodKey(d.dir, d.name)
	}
	return d.String()
}

func methodKey(dir, name string) string { return dir + ".." + name }

// importClosure maps each package directory to the module packages its
// non-test files reach through imports, itself included.
func importClosure(files []surfaceFile) map[string]map[string]bool {
	imports := map[string][]string{}
	for _, f := range files {
		for _, im := range f.file.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, modulePath+"/") {
				imports[f.dir] = append(imports[f.dir], strings.TrimPrefix(p, modulePath+"/"))
			}
		}
	}
	closure := map[string]map[string]bool{}
	var reach func(dir string, into map[string]bool)
	reach = func(dir string, into map[string]bool) {
		if into[dir] {
			return
		}
		into[dir] = true
		for _, im := range imports[dir] {
			reach(im, into)
		}
	}
	for _, f := range files {
		if closure[f.dir] == nil {
			closure[f.dir] = map[string]bool{}
			reach(f.dir, closure[f.dir])
		}
	}
	return closure
}

// findUncalled returns the exported names no non-test file outside
// benchmark/ references, each mapped to whether benchmark/ does.
func findUncalled(t *testing.T) map[string]bool {
	files := loadSurface(t)
	pkgName := map[string]string{} // directory → package clause
	for _, f := range files {
		pkgName[f.dir] = f.pkg
	}

	var decls []exportedDecl
	self := map[*ast.Ident]bool{} // declaring identifiers
	owner := map[ast.Node]exportedDecl{}
	for _, f := range files {
		if f.pkg == "main" {
			continue
		}
		for _, d := range f.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				self[d.Name] = true
				if d.Recv != nil && len(d.Recv.List) > 0 {
					// A method's receiver type is not a use of the type.
					ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							self[id] = true
						}
						return true
					})
				}
				if !d.Name.IsExported() {
					continue
				}
				ed := exportedDecl{dir: f.dir, name: d.Name.Name}
				if d.Recv != nil && len(d.Recv.List) > 0 {
					ed.recv = recvTypeName(d.Recv.List[0].Type)
					if exemptMethods[ed.name] {
						continue
					}
				}
				decls = append(decls, ed)
				owner[d] = ed
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						self[id] = true
						if id.IsExported() {
							ed := exportedDecl{dir: f.dir, name: id.Name}
							decls = append(decls, ed)
							owner[s] = ed
						}
					}
				}
			}
		}
	}

	// refs holds "dir.Name" for package-level references and
	// "dir..Name" for a method selector, one for each dir in the
	// closure of the selector's package; benchRefs the same from
	// benchmark/.
	refs, benchRefs := map[string]bool{}, map[string]bool{}
	closure := importClosure(files)
	for _, f := range files {
		into := refs
		if f.dir == "benchmark" || strings.HasPrefix(f.dir, "benchmark/") {
			into = benchRefs
		}
		imports := map[string]string{} // local name → module-relative dir
		for _, im := range f.file.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if !strings.HasPrefix(p, modulePath+"/") {
				continue
			}
			dir := strings.TrimPrefix(p, modulePath+"/")
			local := pkgName[dir]
			if local == "" {
				local = path.Base(dir)
			}
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		// Walk each top-level declaration on its own: its references to
		// itself (skip) do not count.
		walk := func(decl ast.Node) {
			skip := ""
			if ed, ok := owner[decl]; ok {
				skip = ed.refKey()
			}
			add := func(key string) {
				if key != skip {
					into[key] = true
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok {
						if dir, ok := imports[id.Name]; ok {
							add(displayName(dir, "", x.Sel.Name))
							return false
						}
					}
					for dir := range closure[f.dir] {
						add(methodKey(dir, x.Sel.Name))
					}
				case *ast.Ident:
					if !self[x] {
						add(displayName(f.dir, "", x.Name))
					}
				}
				return true
			})
		}
		for _, d := range f.file.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, s := range g.Specs {
					walk(s)
				}
			} else {
				walk(d)
			}
		}
	}

	uncalled := map[string]bool{}
	for _, d := range decls {
		if key := d.refKey(); !refs[key] {
			uncalled[d.String()] = benchRefs[key]
		}
	}
	return uncalled
}

func TestExportedNamesHaveCallers(t *testing.T) {
	uncalled := findUncalled(t)

	f, err := os.Open(filepath.Join("testdata", "uncalled.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]string{}
	lines := 0
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		lines++
		if len(fields) != 2 {
			t.Errorf("uncalled.txt:%d: want \"name class\", got %q", n, sc.Text())
			continue
		}
		name, class := fields[0], fields[1]
		if !uncalledClasses[class] {
			t.Errorf("uncalled.txt:%d: %s has class %q; the classes are hook, fixture and benchmark", n, name, class)
		}
		if _, dup := listed[name]; dup {
			t.Errorf("uncalled.txt:%d: %s is listed twice", n, name)
		}
		listed[name] = class
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines > uncalledCeiling {
		t.Errorf("uncalled.txt has %d lines, more than the ceiling of %d: the list may only shrink", lines, uncalledCeiling)
	}

	var missing []string
	for name, fromBench := range uncalled {
		class, ok := listed[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case fromBench && class != "benchmark":
			t.Errorf("%s is called only from benchmark/; its class should be benchmark, not %s", name, class)
		case !fromBench && class == "benchmark":
			t.Errorf("%s is classed benchmark, but benchmark/ does not call it", name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s is exported and no non-test file calls it: give it a caller or delete it", name)
	}
	var stale []string
	for name := range listed {
		if _, ok := uncalled[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("uncalled.txt lists %s, which now has a non-test caller or no longer exists: delete the line and lower uncalledCeiling", name)
	}
}
