package paragonio_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// codeSpan matches one inline code span of a Markdown line. Inside it,
// qualIdent matches a package-qualified Go identifier, pkg.Name or
// pkg.Type.member, and typeIdent an unqualified Type.member. Names and
// types must be exported, so lower-case tokens such as the metric name
// sim.events never match; members may be exported or not.
var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	qualIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	typeIdent = regexp.MustCompile(`(?:^|[^\w./])([A-Z]\w*)\.(\w+)`)
)

// goPkg is what the docs can name of one package: its top-level
// identifiers, and for each type its methods and fields (an interface's
// methods, a struct's named and embedded fields). Every declared type
// has a members entry, possibly empty.
type goPkg struct {
	top     map[string]bool
	members map[string]map[string]bool
}

// TestDocIdentifiersResolve resolves every backticked pkg.Name,
// pkg.Type.member and Type.member in the top-level docs and docs/*.md,
// where pkg is a package under internal/ and Type an exported type
// declared there, against the non-test sources. A renamed or deleted
// identifier fails here instead of leaving a stale mention behind.
func TestDocIdentifiersResolve(t *testing.T) {
	pkgs := internalPackages(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...)
	checked := 0
	for _, doc := range docs {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		stale, n := staleIdents(pkgs, string(body))
		checked += n
		for _, s := range stale {
			t.Errorf("%s:%s", doc, s)
		}
	}
	if checked == 0 {
		t.Fatal("no backticked identifiers found; the scanner is broken")
	}
}

// TestDocIdentifiersReportStaleMembers plants three stale member names,
// two unqualified and one package-qualified, beside names that resolve,
// in a document checked against two small packages, and requires
// exactly the three to be reported.
func TestDocIdentifiersReportStaleMembers(t *testing.T) {
	pkgs := map[string]*goPkg{}
	for _, src := range []string{
		"package pfs\ntype FileSystem struct{ k int }\nfunc (fs *FileSystem) Open() {}\n",
		"package sim\ntype Kernel struct{ now int }\nfunc (k *Kernel) Run() {}\ntype Proc struct{}\nfunc (p *Proc) Wait() {}\n",
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		addFile(pkgs, f)
	}
	doc := "`FileSystem.Open` completes; `FileSystem.serve` parks.\n" +
		"`Proc.Wait` or `Proc.setThen`, then `sim.Kernel.Run` and `sim.Kernel.now`.\n" +
		"```\n`FileSystem.fenced` is code, not prose.\n```\n" +
		"`sim.Kernel.inPlace` and `Unknown.member` (no such type).\n"
	stale, checked := staleIdents(pkgs, doc)
	want := []string{
		"1: `FileSystem.serve` names no identifier in internal/",
		"2: `Proc.setThen` names no identifier in internal/",
		"6: `sim.Kernel.inPlace` names no identifier in internal/sim",
	}
	if !reflect.DeepEqual(stale, want) || checked != 7 {
		t.Errorf("stale = %q (%d checked), want %q (7 checked)", stale, checked, want)
	}
}

// staleIdents scans one Markdown document, outside fenced blocks, and
// returns a "line: `ref` names no identifier …" report for every
// backticked identifier it names that does not resolve in pkgs, with the
// number it checked. An unqualified Type.member resolves if any type of
// that name in any package declares the member.
func staleIdents(pkgs map[string]*goPkg, body string) (stale []string, checked int) {
	fenced := false
	for n, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		report := func(ref, pkg string) {
			stale = append(stale, fmt.Sprintf("%d: `%s` names no identifier in internal/%s", n+1, ref, pkg))
		}
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			for _, m := range qualIdent.FindAllStringSubmatch(span[1], -1) {
				p, ok := pkgs[m[1]]
				if !ok {
					continue
				}
				checked++
				ref := m[1] + "." + m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !p.top[m[2]] || m[3] != "" && !p.members[m[2]][m[3]] {
					report(ref, m[1])
				}
			}
			for _, m := range typeIdent.FindAllStringSubmatch(span[1], -1) {
				isType, found := false, false
				for _, p := range pkgs {
					if ms, ok := p.members[m[1]]; ok {
						isType = true
						found = found || ms[m[2]]
					}
				}
				if !isType {
					continue
				}
				checked++
				if !found {
					report(m[1]+"."+m[2], "")
				}
			}
		}
	}
	return stale, checked
}

// internalPackages parses every package under internal/, keyed by its
// name, from its non-test Go files.
func internalPackages(t *testing.T) map[string]*goPkg {
	t.Helper()
	pkgs := map[string]*goPkg{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		addFile(pkgs, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// addFile records one parsed file's declarations in its package.
func addFile(pkgs map[string]*goPkg, f *ast.File) {
	p := pkgs[f.Name.Name]
	if p == nil {
		p = &goPkg{top: map[string]bool{}, members: map[string]map[string]bool{}}
		pkgs[f.Name.Name] = p
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				p.top[decl.Name.Name] = true
			} else {
				p.add(typeName(decl.Recv.List[0].Type), decl.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.addType(spec)
				}
			}
		}
	}
}

// addType records a type and its fields or interface methods.
func (p *goPkg) addType(spec *ast.TypeSpec) {
	name := spec.Name.Name
	p.top[name] = true
	if p.members[name] == nil {
		p.members[name] = map[string]bool{}
	}
	var fields *ast.FieldList
	switch typ := spec.Type.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			p.add(name, typeName(f.Type))
		}
		for _, n := range f.Names {
			p.add(name, n.Name)
		}
	}
}

func (p *goPkg) add(typ, member string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][member] = true
}

// typeName is the bare name of a receiver or embedded field's type:
// pointers, type parameters and package qualifiers stripped.
func typeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
