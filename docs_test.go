package paragonio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// codeSpan matches one inline code span of a Markdown line, and
// docIdent a Go qualified identifier inside it: pkg.Name, or
// pkg.Type.Member. Only exported names are checked, so lower-case
// tokens such as the metric name sim.events never match.
var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	docIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// goPkg is what the docs can name of one package: its top-level
// identifiers, and for each type its methods and fields (an interface's
// methods, a struct's named and embedded fields).
type goPkg struct {
	top     map[string]bool
	members map[string]map[string]bool
}

// TestDocIdentifiersResolve resolves every backticked pkg.Name and
// pkg.Type.Member in the top-level docs and docs/*.md, where pkg is a
// package under internal/, against that package's non-test sources. A
// renamed or deleted identifier fails here instead of leaving a stale
// mention behind.
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
		fenced := false
		for n, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range docIdent.FindAllStringSubmatch(span[1], -1) {
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
						t.Errorf("%s:%d: `%s` names no identifier in internal/%s", doc, n+1, ref, m[1])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no backticked identifiers found; the scanner is broken")
	}
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// addType records a type and its fields or interface methods.
func (p *goPkg) addType(spec *ast.TypeSpec) {
	name := spec.Name.Name
	p.top[name] = true
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
