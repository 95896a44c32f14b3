// Command unlinked checks that every function declared in a non-test file
// of this module is linked into some program, or is on the allowlist with a
// reason.
//
// It finds the programs (every package main of the module and every nested
// module's root package, itself included), builds each with inlining off so
// that no function disappears into its callers, and reads the text symbols
// of every binary with go tool nm. A function or method declared in a
// non-test file whose symbol is in no binary is unlinked. The check fails
// on an unlinked function missing from allowlist.txt, and on an allowlist
// entry that is linked or no longer declared.
//
// Run it from the repository root:
//
//	go run ./scripts/unlinked
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

const allowlistFile = "scripts/unlinked/allowlist.txt"

// decl is one function or method declared in a non-test file.
type decl struct {
	pos   string // file:line of the func keyword
	lines int    // from the func keyword to the closing brace
}

// program is a main package to build: dir is where go build runs, pkg the
// import path its package main stands for in the declaration keys ("" for
// a nested module, whose own functions this module does not declare).
type program struct {
	dir, pkg string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unlinked:", err)
		os.Exit(1)
	}
}

func run() error {
	mod, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	decls, progs, err := scan(mod)
	if err != nil {
		return err
	}
	allow, err := readAllowlist(allowlistFile, mod)
	if err != nil {
		return err
	}
	linked, err := linkedSymbols(mod, progs, decls)
	if err != nil {
		return err
	}

	var unlinked, missing, stale []string
	unlinkedLines, allowedLines := 0, 0
	for key, d := range decls {
		if linked[key] {
			continue
		}
		unlinked = append(unlinked, key)
		unlinkedLines += d.lines
		if _, ok := allow[key]; ok {
			allowedLines += d.lines
		} else {
			missing = append(missing, key)
		}
	}
	for key := range allow {
		if _, ok := decls[key]; !ok {
			stale = append(stale, key+": not declared in a non-test file")
		} else if linked[key] {
			stale = append(stale, key+": linked")
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)

	fmt.Printf("%d programs, %d non-test functions; %d unlinked (%d lines), %d of them allowlisted (%d lines)\n",
		len(progs), len(decls), len(unlinked), unlinkedLines, len(unlinked)-len(missing), allowedLines)
	for _, key := range missing {
		d := decls[key]
		fmt.Printf("unlinked, not allowlisted: %s (%s, %d lines)\n", key, d.pos, d.lines)
	}
	for _, s := range stale {
		fmt.Printf("stale allowlist entry: %s\n", s)
	}
	if len(missing) > 0 || len(stale) > 0 {
		return fmt.Errorf("%d unlinked functions not allowlisted, %d stale allowlist entries", len(missing), len(stale))
	}
	return nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(file string) (string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s has no module line", file)
}

// scan parses every non-test Go file of the module, returning its
// functions keyed by import path and name ("pkg.Func" or "pkg.Type.Method")
// and the programs to build.
func scan(mod string) (map[string]decl, []program, error) {
	fset := token.NewFileSet()
	decls := map[string]decl{}
	var progs []program
	mains := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			name := e.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && err == nil {
				progs = append(progs, program{dir: p})
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Clean(dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join(mod, filepath.ToSlash(filepath.Dir(p)))
		if f.Name.Name == "main" && !mains[pkg] {
			mains[pkg] = true
			progs = append(progs, program{dir: filepath.Dir(p), pkg: pkg})
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls[pkg+"."+funcName(fn)] = decl{
				pos:   fmt.Sprintf("%s:%d", p, start.Line),
				lines: end.Line - start.Line + 1,
			}
		}
		return nil
	})
	return decls, progs, err
}

// funcName is Func for a function and Type.Method for a method.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	return t.(*ast.Ident).Name + "." + fn.Name.Name
}

// readAllowlist reads "pkg.Func reason" lines, pkg relative to the module;
// blank lines and lines starting with # are skipped.
func readAllowlist(file, mod string) (map[string]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", file, i+1, name)
		}
		allow[mod+"/"+name] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// linkedSymbols builds every program without inlining and returns the
// declaration keys whose code is in at least one binary.
func linkedSymbols(mod string, progs []program, decls map[string]decl) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "unlinked")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	linked := map[string]bool{}
	for i, p := range progs {
		bin := filepath.Join(tmp, fmt.Sprint(i))
		if err := gocmd(p.dir, nil, "build", "-gcflags=all=-l", "-o", bin, "."); err != nil {
			return nil, fmt.Errorf("build %s: %w", p.dir, err)
		}
		var out bytes.Buffer
		if err := gocmd(".", &out, "tool", "nm", bin); err != nil {
			return nil, fmt.Errorf("nm %s: %w", p.dir, err)
		}
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			markLinked(sc.Text(), mod, p.pkg, decls, linked)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

func gocmd(dir string, stdout *bytes.Buffer, args ...string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	return cmd.Run()
}

// markLinked records the declaration a text symbol of go tool nm's output
// belongs to. Symbols of generic instantiations carry their type arguments
// in brackets, which may hold spaces and further brackets, so the name is
// everything after the symbol type, brackets removed. A closure
// (F.func1), a method value wrapper (T.M-fm) and the like mark the
// function they belong to.
func markLinked(line, mod, mainPkg string, decls map[string]decl, linked map[string]bool) {
	fields := strings.SplitN(strings.TrimSpace(line), " ", 3)
	if len(fields) != 3 || (fields[1] != "T" && fields[1] != "t") {
		return
	}
	name := stripBrackets(fields[2])
	var pkg, rest string
	switch {
	case strings.HasPrefix(name, "main."):
		if mainPkg == "" {
			return
		}
		pkg, rest = mainPkg, strings.TrimPrefix(name, "main.")
	case strings.HasPrefix(name, mod+"/"):
		slash := strings.LastIndex(name, "/")
		dot := strings.Index(name[slash:], ".")
		if dot < 0 {
			return
		}
		pkg, rest = name[:slash+dot], name[slash+dot+1:]
	default:
		return
	}
	rest = receiverMarks.Replace(rest)
	parts := strings.SplitN(rest, ".", 3)
	for _, key := range []string{parts[0], strings.Join(parts[:min(2, len(parts))], ".")} {
		if _, ok := decls[pkg+"."+key]; ok {
			linked[pkg+"."+key] = true
		}
	}
}

// receiverMarks strips the pointer-receiver parentheses of (*T).M and the
// -fm suffix of a method value wrapper.
var receiverMarks = strings.NewReplacer("(*", "", ")", "", "-fm", "")

// stripBrackets removes every bracketed (type argument) span from s.
func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
