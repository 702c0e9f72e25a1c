package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The comment directives the suite understands:
//
//	//lsilint:ignore [id ...]       suppress findings of the listed checks
//	                                (all checks when no IDs are given) on
//	                                the directive's line and the line below
//	                                it — so it works both trailing a
//	                                statement and standing above one.
//	//lsilint:file-ignore [id ...]  suppress the listed checks (or all) for
//	                                the whole file. This is the allowlist
//	                                mechanism for e.g. wall-clock reads in
//	                                benchmark code.
//	//lsilint:noalloc               on a function declaration's doc
//	                                comment: the noalloc check flags every
//	                                allocating construct in its body, and
//	                                the noalloctrans check verifies its
//	                                callees transitively.
//	//lsilint:guardedby mu          on a struct field: the guardedby check
//	                                requires the named mutex — a sibling
//	                                field or a package-level variable —
//	                                held at every access, counting locks
//	                                inherited from callers.
//	//lsilint:immutable             on a type declaration: the
//	                                snapshotsafe check flags every write
//	                                through a value of the type outside
//	                                its constructor chain.
//
// Directive comments use the standard Go directive shape (no space after
// //), so gofmt leaves them alone and go/ast keeps them out of godoc text.
const directivePrefix = "//lsilint:"

// directives holds the parsed suppression state for one package.
type directives struct {
	// ignore[filename][line] is the set of suppressed check IDs anchored
	// at that line; the empty string means "all checks".
	ignore map[string]map[int]map[string]bool
	// fileIgnore[filename] is the file-wide suppression set.
	fileIgnore map[string]map[string]bool
}

// parseDirectives scans every comment in the package once.
func parseDirectives(fset *token.FileSet, files []*ast.File) *directives {
	d := &directives{
		ignore:     map[string]map[int]map[string]bool{},
		fileIgnore: map[string]map[string]bool{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, ids, ok := splitDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				switch verb {
				case "ignore":
					byLine := d.ignore[pos.Filename]
					if byLine == nil {
						byLine = map[int]map[string]bool{}
						d.ignore[pos.Filename] = byLine
					}
					byLine[pos.Line] = idSet(ids)
				case "file-ignore":
					set := d.fileIgnore[pos.Filename]
					if set == nil {
						set = map[string]bool{}
						d.fileIgnore[pos.Filename] = set
					}
					for id, v := range idSet(ids) {
						set[id] = v
					}
				}
			}
		}
	}
	return d
}

// splitDirective decomposes "//lsilint:verb id1 id2" into its parts.
func splitDirective(text string) (verb string, ids []string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", nil, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
	if len(fields) == 0 {
		return "", nil, false
	}
	return fields[0], fields[1:], true
}

// idSet turns a directive's ID list into a set; an empty list means
// "suppress everything" and is encoded as {"": true}.
func idSet(ids []string) map[string]bool {
	if len(ids) == 0 {
		return map[string]bool{"": true}
	}
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// suppressed reports whether a finding of check id at pos is silenced by
// an ignore directive on its line, the line above, or file-wide.
func (d *directives) suppressed(id string, pos token.Position) bool {
	if set := d.fileIgnore[pos.Filename]; set != nil && (set[""] || set[id]) {
		return true
	}
	byLine := d.ignore[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if set := byLine[line]; set != nil && (set[""] || set[id]) {
			return true
		}
	}
	return false
}

// hasNoallocDirective reports whether a function declaration carries the
// //lsilint:noalloc annotation in its doc comment group.
func hasNoallocDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if verb, _, ok := splitDirective(c.Text); ok && verb == "noalloc" {
			return true
		}
	}
	return false
}

// hasGoNoescape reports whether a function declaration's doc comment
// group carries the compiler's //go:noescape pragma.
func hasGoNoescape(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == "//go:noescape" {
			return true
		}
	}
	return false
}

// guardDirective extracts //lsilint:guardedby <mutex> from a struct
// field's doc or trailing comment. found reports the directive is
// present; mu is empty when it is malformed (zero or several names).
func guardDirective(field *ast.Field) (mu string, found bool) {
	for _, g := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			verb, ids, ok := splitDirective(c.Text)
			if !ok || verb != "guardedby" {
				continue
			}
			if len(ids) == 1 {
				return ids[0], true
			}
			return "", true
		}
	}
	return "", false
}

// hasDirectiveIn reports whether any of the comment groups carries the
// given //lsilint: verb.
func hasDirectiveIn(verb string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if v, _, ok := splitDirective(c.Text); ok && v == verb {
				return true
			}
		}
	}
	return false
}
