// Package analysistest runs afvet analyzers over fixture packages and
// checks their diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest (which the offline build
// cannot depend on; see internal/analysis/driver).
//
// A fixture line that should trigger a diagnostic carries a trailing
// comment of the form
//
//	code() // want "regexp"            one diagnostic matching regexp
//	code() // want "re1" "re2"         two diagnostics on the same line
//
// Each pattern must match a distinct diagnostic reported on that line, and
// every reported diagnostic must be matched by some pattern; anything else
// fails the test. Fixture packages live under testdata/src/<case>/<pkg>
// and are loaded through the production driver, so imports of real module
// packages (repro/internal/sim, repro/internal/core, ...) resolve exactly
// as they do when afvet audits the repository.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/driver"
)

// wantRe extracts the quoted patterns of a want comment.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type lineKey struct {
	file string
	line int
}

// Run loads each fixture package (a path relative to testdata/src) and
// checks analyzer's diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *driver.Analyzer, fixtures ...string) { //afvet:allow unused every analyzer's _test.go checks its fixtures through it
	t.Helper()
	for _, fx := range fixtures {
		dir, err := filepath.Abs(filepath.Join(testdata, "src", fx))
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := driver.Load(dir, ".")
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fx, err)
		}
		diags, err := driver.Run(pkgs, []*driver.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, fx, err)
		}
		got := map[lineKey][]string{}
		for _, d := range diags {
			k := lineKey{file: d.Pos.Filename, line: d.Pos.Line}
			got[k] = append(got[k], d.Message)
		}
		for k, patterns := range wants(t, pkgs) {
			rest := got[k]
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", k.file, k.line, p, err)
				}
				idx := -1
				for i, msg := range rest {
					if re.MatchString(msg) {
						idx = i
						break
					}
				}
				if idx < 0 {
					t.Errorf("%s:%d: no %s diagnostic matching %q (got %v)", k.file, k.line, a.Name, p, rest)
					continue
				}
				rest = append(rest[:idx], rest[idx+1:]...)
			}
			if len(rest) > 0 {
				t.Errorf("%s:%d: unexpected extra diagnostics: %v", k.file, k.line, rest)
			}
			delete(got, k)
		}
		for k, msgs := range got {
			t.Errorf("%s:%d: unexpected diagnostics: %v", k.file, k.line, msgs)
		}
	}
}

// wants parses the // want comments of every loaded fixture file.
func wants(t *testing.T, pkgs []*driver.Package) map[lineKey][]string {
	t.Helper()
	out := map[lineKey][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := lineKey{file: pos.Filename, line: pos.Line}
					for _, q := range wantRe.FindAllString(strings.TrimPrefix(text, "want "), -1) {
						var pat string
						if strings.HasPrefix(q, "`") {
							pat = strings.Trim(q, "`")
						} else {
							var err error
							pat, err = strconv.Unquote(q)
							if err != nil {
								t.Fatalf("%s: bad want pattern %s: %v", fmt.Sprint(k), q, err)
							}
						}
						out[k] = append(out[k], pat)
					}
				}
			}
		}
	}
	return out
}
