package main

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func fixtureDir(t *testing.T, rel string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", rel))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-json", fixtureDir(t, filepath.Join("jsonout", "osd"))}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (one live finding)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (one live, one suppressed): %+v", len(diags), diags)
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	}) {
		t.Errorf("diagnostics are not in the documented sort order: %+v", diags)
	}
	var live, suppressed int
	for _, d := range diags {
		if d.Analyzer == "" || d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Message == "" {
			t.Errorf("diagnostic with missing schema fields: %+v", d)
		}
		if d.Suppressed {
			suppressed++
		} else {
			live++
		}
	}
	if live != 1 || suppressed != 1 {
		t.Errorf("live = %d, suppressed = %d, want 1 and 1: %+v", live, suppressed, diags)
	}
}

func TestAuditAllows(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-audit-allows", fixtureDir(t, filepath.Join("auditallows", "osd"))}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		`names unknown analyzer "determinsm"`,
		"afvet:allow poolsafe carries no justification",
		"afvet:allow names no analyzer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "audit-allows:"); n != 3 {
		t.Errorf("got %d audit-allows findings, want 3 (the justified annotation must pass):\n%s", n, out)
	}
}

func TestAuditAllowsJSON(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-audit-allows", "-json", fixtureDir(t, filepath.Join("auditallows", "osd"))}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(diags) != 3 {
		t.Errorf("got %d findings, want 3: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "audit-allows" {
			t.Errorf("analyzer = %q, want audit-allows", d.Analyzer)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-only", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr missing unknown-analyzer message: %s", stderr.String())
	}
}

// TestUnusedPartialLoad: a load that leaves out a package's importers
// must not report their references as missing. ./internal/sim alone has
// no importer loaded, so unused reports nothing on it.
func TestUnusedPartialLoad(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "sim"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-only", "unused", dir}, &stdout, &stderr); code != 0 || stdout.Len() > 0 {
		t.Fatalf("exit = %d, want 0 with no output\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}
