package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestParseCanonical(t *testing.T) {
	for _, name := range CanonNames {
		sc, err := Parse([]byte(Canon(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Name != name {
			t.Fatalf("%s: parsed name %q", name, sc.Name)
		}
		if len(sc.Tenants) == 0 {
			t.Fatalf("%s: no tenants", name)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "d", "runtime_sec": 1,
		"cluster": {"nodes": 1, "osds_per_node": 2},
		"tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 10}}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 1 {
		t.Fatalf("default seed = %d, want 1", sc.Seed)
	}
	want := ClusterSpec{Nodes: 1, OSDsPerNode: 2, SSDsPerOSD: 2, PGs: 256, Replicas: 2, Profile: "afceph", JournalMB: 64}
	if sc.Cluster != want {
		t.Fatalf("cluster defaults = %+v, want %+v", sc.Cluster, want)
	}
	r := resolveTenant(&sc.Tenants[0])
	if r.Class != "standard" || r.ImageMB != 64 || r.InFlight != 8 {
		t.Fatalf("tenant defaults = %q/%d/%d", r.Class, r.ImageMB, r.InFlight)
	}
	if len(r.sizes) != 1 || r.sizes[0].Bytes != 4096 {
		t.Fatalf("default sizes = %+v", r.sizes)
	}
}

func TestParseComments(t *testing.T) {
	in := `// Comments take whole lines.
{
	// a line comment
	"name": "c",
	    // an indented comment with "quotes" and a stray }
	"runtime_sec": 1,
	"cluster": {"nodes": 1, "osds_per_node": 2},
	"tenants": [{"name": "a // not a comment", "clients": 1,
		"arrival": {"process": "poisson", "rate_ops_sec": 5}}]
}`
	sc, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Tenants[0].Name != "a // not a comment" {
		t.Fatalf("comment stripping reached into a string: %q", sc.Tenants[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	const tenant = `{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5}}`
	const cluster = `"cluster": {"nodes": 1, "osds_per_node": 2}`
	cases := []struct {
		name, in, want string
	}{
		{"empty", ``, "unexpected end"},
		{"non-object", `[1]`, "top level"},
		{"trailing", `{"name": "x", "runtime_sec": 1, ` + cluster + `, "tenants": [` + tenant + `]} extra`, "trailing data"},
		{"unknown-top", `{"nmae": "x"}`, `unknown field "nmae"`},
		{"unknown-tenant", `{"name": "x", "runtime_sec": 1, ` + cluster + `, "tenants": [{"name": "a", "clinets": 1}]}`, `unknown field "clinets"`},
		{"dup-key", `{"name": "x", "name": "y"}`, `top level: duplicate key "name"`},
		// encoding/json matches keys case-insensitively, so without the
		// folded duplicate check this would parse as name "y".
		{"dup-key-folded", `{"name": "x", "NAME": "y", "runtime_sec": 1, ` + cluster + `, "tenants": [` + tenant + `]}`, `top level: duplicate key "NAME"`},
		{"dup-key-unicode-fold", `{"seed": 1, "ſeed": 2}`, "duplicate key \"ſeed\""}, // U+017F long s folds to s
		{"dup-key-nested", `{"name": "x", "runtime_sec": 1, ` + cluster + `, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5, "rate_ops_sec": 50}}]}`, `tenants[0].arrival: duplicate key "rate_ops_sec"`},
		{"bad-type", `{"name": 4}`, "cannot unmarshal number"},
		{"no-cluster", `{"name": "x", "runtime_sec": 1, "tenants": []}`, "cluster.nodes 0"},
		{"no-tenants", `{"name": "x", "runtime_sec": 1, ` + cluster + `, "tenants": []}`, "at least one tenant"},
		{"bad-process", `{"name": "x", "runtime_sec": 1, ` + cluster + `, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "pareto", "rate_ops_sec": 5}}]}`, "not poisson, gamma or weibull"},
		{"poisson-cv", `{"name": "x", "runtime_sec": 1, ` + cluster + `, "tenants": [{"name": "a", "clients": 1, "arrival": {"process": "poisson", "rate_ops_sec": 5, "cv": 2}}]}`, "cv fixed at 1"},
		// An explicit zero is an error, not a request for the default.
		{"zero-ssds", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2, "ssds_per_osd": 0}, "tenants": [` + tenant + `]}`, "cluster.ssds_per_osd 0"},
		{"zero-pgs", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2, "pgs": 0}, "tenants": [` + tenant + `]}`, "cluster.pgs 0"},
		{"zero-replicas", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2, "replicas": 0}, "tenants": [` + tenant + `]}`, `bad pool "rep0"`},
		{"empty-profile", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2, "profile": ""}, "tenants": [` + tenant + `]}`, "cluster.profile"},
		{"zero-journal", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2, "journal_mb": 0}, "tenants": [` + tenant + `]}`, "cluster.journal_mb 0"},
		// Params.Validate's checks, under the cluster prefix.
		{"pool-too-wide", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 1}, "tenants": [` + tenant + `]}`, "scenario x: cluster: pool rep2 places on 2 OSDs but the cluster has 1"},
		{"bad-backend", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2, "backend": "bluestore"}, "tenants": [` + tenant + `]}`, "scenario x: cluster:"},
		{"failure-needs-timeout", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 1, "osds_per_node": 2}, "failure": {"osd": 0, "at_sec": 0.5, "recover_at_sec": 0.8}, "tenants": [` + tenant + `]}`, "op_timeout_ms"},
		{"huge-number", `{"name": "x", "seed": 1e300}`, "cannot unmarshal number 1e300"},
		{"bad-escape", `{"name": "\q"}`, "string escape code"},
		{"deep-nest", `{"a": ` + strings.Repeat(`[`, 100) + strings.Repeat(`]`, 100) + `}`, "nesting deeper"},
		// The comment line is blanked, not deleted, so the reported offset
		// still lands on the line holding the missing colon.
		{"error-line-after-comment", "{\n  // a comment\n  \"name\" \"x\"\n}", "scenario: line 3:"},
		// Conveniences the format does not offer.
		{"hash-comment", "{\n  # a comment\n  \"name\": \"x\"\n}", "line 2"},
		{"inline-comment", "{\n  \"name\": \"x\" // a comment\n}", "line 2"},
		{"trailing-comma", `{"name": "x",}`, "invalid character '}'"},
		{"fractional-int", `{"name": "x", "runtime_sec": 1, "cluster": {"nodes": 2.0, "osds_per_node": 1}, "tenants": [` + tenant + `]}`, "cannot unmarshal number 2.0"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.in))
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// checkMarshalRoundTrip asserts the property FuzzScenarioParse extends to
// the whole valid input space: whatever Parse accepts, encoding/json can
// write back out in a form Parse reads as the same scenario.
func checkMarshalRoundTrip(t *testing.T, sc *Scenario) {
	t.Helper()
	out, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sc2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse of marshalled scenario: %v\n%s", err, out)
	}
	if !reflect.DeepEqual(sc, sc2) {
		t.Fatalf("marshal round trip changed the scenario:\n%+v\n%+v", sc, sc2)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, name := range CanonNames {
		sc, err := Parse([]byte(Canon(name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMarshalRoundTrip(t, sc)
	}
}

func TestMarshalRoundTripEscaping(t *testing.T) {
	checkMarshalRoundTrip(t, &Scenario{
		Name: "weird \"name\"\twith\nescapes\x01 <&>", Seed: 0, RuntimeSec: 1,
		Cluster: ClusterSpec{Nodes: 1, OSDsPerNode: 2, SSDsPerOSD: 2, PGs: 256, Replicas: 2, Profile: "afceph", JournalMB: 64},
		Tenants: []TenantSpec{{Name: "t", Clients: 1, Arrival: ArrivalSpec{Process: ProcPoisson, RateOpsSec: 5}}},
	})
}
