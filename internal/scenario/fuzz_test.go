package scenario

import "testing"

// FuzzScenarioParse: arbitrary bytes must never panic the parser, invalid
// specs must come back as errors (Validate never panics on user input),
// and anything that parses must survive a json.Marshal round trip: Parse
// reads the marshalled form back as a deeply equal scenario.
func FuzzScenarioParse(f *testing.F) {
	for _, name := range CanonNames {
		f.Add([]byte(Canon(name)))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name": "x", "tenants": [{"arrival": {}}]}`))
	f.Add([]byte(`[1, 2, {"a": "bé😀"}]`))
	f.Add([]byte(`{"name": "x", "seed": -1, "runtime_sec": 1e999}`))
	f.Add([]byte("{\"name\": \"x\" // comment\n}"))
	f.Add([]byte(`{"a": [[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data) // must not panic
		if err != nil {
			return
		}
		checkMarshalRoundTrip(t, sc)
	})
}
