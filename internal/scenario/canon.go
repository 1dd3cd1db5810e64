package scenario

import "repro/examples/scenarios"

// CanonNames lists the canonical scenarios in presentation order. Their
// text lives only in examples/scenarios/<name>.json, so what users run with
// `afsim -scenario` is exactly what the scenarios figure and the
// differential determinism harness measure.
var CanonNames = []string{
	"steady-multi-tenant",
	"noisy-neighbor",
	"flash-crowd",
	"failover-under-load",
}

// Canon returns the canonical scenario text by name ("" when unknown).
func Canon(name string) string {
	data, err := scenarios.FS.ReadFile(name + ".json")
	if err != nil {
		return ""
	}
	return string(data)
}
